"""Seeded Monte Carlo studies: coverage, convergence rates, double robustness.

Two data-generating processes are supported.

``logistic-linear``
    W ~ Uniform[-1, 1]^d, Pr(A=0 | W=w) = logistic(gamma0 + gamma'w), and
    Y = beta0 + beta'w + noise for untreated rows (treated rows get a
    constant shift; their outcomes never enter the estimators).  The mean
    untreated outcome is beta0 + beta'E[W] = beta0 in closed form; the
    treated-subpopulation version integrates the covariate law among the
    treated by tensor Gauss-Legendre quadrature.

``discrete-saturated``
    An explicit finite-support joint law, held in the spec's one field
    ``table``; truths come from the exact finite-distribution functionals.

Replication streams are derived by hashing (master_seed, replication id)
through numpy's SeedSequence, so runs are bit-reproducible for any worker
count and doubling the replication count reproduces the original prefix.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import FiniteDistribution, _check_estimand, _law, fields_dict, psi_of, theta_of
from .errors import ConfigError, EifkitError, NoTreatedRows
from .estimators import EstimatorConfig, estimate
from .decomposition import _check_n_grid, _loglog_slope, truth_functions
from .learners import (Dataset, LearnerSpec, _check_fields, _is_int, _is_list_of, _is_real,
                       _predictor, logistic)

__all__ = [
    "DGPSpec",
    "ReplicationResult",
    "CoverageSummary",
    "RateExperimentReport",
    "DrConsistencyReport",
    "default_logistic_linear",
    "generate",
    "generate_with_counterfactual",
    "draw_dataset",
    "quadrature_distribution",
    "run_coverage",
    "run_rate_experiment",
    "run_dr_consistency",
    "dr_arm_specs",
    "DR_ARMS",
    "ks_critical_value",
]

QUADRATURE_NODES = 48
# theta's tensor grid has QUADRATURE_NODES**d points: 5.3 M at d = 4, while
# d = 5 would need about 10 GB
MAX_QUADRATURE_DIM = 4
DR_ARMS = ("none", "q-wrong", "g-wrong", "both-wrong")
# the DGPSpec fields each kind reads, and what each field must be
_DGP_READS = {"logistic-linear": ("gamma", "beta", "noise_sd", "treated_shift"),
              "discrete-saturated": ("table",)}
_DGP_RULES = {
    "gamma": ("a list of finite numbers", lambda v: _is_list_of(v, _is_real)),
    "beta": ("a list of finite numbers", lambda v: _is_list_of(v, _is_real)),
    "noise_sd": ("a finite number >= 0", lambda v: _is_real(v) and v >= 0.0),
    "treated_shift": ("a finite number", _is_real),
    "table": ("a FiniteDistribution", lambda v: isinstance(v, FiniteDistribution)),
}


# ---------------------------------------------------------------------------
# data-generating processes


@dataclass(frozen=True)
class DGPSpec:
    """Immutable description of a data-generating process.

    For ``logistic-linear``, ``gamma`` and ``beta`` are intercept-first
    coefficient vectors of length d+1, lists or tuples of finite numbers,
    and ``noise_sd`` (>= 0) and ``treated_shift`` are finite numbers.  For
    ``discrete-saturated``, ``table`` holds the exact joint law.  A bad
    value raises ConfigError, and so does a field the kind does not read
    that holds anything but its default: a ``table`` on logistic-linear,
    or a coefficient field on discrete-saturated.  ``q`` and ``g`` build
    their lookups on each call, so a spec holds and pickles its fields only.
    """

    kind: str = "logistic-linear"
    gamma: tuple = (0.0, 0.8, -0.8)
    beta: tuple = (1.0, 1.0, 0.5)
    noise_sd: float = 1.0
    treated_shift: float = 1.0
    table: Optional[FiniteDistribution] = None

    def __post_init__(self):
        _check_fields(self, _DGP_READS, _DGP_RULES, ConfigError)
        if self.kind == "logistic-linear":
            for name in ("gamma", "beta"):
                object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
            for name in ("noise_sd", "treated_shift"):
                object.__setattr__(self, name, float(getattr(self, name)))
            if len(self.gamma) != len(self.beta) or len(self.gamma) < 2:
                raise ConfigError("'gamma' and 'beta' must share a length of at least 2")

    @property
    def d(self) -> int:
        if self.kind == "discrete-saturated":
            return self.table.support_table.w.shape[1]
        return len(self.beta) - 1

    # -- truth functions ---------------------------------------------------

    def q(self, w):
        """True untreated-outcome regression, vectorized over rows."""
        if self.kind == "discrete-saturated":
            return truth_functions(self.table)[0](w)
        return _predictor(lambda x: self.beta[0] + x @ np.array(self.beta[1:]))(w)

    def g(self, w):
        """True untreated propensity Pr(A=0 | W=w), vectorized over rows."""
        if self.kind == "discrete-saturated":
            return truth_functions(self.table)[1](w)
        return _predictor(lambda x: logistic(self.gamma[0] + x @ np.array(self.gamma[1:])))(w)

    def psi(self) -> float:
        """True mean untreated outcome."""
        if self.kind == "discrete-saturated":
            return psi_of(self.table)
        # the covariate marginal is centered, so beta' E[W] drops out
        return float(self.beta[0])

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing outcome makes it NaN
    def theta(self) -> float:
        """True mean untreated outcome among the treated."""
        if self.kind == "discrete-saturated":
            return theta_of(self.table)
        if self.d > MAX_QUADRATURE_DIM:
            raise ConfigError(
                f"theta's {QUADRATURE_NODES}^d quadrature grid supports "
                f"d <= {MAX_QUADRATURE_DIM}, got d = {self.d}"
            )
        w, wt = _legendre_grid(QUADRATURE_NODES, self.d)
        g = self.g(w)
        treated = wt * (1.0 - g)
        denom = float(treated.sum())
        if denom <= 0.0:
            raise NoTreatedRows("DGP assigns no mass to the treated arm")
        return float((treated * self.q(w)).sum() / denom)

    def truth(self, estimand: str) -> float:
        _check_estimand(estimand)
        return self.psi() if estimand == "psi" else self.theta()


def default_logistic_linear() -> DGPSpec:
    """The standard two-covariate benchmark process."""
    return DGPSpec()


@functools.lru_cache(maxsize=64)
def _legendre_rule(nodes: int):
    """The 1-D Gauss-Legendre nodes and weights over [-1, 1], weights summing to 1,
    as read-only arrays computed once per node count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    w = w / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre_grid(nodes: int, d: int):
    """Tensor Gauss-Legendre nodes/weights over [-1, 1]^d, weights summing to 1."""
    x, w = _legendre_rule(nodes)
    mesh = np.meshgrid(*[x] * d, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=1)
    weights = np.ones(1)
    for _ in range(d):
        weights = np.multiply.outer(weights, w).reshape(-1)
    return points, weights


def generate(dgp: DGPSpec, n: int, seed) -> Dataset:
    """Draw n i.i.d. rows; deterministic given (dgp, n, seed)."""
    data, _ = generate_with_counterfactual(dgp, n, seed)
    return data


def generate_with_counterfactual(dgp: DGPSpec, n: int, seed):
    """Like :func:`generate`, also returning the untreated potential outcome.

    The counterfactual vector is for validating truths in tests; estimators
    only ever see the returned Dataset.  Under a finite-support law, a
    treated row whose covariate stratum has no untreated mass gets NaN.
    """
    rng = _rng(n, seed)
    if dgp.kind == "discrete-saturated":
        return _draw_discrete(dgp.table, n, rng)
    d = dgp.d
    w = rng.uniform(-1.0, 1.0, size=(n, d))
    g = dgp.g(w)
    treated = rng.uniform(size=n) >= g
    with np.errstate(over="ignore", invalid="ignore"):  # Dataset refuses an overflowed outcome
        q = dgp.q(w)
    y0 = q + dgp.noise_sd * rng.standard_normal(n)
    y1 = q + dgp.treated_shift + dgp.noise_sd * rng.standard_normal(n)
    return Dataset._owning(w, treated.astype(np.int64), np.where(treated, y1, y0)), y0


def _rng(n, seed):
    """The generator for a draw of ``n`` rows: ``n`` an integer >= 1, ``seed`` an
    integer >= 0 or the SeedSequence a study passes."""
    if not (_is_int(n) and n >= 1):
        raise ConfigError(f"sample size must be a positive integer, got {n!r}")
    if not (isinstance(seed, np.random.SeedSequence) or (_is_int(seed) and seed >= 0)):
        raise ConfigError(f"seed must be a non-negative integer or a SeedSequence, got {seed!r}")
    return np.random.default_rng(seed)


def _draw_discrete(table: FiniteDistribution, n: int, rng):
    t = table.support_table
    stratum, atom_a, atom_y, masses = t.atom_stratum, t.atom_a, t.atom_y, t.atom_p
    idx = rng.choice(len(masses), size=n, p=masses / masses.sum())
    a = atom_a[idx]
    is_treated = a == 1
    # a treated row's counterfactual y0 is a draw from the untreated law of
    # its stratum.  Atoms are sorted by (w, a, y), so each stratum's
    # untreated atoms are contiguous: [first, first + untreated count).
    first = np.searchsorted(stratum, stratum)
    stop = first + np.bincount(stratum, weights=atom_a == 0).astype(np.int64)[stratum]
    untreated_mass = np.where(atom_a == 0, masses, 0.0)
    upper = np.cumsum(untreated_mass)
    lower = upper - untreated_mass
    treated = idx[is_treated]
    first, stop = first[treated], stop[treated]
    last = np.maximum(stop - 1, first)
    # inverse CDF of the stratum's untreated masses, clipped against rounding
    target = lower[first] + rng.random(len(treated)) * (upper[last] - lower[first])
    pick = np.clip(np.searchsorted(upper, target, side="right"), first, last)
    y = atom_y[idx]
    y0 = y.copy()
    # a stratum without untreated atoms has no counterfactual law
    y0[is_treated] = np.where(stop > first, atom_y[pick], np.nan)
    return Dataset._owning(t.atom_w[idx], a, y), y0


def draw_dataset(dist: FiniteDistribution, n: int, seed) -> Dataset:
    """Sample n rows i.i.d. from a finite-support law."""
    data, _ = _draw_discrete(dist, n, _rng(n, seed))
    return data


def quadrature_distribution(dgp: DGPSpec, nodes: int = 24) -> FiniteDistribution:
    """Finite-support stand-in for a logistic-linear DGP.

    Atoms sit on the tensor quadrature grid with noise-free conditional
    outcomes, so the exact finite-support machinery reproduces smooth-law
    expectations to quadrature precision while every within-table identity
    remains exact.
    """
    if dgp.kind != "logistic-linear":
        raise ConfigError("quadrature tables only apply to logistic-linear DGPs")
    if not (_is_int(nodes) and nodes >= 1):
        raise ConfigError(f"'nodes' must be an integer >= 1, got {nodes!r}")
    points, weights = _legendre_grid(nodes, dgp.d)
    g = dgp.g(points)
    q = dgp.q(points)
    # an untreated and a treated atom at each node
    return _law(np.repeat(points, 2, axis=0), np.tile(np.array([0, 1]), len(points)),
                np.column_stack([q, q + dgp.treated_shift]).ravel(),
                np.column_stack([weights * g, weights * (1.0 - g)]).ravel())


# ---------------------------------------------------------------------------
# replication machinery


class _Study:
    """A study's summary; ``to_dict`` leaves its replications out."""

    def to_dict(self) -> dict:
        return fields_dict(self, omit=("replications",))


@dataclass(frozen=True)
class ReplicationResult:
    rep: int
    n: int
    point: float
    variance: float
    ci_low: float
    ci_high: float
    covered: bool
    scaled_error: float

    # the names of to_row's values, in order: a replication row's header
    COLUMNS = ("rep", "n", "point", "variance", "covered", "scaled_error")

    def to_row(self) -> tuple:
        return tuple(getattr(self, name) for name in self.COLUMNS)


def _replication_worker(task):
    dgp, config, n, master_seed, rep, truth_value = task
    try:
        data = generate(dgp, n, np.random.SeedSequence([master_seed, rep]))
        report = estimate(data, config, truth=(dgp.q, dgp.g))
        lo, hi = report.ci_low, report.ci_high
        covered = bool(math.isfinite(lo) and lo <= truth_value <= hi)
        scaled = math.sqrt(n) * (report.point - truth_value)
        return ("ok", ReplicationResult(rep, n, report.point, report.variance,
                                        lo, hi, covered, scaled))
    except (EifkitError, ValueError, ArithmeticError, np.linalg.LinAlgError) as err:
        # one bad draw is a recorded failure, never the end of the study
        return ("fail", rep, f"{type(err).__name__}: {err}")


def _run_tasks(tasks, workers: int):
    # the pool starts all its processes at once, so it gets no more than
    # the machine's cores or the tasks; results do not depend on the count
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [_replication_worker(t) for t in tasks]
    # imported here: concurrent.futures and multiprocessing cost every CLI
    # call about 20 ms of import, and only a study with workers > 1 uses them
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 8))
        return list(pool.map(_replication_worker, tasks, chunksize=chunk))


def _run_grid(dgp: DGPSpec, config: EstimatorConfig, grid, reps: int,
              master_seed: int, workers: int, need: int, what: str):
    """``reps`` replications at each n of ``grid``, numbered consecutively.

    ``grid`` is increasing, so its first size is the smallest.  Returns the
    truth, each size's successful results in replication order, and the
    number of failures.  A size with fewer than ``need`` successes raises
    ConfigError: ``what``, formatted with that n, and its first failure.
    """
    for value, minimum, name in ((master_seed, 0, "master seed must be a non-negative integer"),
                                 (workers, 1, "workers must be a positive integer"),
                                 (reps, 2, "'reps' must be an integer >= 2")):
        if not (_is_int(value) and value >= minimum):
            raise ConfigError(f"{name}, got {value!r}")
    config.fold_plan(grid[0])  # refuses more folds than the smallest sample's rows
    truth_value = dgp.truth(config.estimand)
    sizes = [n for n in grid for _ in range(reps)]
    tasks = [(dgp, config, n, master_seed, rep, truth_value) for rep, n in enumerate(sizes)]
    outcomes = _run_tasks(tasks, workers)
    by_n = []
    for i, n in enumerate(grid):
        at_n = outcomes[i * reps:(i + 1) * reps]
        results = [out[1] for out in at_n if out[0] == "ok"]
        if len(results) < need:
            # reps >= 2 >= need, so a size short of successes has a failure
            _, rep, message = next(out for out in at_n if out[0] == "fail")
            raise ConfigError(f"{what.format(n=n)}; first failure, replication {rep}: {message}")
        by_n.append(results)
    return truth_value, by_n, len(sizes) - sum(map(len, by_n))


# ---------------------------------------------------------------------------
# coverage study


@dataclass(frozen=True)
class CoverageSummary(_Study):
    """Aggregate coverage and normality diagnostics for one configuration."""

    estimand: str
    estimator: str
    n: int
    reps: int
    level: float
    truth: float
    coverage: float
    mc_standard_error: float
    mean_scaled_error: float
    var_scaled_error: float
    skewness: float
    excess_kurtosis: float
    mean_scaled_variance: float
    ks_distance: float
    ks_critical_1pct: float
    ks_flag: bool
    failures: int
    replications: tuple


def ks_distance(x, sd: float) -> float:
    """One-sample Kolmogorov-Smirnov distance of x from N(0, sd^2): max(D+, D-)."""
    z = np.sort(np.asarray(x, dtype=float)) / sd
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    m = len(cdf)
    d_plus = np.max(np.arange(1, m + 1) / m - cdf)
    d_minus = np.max(cdf - np.arange(m) / m)
    return float(max(d_plus, d_minus))


def standardized_moments(x):
    """Biased skewness m3 / m2^1.5 and excess kurtosis m4 / m2^2 - 3 of x.

    Both are NaN when m2 is zero to rounding, m2 <= (eps * mean)^2 as in
    scipy, and for a constant sample, whose rounded mean can leave an m2
    just above that bound.
    """
    x = np.asarray(x, dtype=float)
    mean = x.mean()
    dev = x - mean
    sq = dev * dev
    m2 = sq.mean()
    if x.min() == x.max() or m2 <= (np.finfo(float).eps * mean) ** 2:
        return math.nan, math.nan
    return float((sq * dev).mean() / m2**1.5), float((sq * sq).mean() / m2**2 - 3.0)


def ks_critical_value(alpha: float, m: int) -> float:
    """Asymptotic one-sample Kolmogorov-Smirnov critical value."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(m)


def run_coverage(
    dgp: DGPSpec,
    config: EstimatorConfig,
    n: int,
    reps: int,
    master_seed: int,
    workers: int = 1,
) -> CoverageSummary:
    """Estimate interval coverage and check asymptotic normality.

    The scaled errors sqrt(n)*(point - truth) are compared against a
    centered normal whose variance is the replication average of n times
    the influence-function variance estimate; the KS flag fires when the
    distance exceeds the asymptotic 1% critical value.
    """
    if not (_is_int(n) and n >= 2):
        raise ConfigError(f"'n' must be an integer >= 2, got {n!r}")
    truth_value, (results,), failures = _run_grid(
        dgp, config, [n], reps, master_seed, workers, 1,
        "every replication failed; nothing to summarize")
    scaled = np.array([r.scaled_error for r in results])
    covered = np.array([r.covered for r in results], dtype=float)
    m = len(results)
    coverage = float(covered.mean())
    mc_se = math.sqrt(coverage * (1.0 - coverage) / m)
    mean_scaled_variance = float(np.mean([n * r.variance for r in results]))
    sd = math.sqrt(mean_scaled_variance) if mean_scaled_variance > 0 else float("nan")
    ks = ks_distance(scaled, sd) if math.isfinite(sd) else math.nan
    ks_crit = ks_critical_value(0.01, m)
    skewness, excess_kurtosis = standardized_moments(scaled)
    return CoverageSummary(
        estimand=config.estimand,
        estimator=config.estimator,
        n=n,
        reps=reps,
        level=config.level,
        truth=truth_value,
        coverage=coverage,
        mc_standard_error=mc_se,
        mean_scaled_error=float(scaled.mean()),
        var_scaled_error=float(scaled.var(ddof=1)) if m > 1 else math.nan,
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        mean_scaled_variance=mean_scaled_variance,
        ks_distance=ks,
        ks_critical_1pct=ks_crit,
        ks_flag=bool(math.isfinite(ks) and ks > ks_crit),
        failures=failures,
        replications=tuple(results),
    )


# ---------------------------------------------------------------------------
# convergence-rate study


@dataclass(frozen=True)
class RateExperimentReport(_Study):
    """Root-mean-square error along a sample-size grid, with fitted slope."""

    estimand: str
    estimator: str
    n_grid: tuple
    reps: int
    truth: float
    rmse_by_n: tuple
    mean_scaled_error_by_n: tuple
    var_scaled_error_by_n: tuple
    slope: float
    failures: int
    replications: tuple


def run_rate_experiment(
    dgp: DGPSpec,
    config: EstimatorConfig,
    n_grid: Sequence[int],
    reps: int,
    master_seed: int,
    workers: int = 1,
) -> RateExperimentReport:
    """RMSE(n) over the grid and the least-squares slope of log RMSE on log n,
    which a zero RMSE leaves undefined (ConfigError)."""
    grid = _check_n_grid(n_grid)
    truth_value, by_n, failures = _run_grid(dgp, config, grid, reps, master_seed, workers, 1,
                                            "all replications failed at n={n}")
    rmse, mean_scaled, var_scaled = [], [], []
    for results in by_n:
        errs = np.array([r.point - truth_value for r in results])
        scaled = np.array([r.scaled_error for r in results])
        rmse.append(float(np.sqrt(np.mean(errs**2))))
        mean_scaled.append(float(scaled.mean()))
        var_scaled.append(float(scaled.var(ddof=1)) if scaled.size > 1 else math.nan)
    return RateExperimentReport(
        estimand=config.estimand,
        estimator=config.estimator,
        n_grid=tuple(grid),
        reps=reps,
        truth=truth_value,
        rmse_by_n=tuple(rmse),
        mean_scaled_error_by_n=tuple(mean_scaled),
        var_scaled_error_by_n=tuple(var_scaled),
        slope=_loglog_slope(grid, rmse, "RMSE"),
        failures=failures,
        replications=tuple(r for results in by_n for r in results),
    )


# ---------------------------------------------------------------------------
# double-robustness study


@dataclass(frozen=True)
class DrConsistencyReport(_Study):
    """Bias of the one-step under targeted nuisance misspecification."""

    estimand: str
    arm: str
    n_grid: tuple
    reps: int
    truth: float
    bias_by_n: tuple
    mc_se_by_n: tuple
    failures: int
    replications: tuple


def dr_arm_specs(arm: str):
    """The (q, g) learner pair of one arm of ``DR_ARMS``.

    A side the arm names as wrong (``<side>-wrong`` or ``both-wrong``) is
    ``misspecified-omit``: it omits the first covariate, which the benchmark
    DGP loads on both nuisances, so it converges to a genuinely wrong limit.
    Every other side is EstimatorConfig's default, correctly specified.
    """
    if not (isinstance(arm, str) and arm in DR_ARMS):
        raise ConfigError(f"unknown misspecification arm {arm!r}")
    default = EstimatorConfig()
    return tuple(LearnerSpec("misspecified-omit") if arm in (f"{side}-wrong", "both-wrong")
                 else getattr(default, f"spec_{side}") for side in "qg")


def run_dr_consistency(
    dgp: DGPSpec,
    arm: str,
    n_grid: Sequence[int],
    reps: int,
    master_seed: int,
    workers: int = 1,
    estimand: str = "psi",
) -> DrConsistencyReport:
    """One-step bias curve for a single misspecification arm."""
    spec_q, spec_g = dr_arm_specs(arm)
    config = EstimatorConfig(estimand=estimand, estimator="onestep",
                             spec_q=spec_q, spec_g=spec_g)
    grid = _check_n_grid(n_grid)
    truth_value, by_n, failures = _run_grid(dgp, config, grid, reps, master_seed, workers, 2,
                                            "not enough successful replications at n={n}")
    bias, mc_se = [], []
    for results in by_n:
        points = np.array([r.point for r in results])
        bias.append(float(points.mean() - truth_value))
        mc_se.append(float(points.std(ddof=1) / math.sqrt(points.size)))
    return DrConsistencyReport(
        estimand=estimand,
        arm=arm,
        n_grid=tuple(grid),
        reps=reps,
        truth=truth_value,
        bias_by_n=tuple(bias),
        mc_se_by_n=tuple(mc_se),
        failures=failures,
        replications=tuple(r for results in by_n for r in results),
    )
