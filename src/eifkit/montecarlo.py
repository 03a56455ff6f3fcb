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
count.  A study numbers its replications across its grid, so a larger
``reps`` keeps its first size's replications as a prefix and renumbers
the later sizes': only a coverage study, with one size, extends as a prefix.

Every study runs through one grid routine and summarises each size's
successful replications by one measure table, ``_MEASURES``: a report
carries a measure X as a field ``X`` (one size) or ``X_by_n`` (a grid).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .distributions import (FiniteDistribution, _bit_select, _estimand, _law, _positive, _value,
                            fields_dict)
from .errors import ConfigError, EifkitError
from .estimators import EstimatorConfig, estimate
from .decomposition import _check_n_grid, _loglog_slope, truth_functions
from .learners import (Dataset, LearnerSpec, _check_fields, _int_at_least, _is_int, _is_list_of,
                       _is_real, _linear_core, _logistic_core, _predictor)

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
        """True untreated-outcome regression, vectorized over rows; on logistic-linear a
        one-row call and the same row of a batch can differ in the last bits (learners)."""
        if self.kind == "discrete-saturated":
            return truth_functions(self.table)[0](w)
        return _predictor(_linear_core(np.array(self.beta), False))(w)

    def g(self, w):
        """True untreated propensity Pr(A=0 | W=w), vectorized over rows; on logistic-linear
        a one-row call and the same row of a batch can differ in the last bits."""
        if self.kind == "discrete-saturated":
            return truth_functions(self.table)[1](w)
        return _predictor(_logistic_core(np.array(self.gamma), False))(w)

    def psi(self) -> float:
        """True mean untreated outcome."""
        return self.truth("psi")

    def theta(self) -> float:
        """True mean untreated outcome among the treated."""
        return self.truth("theta")

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing outcome makes it NaN
    def truth(self, estimand: str) -> float:
        """The value of ``estimand``, E[h q] / E[h] with its row's h = E[m | W]."""
        row = _estimand(estimand)
        if self.kind == "discrete-saturated":
            return _value(estimand, self.table)
        if not row.treated:  # h = 1 and the covariate marginal is centered: beta0
            return float(self.beta[0])
        if self.d > MAX_QUADRATURE_DIM:
            raise ConfigError(
                f"theta's {QUADRATURE_NODES}^d quadrature grid supports "
                f"d <= {MAX_QUADRATURE_DIM}, got d = {self.d}"
            )
        w, wt = _legendre_grid(QUADRATURE_NODES, self.d)
        weights = wt * row.h(self.g(w))
        return float((weights * self.q(w)).sum() / _positive(float(weights.sum())))


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
    a = (rng.uniform(size=n) >= g).astype(np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed outcome is refused below
        q = dgp.q(w)
    # y0 = q + noise_sd * e0 and y1 = (q + treated_shift) + noise_sd * e1,
    # each written into its draw e
    y0, y1 = rng.standard_normal(n), rng.standard_normal(n)
    np.add(q, np.multiply(dgp.noise_sd, y0, out=y0), out=y0)
    np.add(np.add(q, dgp.treated_shift, out=q), np.multiply(dgp.noise_sd, y1, out=y1), out=y1)
    y = _bit_select(a, y0, y1)
    if not np.isfinite(y).all():  # w and a are valid by construction
        raise ValueError("covariates and outcomes must be finite")
    return Dataset._owning(w, a, y), y0


def _rng(n, seed):
    """The generator for a draw of ``n`` rows: ``n`` an integer >= 1, ``seed`` an
    integer >= 0 or the SeedSequence a study passes."""
    _int_at_least(n, 1, "n")
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
    _int_at_least(nodes, 1, "nodes")
    points, weights = _legendre_grid(nodes, dgp.d)
    g = dgp.g(points)
    q = dgp.q(points)
    # an untreated and a treated atom at each node
    return _law(np.repeat(points, 2, axis=0), np.tile(np.array([0, 1]), len(points)),
                np.column_stack([q, q + dgp.treated_shift]).ravel(),
                np.column_stack([weights * g, weights * (1.0 - g)]).ravel())


# ---------------------------------------------------------------------------
# replication machinery


@dataclass(frozen=True)
class _Study:
    """The fields every study's report shares; ``to_dict`` leaves the replications out."""

    estimand: str
    reps: int
    truth: float
    failures: int
    replications: tuple

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


class _Columns(dict):
    """One size's m successful replications as float columns, each built on first read."""

    def __init__(self, results: list, n: int, truth: float):
        super().__init__()
        self.results, self.n, self.truth, self.m = results, n, truth, len(results)

    def __missing__(self, name: str):
        self[name] = column = np.array([getattr(r, name) for r in self.results], dtype=float)
        return column


# bias, mc_se (its Monte Carlo SE), rmse, coverage and mc_standard_error (its
# Monte Carlo SE) follow Morris, White & Crowther (2019, Table 6); each formula
# reads one size's columns c, and a spread (ddof = 1) is NaN at m = 1
_MEASURES = {
    "bias": lambda c: c["point"].mean() - c.truth,
    "mc_se": lambda c: c["point"].std(ddof=1) / math.sqrt(c.m) if c.m > 1 else math.nan,
    "rmse": lambda c: np.sqrt(np.mean((c["point"] - c.truth) ** 2)),
    "coverage": lambda c: c["covered"].mean(),
    "mc_standard_error": lambda c: math.sqrt((p := c["covered"].mean()) * (1.0 - p) / c.m),
    "mean_scaled_error": lambda c: c["scaled_error"].mean(),
    "var_scaled_error": lambda c: c["scaled_error"].var(ddof=1) if c.m > 1 else math.nan,
    "mean_scaled_variance": lambda c: np.mean(c.n * c["variance"]),
}


def _run_grid(report: type, dgp: DGPSpec, config: EstimatorConfig, grid, reps: int,
              master_seed: int, workers: int, need: int, what: str) -> dict:
    """``reps`` replications at each n of the increasing ``grid``, numbered
    consecutively: the fields every study shares and each measure the study class
    ``report`` names, its field ``X`` at the one size or ``X_by_n`` along the grid.
    A size with fewer than ``need`` successes raises ConfigError: ``what``,
    formatted with that n, and its first failure.
    """
    for value, minimum, name in ((master_seed, 0, "master_seed"), (workers, 1, "workers"),
                                 (reps, 2, "reps")):
        _int_at_least(value, minimum, name)
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
        by_n.append(_Columns(results, n, truth_value))
    replications = tuple(r for columns in by_n for r in columns.results)
    study = {"estimand": config.estimand, "reps": reps, "truth": truth_value,
             "failures": len(sizes) - len(replications), "replications": replications}
    for field in fields(report):
        measure = _MEASURES.get(field.name.removesuffix("_by_n"))
        if measure is not None:
            values = tuple(float(measure(columns)) for columns in by_n)
            study[field.name] = values if field.name.endswith("_by_n") else values[0]
    return study


# ---------------------------------------------------------------------------
# coverage study


@dataclass(frozen=True)
class CoverageSummary(_Study):
    """Aggregate coverage and normality diagnostics for one configuration."""

    estimator: str
    n: int
    level: float
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
    _int_at_least(n, 2, "n")
    study = _run_grid(CoverageSummary, dgp, config, [n], reps, master_seed, workers, 1,
                      "every replication failed; nothing to summarize")
    scaled = np.array([r.scaled_error for r in study["replications"]])
    variance = study["mean_scaled_variance"]
    sd = math.sqrt(variance) if variance > 0 else math.nan
    ks = ks_distance(scaled, sd) if math.isfinite(sd) else math.nan
    ks_crit = ks_critical_value(0.01, len(scaled))
    skewness, excess_kurtosis = standardized_moments(scaled)
    return CoverageSummary(**study, estimator=config.estimator, n=n, level=config.level,
                           skewness=skewness, excess_kurtosis=excess_kurtosis, ks_distance=ks,
                           ks_critical_1pct=ks_crit, ks_flag=ks > ks_crit)  # False at a NaN ks


# ---------------------------------------------------------------------------
# convergence-rate study


@dataclass(frozen=True)
class RateExperimentReport(_Study):
    """Root-mean-square error along a sample-size grid, with fitted slope."""

    estimator: str
    n_grid: tuple
    rmse_by_n: tuple
    mean_scaled_error_by_n: tuple
    var_scaled_error_by_n: tuple
    slope: float


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
    study = _run_grid(RateExperimentReport, dgp, config, grid, reps, master_seed, workers, 1,
                      "all replications failed at n={n}")
    return RateExperimentReport(**study, estimator=config.estimator, n_grid=tuple(grid),
                                slope=_loglog_slope(grid, study["rmse_by_n"], "RMSE"))


# ---------------------------------------------------------------------------
# double-robustness study


@dataclass(frozen=True)
class DrConsistencyReport(_Study):
    """Bias of the one-step under targeted nuisance misspecification."""

    arm: str
    n_grid: tuple
    bias_by_n: tuple
    mc_se_by_n: tuple


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
    study = _run_grid(DrConsistencyReport, dgp, config, grid, reps, master_seed, workers, 2,
                      "not enough successful replications at n={n}")
    return DrConsistencyReport(**study, arm=arm, n_grid=tuple(grid))
