"""Seeded Monte Carlo studies: coverage, convergence rates, double robustness.

Two data-generating processes are supported.

``logistic-linear``
    W ~ Uniform[-1, 1]^d, Pr(A=0 | W=w) = expit(gamma0 + gamma'w), and
    Y = beta0 + beta'w + noise for untreated rows (treated rows get a
    constant shift; their outcomes never enter the estimators).  The mean
    untreated outcome is beta0 + beta'E[W] = beta0 in closed form; the
    treated-subpopulation version integrates the covariate law among the
    treated by tensor Gauss-Legendre quadrature.

``discrete-saturated``
    An explicit finite-support joint law; truths come from the exact
    finite-distribution functionals.

Replication streams are derived by hashing (master_seed, replication id)
through numpy's SeedSequence, so runs are bit-reproducible for any worker
count and doubling the replication count reproduces the original prefix.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit
from scipy.stats import kstest, kurtosis, skew

from .distributions import FiniteDistribution, fields_dict, psi_of, theta_of
from .errors import ConfigError, EifkitError, NoTreatedRows
from .estimators import EstimatorConfig, estimate
from .decomposition import _check_n_grid, truth_functions
from .learners import Dataset, LearnerSpec, _predictor

__all__ = [
    "DGPSpec",
    "EstimatorConfig",
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
]

QUADRATURE_NODES = 48
# theta's tensor grid has QUADRATURE_NODES**d points: 5.3 M at d = 4, while
# d = 5 would need about 10 GB
MAX_QUADRATURE_DIM = 4
DR_ARMS = ("none", "q-wrong", "g-wrong", "both-wrong")


# ---------------------------------------------------------------------------
# data-generating processes


@dataclass(frozen=True)
class DGPSpec:
    """Immutable description of a data-generating process.

    For ``logistic-linear``, ``gamma`` and ``beta`` are intercept-first
    coefficient vectors of length d+1.  For ``discrete-saturated``,
    ``table`` holds the exact joint law and the coefficient fields are
    ignored.
    """

    kind: str = "logistic-linear"
    gamma: tuple = (0.0, 0.8, -0.8)
    beta: tuple = (1.0, 1.0, 0.5)
    noise_sd: float = 1.0
    treated_shift: float = 1.0
    table: Optional[FiniteDistribution] = None

    def __post_init__(self):
        if self.kind not in ("logistic-linear", "discrete-saturated"):
            raise ConfigError(f"unknown DGP kind {self.kind!r}")
        if self.kind == "logistic-linear":
            gamma = tuple(float(v) for v in self.gamma)
            beta = tuple(float(v) for v in self.beta)
            if len(gamma) != len(beta) or len(gamma) < 2:
                raise ConfigError("gamma and beta must share a length of at least 2")
            if not self.noise_sd >= 0.0:
                raise ConfigError(f"noise sd must be nonnegative, got {self.noise_sd!r}")
            object.__setattr__(self, "gamma", gamma)
            object.__setattr__(self, "beta", beta)
        else:
            if self.table is None:
                raise ConfigError("discrete-saturated DGP needs an atom table")

    @property
    def d(self) -> int:
        if self.kind == "discrete-saturated":
            return len(self.table.w_support[0])
        return len(self.beta) - 1

    # -- truth functions ---------------------------------------------------

    def q(self, w):
        """True untreated-outcome regression, vectorized over rows."""
        return self._truth[0](w)

    def g(self, w):
        """True untreated propensity Pr(A=0 | W=w), vectorized over rows."""
        return self._truth[1](w)

    @functools.cached_property
    def _truth(self):
        # built once per spec; __getstate__ drops it, because closures do
        # not pickle and the studies send specs to worker processes
        if self.kind == "discrete-saturated":
            return truth_functions(self.table)
        beta0, beta = self.beta[0], np.array(self.beta[1:])
        gamma0, gamma = self.gamma[0], np.array(self.gamma[1:])
        return (_predictor(lambda w: beta0 + w @ beta),
                _predictor(lambda w: expit(gamma0 + w @ gamma)))

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_truth", None)
        return state

    def psi(self) -> float:
        """True mean untreated outcome."""
        if self.kind == "discrete-saturated":
            return psi_of(self.table)
        # the covariate marginal is centered, so beta' E[W] drops out
        return float(self.beta[0])

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
        return self.psi() if estimand == "psi" else self.theta()


def default_logistic_linear() -> DGPSpec:
    """The standard two-covariate benchmark process."""
    return DGPSpec()


def _legendre_grid(nodes: int, d: int):
    """Tensor Gauss-Legendre nodes/weights over [-1, 1]^d, weights summing to 1."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    w = w / 2.0
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
    if n < 1:
        raise ConfigError(f"sample size must be positive, got {n!r}")
    rng = np.random.default_rng(seed)
    if dgp.kind == "discrete-saturated":
        return _draw_discrete(dgp.table, n, rng)
    d = dgp.d
    w = rng.uniform(-1.0, 1.0, size=(n, d))
    g = dgp.g(w)
    a = (rng.uniform(size=n) >= g).astype(np.int64)
    q = dgp.q(w)
    y0 = q + dgp.noise_sd * rng.standard_normal(n)
    y1 = q + dgp.treated_shift + dgp.noise_sd * rng.standard_normal(n)
    y = np.where(a == 0, y0, y1)
    return Dataset(w=w, a=a, y=y), y0


def _draw_discrete(table: FiniteDistribution, n: int, rng):
    masses = np.array([p for _, p in table.atoms])
    idx = rng.choice(len(table.atoms), size=n, p=masses / masses.sum())
    atom_w = np.array([obs.w for obs, _ in table.atoms], dtype=float)
    atom_a = np.array([obs.a for obs, _ in table.atoms], dtype=np.int64)
    atom_y = np.array([obs.y for obs, _ in table.atoms], dtype=float)
    a = atom_a[idx]
    # a treated row's counterfactual y0 is a draw from the untreated law of
    # its stratum.  Atoms are sorted by (w, a, y), so each stratum's
    # untreated atoms are contiguous: [first, first + untreated count).
    new_stratum = np.concatenate([[True], (atom_w[1:] != atom_w[:-1]).any(axis=1)])
    stratum = np.cumsum(new_stratum) - 1
    first = np.flatnonzero(new_stratum)[stratum]
    stop = first + np.bincount(stratum, weights=atom_a == 0).astype(np.int64)[stratum]
    untreated_mass = np.where(atom_a == 0, masses, 0.0)
    upper = np.cumsum(untreated_mass)
    lower = upper - untreated_mass
    treated = idx[a == 1]
    first, stop = first[treated], stop[treated]
    last = np.maximum(stop - 1, first)
    # inverse CDF of the stratum's untreated masses, clipped against rounding
    target = lower[first] + rng.random(len(treated)) * (upper[last] - lower[first])
    pick = np.clip(np.searchsorted(upper, target, side="right"), first, last)
    y0 = atom_y[idx]
    # a stratum without untreated atoms has no counterfactual law
    y0[a == 1] = np.where(stop > first, atom_y[pick], np.nan)
    return Dataset(w=atom_w[idx], a=a, y=atom_y[idx]), y0


def draw_dataset(dist: FiniteDistribution, n: int, seed) -> Dataset:
    """Sample n rows i.i.d. from a finite-support law."""
    rng = np.random.default_rng(seed)
    data, _ = _draw_discrete(dist, n, rng)
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
    points, weights = _legendre_grid(nodes, dgp.d)
    g = dgp.g(points)
    q = dgp.q(points)
    atoms = []
    for i in range(len(points)):
        w = tuple(float(x) for x in points[i])
        atoms.append(((w, 0, float(q[i])), float(weights[i] * g[i])))
        atoms.append(((w, 1, float(q[i] + dgp.treated_shift)), float(weights[i] * (1.0 - g[i]))))
    return FiniteDistribution(atoms)


# ---------------------------------------------------------------------------
# replication machinery


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

    def to_row(self) -> tuple:
        return (self.rep, self.n, self.point, self.variance,
                self.covered, self.scaled_error)


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
    except EifkitError as err:
        return ("fail", rep, f"{type(err).__name__}: {err}")


def _run_tasks(tasks, workers: int):
    if workers <= 1:
        return [_replication_worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 8))
        return list(pool.map(_replication_worker, tasks, chunksize=chunk))


def _split_outcomes(outcomes):
    results, failures = [], []
    for out in outcomes:
        if out[0] == "ok":
            results.append(out[1])
        else:
            failures.append((out[1], out[2]))
    return results, failures


def _run_grid(dgp: DGPSpec, config: EstimatorConfig, n_grid, reps: int,
              master_seed: int, workers: int):
    """``reps`` replications at each n of the grid, numbered consecutively.

    Returns the grid, the truth, the successful results and the failures.
    """
    grid = _check_n_grid(n_grid)
    config.check_folds(grid[0])
    truth_value = dgp.truth(config.estimand)
    sizes = [n for n in grid for _ in range(reps)]
    tasks = [(dgp, config, n, master_seed, rep, truth_value) for rep, n in enumerate(sizes)]
    results, failures = _split_outcomes(_run_tasks(tasks, workers))
    return grid, truth_value, results, failures


# ---------------------------------------------------------------------------
# coverage study


@dataclass(frozen=True)
class CoverageSummary:
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

    def to_dict(self) -> dict:
        return fields_dict(self, omit=("replications",))


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
    if reps < 2:
        raise ConfigError("coverage study needs at least 2 replications")
    config.check_folds(n)
    truth_value = dgp.truth(config.estimand)
    tasks = [(dgp, config, n, master_seed, rep, truth_value) for rep in range(reps)]
    results, failures = _split_outcomes(_run_tasks(tasks, workers))
    if not results:
        raise ConfigError("every replication failed; nothing to summarize")
    scaled = np.array([r.scaled_error for r in results])
    covered = np.array([r.covered for r in results], dtype=float)
    m = len(results)
    coverage = float(covered.mean())
    mc_se = math.sqrt(coverage * (1.0 - coverage) / m)
    mean_scaled_variance = float(np.mean([n * r.variance for r in results]))
    sd = math.sqrt(mean_scaled_variance) if mean_scaled_variance > 0 else float("nan")
    if math.isfinite(sd):
        ks_distance = float(kstest(scaled, "norm", args=(0.0, sd)).statistic)
    else:
        ks_distance = float("nan")
    ks_crit = ks_critical_value(0.01, m)
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
        var_scaled_error=float(scaled.var(ddof=1)),
        skewness=float(skew(scaled)),
        excess_kurtosis=float(kurtosis(scaled)),
        mean_scaled_variance=mean_scaled_variance,
        ks_distance=ks_distance,
        ks_critical_1pct=ks_crit,
        ks_flag=bool(math.isfinite(ks_distance) and ks_distance > ks_crit),
        failures=len(failures),
        replications=tuple(results),
    )


# ---------------------------------------------------------------------------
# convergence-rate study


@dataclass(frozen=True)
class RateExperimentReport:
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

    def to_dict(self) -> dict:
        return fields_dict(self, omit=("replications",))


def run_rate_experiment(
    dgp: DGPSpec,
    config: EstimatorConfig,
    n_grid: Sequence[int],
    reps: int,
    master_seed: int,
    workers: int = 1,
) -> RateExperimentReport:
    """RMSE(n) over the grid and the least-squares slope of log RMSE on log n."""
    grid, truth_value, results, failures = _run_grid(dgp, config, n_grid, reps,
                                                     master_seed, workers)
    rmse, mean_scaled, var_scaled = [], [], []
    for n in grid:
        errs = np.array([r.point - truth_value for r in results if r.n == n])
        if errs.size == 0:
            raise ConfigError(f"all replications failed at n={n}")
        rmse.append(float(np.sqrt(np.mean(errs**2))))
        scaled = math.sqrt(n) * errs
        mean_scaled.append(float(scaled.mean()))
        var_scaled.append(float(scaled.var(ddof=1)))
    slope = float(np.polyfit(np.log(grid), np.log(rmse), 1)[0])
    return RateExperimentReport(
        estimand=config.estimand,
        estimator=config.estimator,
        n_grid=tuple(grid),
        reps=reps,
        truth=truth_value,
        rmse_by_n=tuple(rmse),
        mean_scaled_error_by_n=tuple(mean_scaled),
        var_scaled_error_by_n=tuple(var_scaled),
        slope=slope,
        failures=len(failures),
        replications=tuple(results),
    )


# ---------------------------------------------------------------------------
# double-robustness study


@dataclass(frozen=True)
class DrConsistencyReport:
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

    def to_dict(self) -> dict:
        return fields_dict(self, omit=("replications",))


def dr_arm_specs(arm: str):
    """Learner pair for one misspecification arm.

    Misspecified sides omit the first covariate, which the benchmark DGP
    loads on both nuisances, so the wrong side converges to a genuinely
    wrong limit while the other side stays correctly specified.
    """
    good_q = LearnerSpec("linear-ols")
    good_g = LearnerSpec("logistic-irls")
    bad_q = LearnerSpec("misspecified-omit")
    bad_g = LearnerSpec("misspecified-omit")
    table = {
        "none": (good_q, good_g),
        "q-wrong": (bad_q, good_g),
        "g-wrong": (good_q, bad_g),
        "both-wrong": (bad_q, bad_g),
    }
    try:
        return table[arm]
    except KeyError:
        raise ConfigError(f"unknown misspecification arm {arm!r}") from None


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
    grid, truth_value, results, failures = _run_grid(dgp, config, n_grid, reps,
                                                     master_seed, workers)
    bias, mc_se = [], []
    for n in grid:
        points = np.array([r.point for r in results if r.n == n])
        if points.size < 2:
            raise ConfigError(f"not enough successful replications at n={n}")
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
        failures=len(failures),
        replications=tuple(results),
    )
