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

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit
from scipy.stats import kstest, kurtosis, skew

from .distributions import FiniteDistribution, psi_of, theta_of
from .errors import ConfigError, EifkitError, NoTreatedRows
from .estimators import (
    crossfit,
    ipw_psi,
    onestep_psi,
    onestep_theta,
    plugin_psi,
)
from .decomposition import truth_functions
from .learners import (
    Dataset,
    LearnerSpec,
    fit_nuisance,
    fit_outcome,
    fit_propensity,
    oracle_rate_nuisance,
)

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
        if self.kind == "discrete-saturated":
            return self._table_truth()[0](w)
        arr = np.atleast_2d(np.asarray(w, dtype=float))
        out = self.beta[0] + arr @ np.array(self.beta[1:])
        return out if np.asarray(w).ndim > 1 else float(out[0])

    def g(self, w):
        """True untreated propensity Pr(A=0 | W=w), vectorized over rows."""
        if self.kind == "discrete-saturated":
            return self._table_truth()[1](w)
        arr = np.atleast_2d(np.asarray(w, dtype=float))
        out = expit(self.gamma[0] + arr @ np.array(self.gamma[1:]))
        return out if np.asarray(w).ndim > 1 else float(out[0])

    def _table_truth(self):
        return truth_functions(self.table)

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
    only ever see the returned Dataset.
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
    w = np.array([table.atoms[i][0].w for i in idx], dtype=float)
    a = np.array([table.atoms[i][0].a for i in idx], dtype=np.int64)
    y = np.array([table.atoms[i][0].y for i in idx], dtype=float)
    # the untreated conditional draw doubles as the counterfactual where
    # the realized arm was treated
    y0 = np.empty(n)
    for j, i in enumerate(idx):
        obs = table.atoms[i][0]
        if obs.a == 0:
            y0[j] = obs.y
        else:
            y0[j] = _conditional_untreated_draw(table, obs.w, rng)
    return Dataset(w=w, a=a, y=y), y0


def _conditional_untreated_draw(table: FiniteDistribution, w, rng) -> float:
    support = [(obs.y, p) for obs, p in table.atoms if obs.w == w and obs.a == 0]
    total = sum(p for _, p in support)
    ys = np.array([y for y, _ in support])
    ps = np.array([p / total for _, p in support])
    return float(rng.choice(ys, p=ps))


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
# estimator configuration


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run inside a study, and how."""

    estimand: str = "psi"
    estimator: str = "onestep"
    spec_q: LearnerSpec = LearnerSpec("linear-ols")
    spec_g: LearnerSpec = LearnerSpec("logistic-irls")
    folds: int = 0
    level: float = 0.95
    fold_seed: int = 0

    def __post_init__(self):
        if self.estimand not in ("psi", "theta"):
            raise ConfigError(f"unknown estimand {self.estimand!r}")
        if self.estimator not in ("onestep", "plugin", "ipw"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.estimator == "ipw" and self.estimand == "theta":
            raise ConfigError("the ipw estimator is only defined for the psi estimand")
        if not 0.0 < self.level < 1.0:
            raise ConfigError(f"confidence level must lie in (0, 1), got {self.level!r}")
        if self.folds < 0:
            raise ConfigError(f"folds must be nonnegative, got {self.folds!r}")


def _check_folds(config: EstimatorConfig, smallest_n: int) -> None:
    if config.folds >= 2 and config.folds > smallest_n:
        raise ConfigError(
            f"{config.folds} folds need at least {config.folds} rows, "
            f"but the smallest sample size is {smallest_n}"
        )


def _needs_truth(config: EstimatorConfig) -> bool:
    return "oracle-rate" in (config.spec_q.kind, config.spec_g.kind)


def _point_estimate(dgp: DGPSpec, config: EstimatorConfig, data: Dataset):
    truth = (dgp.q, dgp.g) if _needs_truth(config) else None
    if config.estimator == "onestep":
        if config.folds >= 2:
            report = crossfit(
                data, config.spec_q, config.spec_g, config.folds,
                estimand=config.estimand, seed=config.fold_seed,
                level=config.level, truth=truth,
            )
        else:
            nuis = fit_nuisance(data, config.spec_q, config.spec_g, truth=truth)
            fn = onestep_psi if config.estimand == "psi" else onestep_theta
            report = fn(data, nuis, level=config.level)
        return report.point, report.variance, report.ci_low, report.ci_high
    if config.estimator == "plugin":
        if config.spec_q.kind == "oracle-rate":
            qhat = oracle_rate_nuisance(dgp.q, dgp.g, data.n, config.spec_q).predict_q
        else:
            qhat = fit_outcome(data, config.spec_q)
        if config.estimand == "psi":
            point = plugin_psi(data, qhat)
        else:
            treated = data.a == 1
            if not treated.any():
                raise NoTreatedRows("plugin treated mean needs a treated row")
            point = float(np.mean(np.asarray(qhat(data.w))[treated]))
        return point, math.nan, math.nan, math.nan
    # ipw (psi only, enforced at config validation)
    if config.spec_g.kind == "oracle-rate":
        ghat = oracle_rate_nuisance(dgp.q, dgp.g, data.n, config.spec_g, config.spec_g).predict_g
    else:
        ghat = fit_propensity(data, config.spec_g)
    return ipw_psi(data, ghat), math.nan, math.nan, math.nan


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
        point, variance, lo, hi = _point_estimate(dgp, config, data)
        covered = bool(math.isfinite(lo) and lo <= truth_value <= hi)
        scaled = math.sqrt(n) * (point - truth_value)
        return ("ok", ReplicationResult(rep, n, point, variance, lo, hi, covered, scaled))
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
        return {
            "estimand": self.estimand,
            "estimator": self.estimator,
            "n": self.n,
            "reps": self.reps,
            "level": self.level,
            "truth": self.truth,
            "coverage": self.coverage,
            "mc_standard_error": self.mc_standard_error,
            "mean_scaled_error": self.mean_scaled_error,
            "var_scaled_error": self.var_scaled_error,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
            "mean_scaled_variance": self.mean_scaled_variance,
            "ks_distance": self.ks_distance,
            "ks_critical_1pct": self.ks_critical_1pct,
            "ks_flag": self.ks_flag,
            "failures": self.failures,
        }


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
    _check_folds(config, n)
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
        return {
            "estimand": self.estimand,
            "estimator": self.estimator,
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "truth": self.truth,
            "rmse_by_n": list(self.rmse_by_n),
            "mean_scaled_error_by_n": list(self.mean_scaled_error_by_n),
            "var_scaled_error_by_n": list(self.var_scaled_error_by_n),
            "slope": self.slope,
            "failures": self.failures,
        }


def run_rate_experiment(
    dgp: DGPSpec,
    config: EstimatorConfig,
    n_grid: Sequence[int],
    reps: int,
    master_seed: int,
    workers: int = 1,
) -> RateExperimentReport:
    """RMSE(n) over the grid and the least-squares slope of log RMSE on log n."""
    grid = [int(n) for n in n_grid]
    if len(grid) < 2 or sorted(set(grid)) != grid or grid[0] < 1:
        raise ConfigError("n_grid must be strictly increasing positive integers")
    _check_folds(config, grid[0])
    truth_value = dgp.truth(config.estimand)
    tasks = []
    rep_id = 0
    for n in grid:
        for _ in range(reps):
            tasks.append((dgp, config, n, master_seed, rep_id, truth_value))
            rep_id += 1
    results, failures = _split_outcomes(_run_tasks(tasks, workers))
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
        return {
            "estimand": self.estimand,
            "arm": self.arm,
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "truth": self.truth,
            "bias_by_n": list(self.bias_by_n),
            "mc_se_by_n": list(self.mc_se_by_n),
            "failures": self.failures,
        }


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
    grid = [int(n) for n in n_grid]
    if len(grid) < 2 or sorted(set(grid)) != grid or grid[0] < 1:
        raise ConfigError("n_grid must be strictly increasing positive integers")
    spec_q, spec_g = dr_arm_specs(arm)
    config = EstimatorConfig(estimand=estimand, estimator="onestep",
                             spec_q=spec_q, spec_g=spec_g)
    truth_value = dgp.truth(estimand)
    tasks = []
    rep_id = 0
    for n in grid:
        for _ in range(reps):
            tasks.append((dgp, config, n, master_seed, rep_id, truth_value))
            rep_id += 1
    results, failures = _split_outcomes(_run_tasks(tasks, workers))
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
