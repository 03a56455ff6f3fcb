"""Plug-in, IPW, and one-step estimators, with optional K-fold cross-fitting.

:func:`estimate` runs the estimator an :class:`EstimatorConfig` names; the
CLI and the Monte Carlo studies both go through it.

The one-step estimator for the mean untreated outcome is the augmented IPW
average

    (1/n) sum_i  I(A_i=0)/ghat(W_i) * (Y_i - qhat(W_i)) + qhat(W_i),

equivalently the plug-in plus the sample mean of the estimated influence
function.  For the treated-subpopulation variant the treated fraction is
always the *empirical* P_n(A), never an estimate of Pr(A=1):

    (1/n) sum_i  I(A_i=0)/P_n(A) * (1-ghat)/ghat * (Y_i - qhat)
               + I(A_i=1)/P_n(A) * qhat(W_i).

Reported influence values are centered at the point estimate, so their mean
is exactly zero and the variance estimate (1/n^2) * sum phi_i^2 coincides
with (sample variance)/n.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.stats import norm

from .decomposition import truth_functions
from .distributions import FiniteDistribution, Observation
from .errors import ConfigError, EifkitError, EmptyEif, NoTreatedRows, ZeroMassConditioning
from .learners import (
    Dataset,
    FittedNuisance,
    LearnerSpec,
    _is_int,
    _is_real,
    fit_nuisance,
    fit_side,
)

__all__ = [
    "FoldPlan",
    "EstimateReport",
    "EstimatorConfig",
    "estimate",
    "plugin_psi",
    "ipw_psi",
    "onestep_psi",
    "onestep_theta",
    "variance_and_ci",
    "crossfit",
    "empirical_distribution",
    "saturated_nuisance",
]


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic K-fold assignment.

    The assignment vector is a pure function of (n, K, seed): a seeded
    permutation dealt round-robin, so fold sizes differ by at most one.
    """

    n: int
    folds: int
    seed: int
    assignment: np.ndarray

    @classmethod
    def build(cls, n: int, folds: int, seed: int) -> "FoldPlan":
        if folds < 2 or folds > n:
            raise ValueError(f"need 2 <= K <= n, got K={folds}, n={n}")
        order = np.random.default_rng(np.random.SeedSequence([seed, n, folds])).permutation(n)
        assignment = np.empty(n, dtype=np.int64)
        assignment[order] = np.arange(n) % folds
        assignment.setflags(write=False)
        return cls(n=n, folds=folds, seed=seed, assignment=assignment)

    def fold_sizes(self) -> list:
        return [int((self.assignment == k).sum()) for k in range(self.folds)]


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run, and how.

    ``folds`` >= 2 cross-fits the one-step estimator over a fold plan seeded
    by ``fold_seed``; 0 or 1 fits the nuisances once on the whole sample.
    Plug-in and IPW fit only the nuisance they use and ignore the folds.
    """

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
        for side in ("spec_q", "spec_g"):
            if not isinstance(getattr(self, side), LearnerSpec):
                raise ConfigError(f"{side} must be a LearnerSpec, got {getattr(self, side)!r}")
        if not (_is_real(self.level) and 0.0 < self.level < 1.0):
            raise ConfigError(f"confidence level must lie in (0, 1), got {self.level!r}")
        # FoldPlan seeds numpy's SeedSequence, which takes no negative entropy
        for name in ("folds", "fold_seed"):
            if not (_is_int(getattr(self, name)) and getattr(self, name) >= 0):
                raise ConfigError(
                    f"{name} must be a nonnegative integer, got {getattr(self, name)!r}"
                )

    def check_folds(self, n: int) -> None:
        """Raise ConfigError when cross-fitting needs more rows than a sample of ``n``."""
        if self.folds >= 2 and self.folds > n:
            raise ConfigError(f"{self.folds} folds need at least {self.folds} rows, "
                              f"but a sample has only {n}")


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with influence-based uncertainty.

    Plug-in and IPW reports have no influence values: their variance and
    interval are NaN, and ``to_dict`` leaves those and the level out.
    """

    estimand: str
    estimator: str
    point: float
    variance: float
    ci_low: float
    ci_high: float
    level: float
    n: int
    eif_values: Optional[np.ndarray] = None
    fold_plan: Optional[FoldPlan] = None
    nuisance_specs: Optional[dict] = None

    def to_dict(self, include_eif: bool = False) -> dict:
        out = {
            "estimand": self.estimand,
            "estimator": self.estimator,
            "point": self.point,
            "n": self.n,
        }
        if self.eif_values is not None:
            out["variance"] = self.variance
            out["ci_low"] = self.ci_low
            out["ci_high"] = self.ci_high
            out["level"] = self.level
        if self.fold_plan is not None:
            out["folds"] = self.fold_plan.folds
            out["fold_seed"] = self.fold_plan.seed
        if self.nuisance_specs is not None:
            out["nuisance_specs"] = {
                side: spec.to_dict() if isinstance(spec, LearnerSpec) else spec
                for side, spec in sorted(self.nuisance_specs.items())
            }
        if include_eif and self.eif_values is not None:
            out["eif_values"] = [float(v) for v in self.eif_values]
        return out


def plugin_psi(data: Dataset, qhat: Callable) -> float:
    """Plug-in estimate: sample mean of qhat over all covariate rows."""
    return float(np.mean(qhat(data.w)))


def ipw_psi(data: Dataset, ghat: Callable) -> float:
    """Inverse-probability-weighted estimate (1/n) sum I(A=0) Y / ghat(W)."""
    g = np.asarray(ghat(data.w), dtype=float)
    if (g <= 0.0).any():
        raise ZeroMassConditioning("propensity estimate must be positive for weighting")
    ind0 = (data.a == 0).astype(float)
    return float(np.mean(ind0 * data.y / g))


def variance_and_ci(eif_values, point: float, level: float):
    """Influence-function variance estimate and normal-quantile interval.

    variance = (1/n^2) * sum_i phi_i^2 for centered values phi_i; the
    interval is point +- z_{(1+level)/2} * sqrt(variance).

    Returns
    -------
    (variance, ci_low, ci_high)
    """
    arr = np.asarray(eif_values, dtype=float)
    if arr.size == 0:
        raise EmptyEif("cannot form a variance from zero influence values")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level!r}")
    n = arr.size
    variance = float(np.sum(arr * arr)) / (n * n)
    half = float(norm.ppf(0.5 * (1.0 + level))) * math.sqrt(variance)
    return variance, point - half, point + half


def _psi_report(data: Dataset, qv, gv, level, estimator, plan=None, specs=None) -> EstimateReport:
    ind0 = (data.a == 0).astype(float)
    contrib = ind0 * (data.y - qv) / gv + qv
    point = float(np.mean(contrib))
    eif = contrib - point
    variance, lo, hi = variance_and_ci(eif, point, level)
    return EstimateReport(
        estimand="psi", estimator=estimator, point=point, variance=variance,
        ci_low=lo, ci_high=hi, level=level, n=data.n, eif_values=eif,
        fold_plan=plan, nuisance_specs=specs,
    )


def _theta_report(data: Dataset, qv, gv, level, estimator, plan=None, specs=None) -> EstimateReport:
    ind1 = (data.a == 1).astype(float)
    if not ind1.any():
        raise NoTreatedRows("treated-mean estimand needs at least one row with a = 1")
    pn_a = float(np.mean(data.a))
    ind0 = 1.0 - ind1
    contrib = (ind0 * (1.0 - gv) / gv * (data.y - qv) + ind1 * qv) / pn_a
    point = float(np.mean(contrib))
    # centering only enters through the treated indicator, matching the
    # influence function; the centered values still average to zero exactly
    eif = contrib - ind1 * (point / pn_a)
    variance, lo, hi = variance_and_ci(eif, point, level)
    return EstimateReport(
        estimand="theta", estimator=estimator, point=point, variance=variance,
        ci_low=lo, ci_high=hi, level=level, n=data.n, eif_values=eif,
        fold_plan=plan, nuisance_specs=specs,
    )


def onestep_psi(data: Dataset, nuis: FittedNuisance, level: float = 0.95) -> EstimateReport:
    """One-step estimate of the mean untreated outcome."""
    qv = np.asarray(nuis.predict_q(data.w), dtype=float)
    gv = np.asarray(nuis.predict_g(data.w), dtype=float)
    specs = {"q": nuis.spec_q, "g": nuis.spec_g}
    return _psi_report(data, qv, gv, level, "onestep", specs=specs)


def onestep_theta(data: Dataset, nuis: FittedNuisance, level: float = 0.95) -> EstimateReport:
    """One-step estimate of the mean untreated outcome among the treated."""
    qv = np.asarray(nuis.predict_q(data.w), dtype=float)
    gv = np.asarray(nuis.predict_g(data.w), dtype=float)
    specs = {"q": nuis.spec_q, "g": nuis.spec_g}
    return _theta_report(data, qv, gv, level, "onestep", specs=specs)


def crossfit(
    data: Dataset,
    spec_q: LearnerSpec,
    spec_g: LearnerSpec,
    folds: int,
    estimand: str = "psi",
    seed: int = 0,
    level: float = 0.95,
    truth=None,
) -> EstimateReport:
    """K-fold cross-fitted one-step estimate.

    Nuisances are fit on each fold's complement and evaluated on the fold;
    the point estimate pools all n per-row contributions.  The treated
    fraction for the theta estimand is the *global* empirical P_n(A).
    Bit-reproducible for a fixed (data, specs, K, seed).
    """
    if estimand not in ("psi", "theta"):
        raise ValueError(f"unknown estimand {estimand!r}")
    plan = FoldPlan.build(data.n, folds, seed)
    qv = np.empty(data.n)
    gv = np.empty(data.n)
    for k in range(plan.folds):
        test = plan.assignment == k
        train = data.subset(~test)
        try:
            nuis = fit_nuisance(train, spec_q, spec_g, truth=truth)
        except EifkitError as err:
            raise type(err)(f"fold {k}: {err}") from err
        qv[test] = nuis.predict_q(data.w[test])
        gv[test] = nuis.predict_g(data.w[test])
    specs = {"q": spec_q, "g": spec_g}
    if estimand == "psi":
        return _psi_report(data, qv, gv, level, "onestep-crossfit", plan, specs)
    return _theta_report(data, qv, gv, level, "onestep-crossfit", plan, specs)


def estimate(data: Dataset, config: EstimatorConfig, truth=None) -> EstimateReport:
    """Run the estimator that ``config`` names on ``data``.

    ``truth`` is the (q, g) pair of vectorized callables that oracle-rate
    learners perturb; data-driven learners ignore it.
    """
    if config.estimator == "onestep":
        if config.folds >= 2:
            return crossfit(data, config.spec_q, config.spec_g, config.folds,
                            estimand=config.estimand, seed=config.fold_seed,
                            level=config.level, truth=truth)
        nuis = fit_nuisance(data, config.spec_q, config.spec_g, truth=truth)
        fn = onestep_psi if config.estimand == "psi" else onestep_theta
        return fn(data, nuis, level=config.level)
    if config.estimator == "plugin":
        qhat = fit_side("q", data, config.spec_q, truth)
        if config.estimand == "psi":
            point = plugin_psi(data, qhat)
        else:
            treated = data.a == 1
            if not treated.any():
                raise NoTreatedRows("plugin treated mean needs a treated row")
            point = float(np.mean(np.asarray(qhat(data.w))[treated]))
        specs = {"q": config.spec_q}
    else:
        # ipw; EstimatorConfig admits it for psi only
        point = ipw_psi(data, fit_side("g", data, config.spec_g, truth))
        specs = {"g": config.spec_g}
    return EstimateReport(
        estimand=config.estimand, estimator=config.estimator, point=point,
        variance=math.nan, ci_low=math.nan, ci_high=math.nan, level=config.level,
        n=data.n, nuisance_specs=specs,
    )


# ---------------------------------------------------------------------------
# saturated bridge to the finite-support machinery


def empirical_distribution(data: Dataset) -> FiniteDistribution:
    """Empirical law of the sample: each distinct (w, a, y) atom gets count/n."""
    counts = Counter((tuple(data.w[i]), int(data.a[i]), float(data.y[i])) for i in range(data.n))
    n = data.n
    return FiniteDistribution(
        [(Observation(w, a, y), c / n) for (w, a, y), c in counts.items()]
    )


def saturated_nuisance(data: Dataset) -> FittedNuisance:
    """Empirical-frequency nuisances over the observed covariate strata.

    predict_q returns the exact stratum mean of Y among untreated rows and
    predict_g the exact untreated fraction per stratum, with no truncation;
    with these, the one-step point collapses to the exact functional of the
    empirical distribution.  Predictions are only defined on strata present
    in the sample (with at least one untreated row for q).
    """
    return FittedNuisance(*truth_functions(empirical_distribution(data)))
