"""Plug-in, IPW, and one-step estimators, with optional K-fold cross-fitting.

:func:`estimate` runs the estimator an :class:`EstimatorConfig` names; the
CLI and the Monte Carlo studies both go through it.  It fits the nuisances
the estimator reads (on each fold's complement when K >= 2, so plug-in and
IPW cross-fit as the one-step does), predicts them at every row and reports.

The one-step estimator for the mean untreated outcome is the augmented IPW
average

    (1/n) sum_i  I(A_i=0)/ghat(W_i) * (Y_i - qhat(W_i)) + qhat(W_i),

equivalently the plug-in plus the sample mean of the estimated influence
function.  For the treated-subpopulation variant the treated fraction is
always the *empirical* P_n(A), never an estimate of Pr(A=1):

    (1/n) sum_i  I(A_i=0)/P_n(A) * (1-ghat)/ghat * (Y_i - qhat)
               + I(A_i=1)/P_n(A) * qhat(W_i).

Both summands are ``distributions._influence``, the one array form of the
influence function, evaluated at centre 0.  Reported influence values are
centered at the point estimate, so their mean is exactly zero and the
variance estimate (1/n^2) * sum phi_i^2 coincides with (sample
variance)/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

from .decomposition import truth_functions
from .distributions import FiniteDistribution, _check_estimand, _influence, _key_order, _law
from .errors import ConfigError, EifkitError, EmptyEif, NoTreatedRows, ZeroMassConditioning
from .learners import (
    OUTCOME_KINDS,
    PROPENSITY_KINDS,
    Dataset,
    FittedNuisance,
    LearnerSpec,
    _is_int,
    _is_real,
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
        """The one fold rule: ConfigError unless K is an integer in [2, n] and the seed >= 0."""
        if not (_is_int(n) and _is_int(folds) and folds >= 2):
            raise ConfigError(f"need an integer 2 <= K <= n, got K={folds!r}, n={n}")
        if folds > n:
            raise ConfigError(f"{folds} folds need at least {folds} rows, "
                              f"but a sample has only {n}")
        # numpy's SeedSequence takes no negative entropy
        if not (_is_int(seed) and seed >= 0):
            raise ConfigError(f"fold seed must be a nonnegative integer, got {seed!r}")
        order = np.random.default_rng(np.random.SeedSequence([seed, n, folds])).permutation(n)
        assignment = np.empty(n, dtype=np.int64)
        assignment[order] = np.arange(n) % folds
        assignment.setflags(write=False)
        return cls(n=n, folds=folds, seed=seed, assignment=assignment)

    def fold_sizes(self) -> list:
        return [int((self.assignment == k).sum()) for k in range(self.folds)]


# the nuisance sides each estimator fits: one-step both, plug-in q, IPW g
_SIDES = {"onestep": "qg", "plugin": "q", "ipw": "g"}


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run, and how.

    ``spec_q`` takes a kind in ``OUTCOME_KINDS`` and ``spec_g`` one in
    ``PROPENSITY_KINDS``; their defaults are the one default learner pair.
    Oracle-rate learners need the truth passed to :func:`estimate`.

    ``nuisance_specs`` holds the sides the estimator fits (``_SIDES``); the
    other side's spec is checked against its side's kinds but never fitted.
    ``fold_plan(n)`` cross-fits with ``folds`` >= 2, whatever the estimator,
    over folds seeded by ``fold_seed``; 0 or 1 fits once on the whole sample.
    Every field is checked here, and a bad value raises ConfigError.
    """

    estimand: str = "psi"
    estimator: str = "onestep"
    spec_q: LearnerSpec = LearnerSpec("linear-ols")
    spec_g: LearnerSpec = LearnerSpec("logistic-irls")
    folds: int = 0
    level: float = 0.95
    fold_seed: int = 0

    def __post_init__(self):
        _check_estimand(self.estimand)
        if not (isinstance(self.estimator, str) and self.estimator in _SIDES):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.estimator == "ipw" and self.estimand == "theta":
            raise ConfigError("the ipw estimator is only defined for the psi estimand")
        for side, kinds, what in (("q", OUTCOME_KINDS, "outcome regression"),
                                  ("g", PROPENSITY_KINDS, "propensity")):
            spec = getattr(self, f"spec_{side}")
            if not isinstance(spec, LearnerSpec):
                raise ConfigError(f"spec_{side} must be a LearnerSpec, got {spec!r}")
            if spec.kind not in kinds:
                raise ConfigError(f"learner {side!r} cannot be {spec.kind!r}: the {what} "
                                  f"takes one of {list(kinds)}")
        if not (_is_real(self.level) and 0.0 < self.level < 1.0):
            raise ConfigError(f"'level' must lie in (0, 1), got {self.level!r}")
        # FoldPlan seeds numpy's SeedSequence, which takes no negative entropy
        for name in ("folds", "fold_seed"):
            if not (_is_int(getattr(self, name)) and getattr(self, name) >= 0):
                raise ConfigError(
                    f"{name!r} must be a nonnegative integer, got {getattr(self, name)!r}"
                )

    @property
    def nuisance_specs(self) -> dict:
        """The spec of each side the estimator fits, by side, q first."""
        return {side: getattr(self, f"spec_{side}") for side in _SIDES[self.estimator]}

    def fold_plan(self, n: int) -> Optional[FoldPlan]:
        """The fold plan for a sample of ``n`` rows; None when ``folds`` < 2."""
        return FoldPlan.build(n, self.folds, self.fold_seed) if self.folds >= 2 else None


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
    return _baseline_point("plugin", "psi", data, qhat(data.w))


def ipw_psi(data: Dataset, ghat: Callable) -> float:
    """Inverse-probability-weighted estimate (1/n) sum I(A=0) Y / ghat(W)."""
    return _baseline_point("ipw", "psi", data, ghat(data.w))


def _baseline_point(estimator, estimand, data: Dataset, values) -> float:
    """The plug-in (``values`` are qhat) or IPW (``values`` are ghat) point from
    nuisance values at the rows of ``data``; IPW is defined for psi only."""
    values = np.asarray(values, dtype=float)
    if estimator == "ipw":
        if (values <= 0.0).any():
            raise ZeroMassConditioning("propensity estimate must be positive for weighting")
        return float(np.mean((data.a == 0).astype(float) * data.y / values))
    if estimand == "theta":
        if not (data.a == 1).any():
            raise NoTreatedRows("plugin treated mean needs a treated row")
        values = values[data.a == 1]
    return float(np.mean(values))


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
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * math.sqrt(variance)
    return variance, point - half, point + half


def _psi_report(data: Dataset, qv, gv, level, estimator, plan=None, specs=None) -> EstimateReport:
    contrib = _influence("psi", data.a, data.y, qv, gv, 0.0, None)
    point = float(np.mean(contrib))
    return _report("psi", data, point, contrib - point, level, estimator, plan, specs)


def _theta_report(data: Dataset, qv, gv, level, estimator, plan=None, specs=None) -> EstimateReport:
    ind1 = (data.a == 1).astype(float)
    if not ind1.any():
        raise NoTreatedRows("treated-mean estimand needs at least one row with a = 1")
    pn_a = float(np.mean(data.a))
    contrib = _influence("theta", data.a, data.y, qv, gv, 0.0, pn_a)
    point = float(np.mean(contrib))
    # centering only enters through the treated indicator, matching the
    # influence function; the centered values still average to zero exactly
    eif = contrib - ind1 * (point / pn_a)
    return _report("theta", data, point, eif, level, estimator, plan, specs)


def _report(estimand, data, point, eif, level, estimator, plan, specs) -> EstimateReport:
    """The report of a point and its influence values (None for plug-in and IPW);
    a cross-fitted estimator, one with a ``plan``, is labelled ``<estimator>-crossfit``."""
    variance, lo, hi = (math.nan,) * 3 if eif is None else variance_and_ci(eif, point, level)
    return EstimateReport(
        estimand=estimand, point=point, variance=variance,
        estimator=estimator if plan is None else f"{estimator}-crossfit",
        ci_low=lo, ci_high=hi, level=level, n=data.n, eif_values=eif,
        fold_plan=plan, nuisance_specs=specs,
    )


def _onestep(estimand, data: Dataset, qv, gv, level, specs, plan=None) -> EstimateReport:
    """The one-step report of ``estimand`` from nuisance values at the rows of ``data``."""
    report = _psi_report if estimand == "psi" else _theta_report
    return report(data, qv, gv, level, "onestep", plan, specs)


def _in_sample(estimand, data: Dataset, nuis: FittedNuisance, level) -> EstimateReport:
    """The one-step report of ``estimand`` with ``nuis`` predicted at the rows of ``data``."""
    qv = np.asarray(nuis.predict_q(data.w), dtype=float)
    gv = np.asarray(nuis.predict_g(data.w), dtype=float)
    return _onestep(estimand, data, qv, gv, level, {"q": nuis.spec_q, "g": nuis.spec_g})


def onestep_psi(data: Dataset, nuis: FittedNuisance, level: float = 0.95) -> EstimateReport:
    """One-step estimate of the mean untreated outcome."""
    return _in_sample("psi", data, nuis, level)


def onestep_theta(data: Dataset, nuis: FittedNuisance, level: float = 0.95) -> EstimateReport:
    """One-step estimate of the mean untreated outcome among the treated."""
    return _in_sample("theta", data, nuis, level)


def crossfit(data: Dataset, spec_q: LearnerSpec, spec_g: LearnerSpec, folds: int,
             estimand: str = "psi", seed: int = 0, level: float = 0.95,
             truth=None) -> EstimateReport:
    """K-fold cross-fitted one-step estimate: :func:`estimate` with K >= 2 folds.

    The treated fraction for the theta estimand is the *global* empirical
    P_n(A).  Bit-reproducible for a fixed (data, specs, K, seed).
    """
    config = EstimatorConfig(estimand=estimand, spec_q=spec_q, spec_g=spec_g, folds=folds,
                             level=level, fold_seed=seed)
    if folds < 2:
        FoldPlan.build(data.n, folds, seed)  # refuses K < 2 with the fold rule's message
    return estimate(data, config, truth)


def _nuisance_values(data: Dataset, specs: dict, plan, truth) -> dict:
    """Each side in ``specs`` predicted at the rows of ``data``: fit on all rows
    without a ``plan``, else on each fold's complement and predicted on the fold."""
    if plan is None:
        fits = {side: fit_side(side, data, spec, truth) for side, spec in specs.items()}
        return {side: np.asarray(fit(data.w), dtype=float) for side, fit in fits.items()}
    values = {side: np.empty(data.n) for side in specs}
    for k in range(plan.folds):
        test = plan.assignment == k
        try:
            train = data.subset(~test)
            fits = {side: fit_side(side, train, spec, truth) for side, spec in specs.items()}
        except EifkitError as err:
            raise type(err)(f"fold {k}: {err}") from err
        w_test = data.w.compress(test, axis=0)
        for side, fit in fits.items():
            values[side][test] = fit(w_test)
    return values


def estimate(data: Dataset, config: EstimatorConfig, truth=None) -> EstimateReport:
    """Run the estimator that ``config`` names on ``data``.

    The estimator's nuisance sides are fit once, or once per fold, and
    predicted at every row; the report is formed from those values.
    ``truth`` is the (q, g) pair of vectorized callables that oracle-rate
    learners perturb; data-driven learners ignore it.
    """
    specs = config.nuisance_specs
    plan = config.fold_plan(data.n)
    values = _nuisance_values(data, specs, plan, truth)
    if config.estimator == "onestep":
        return _onestep(config.estimand, data, values["q"], values["g"], config.level, specs, plan)
    (side_values,) = values.values()  # plug-in and IPW each read one side
    point = _baseline_point(config.estimator, config.estimand, data, side_values)
    return _report(config.estimand, data, point, None, config.level, config.estimator, plan, specs)


# ---------------------------------------------------------------------------
# saturated bridge to the finite-support machinery


def empirical_distribution(data: Dataset) -> FiniteDistribution:
    """Empirical law of the sample: each distinct (w, a, y) atom gets count/n."""
    order, _, new_key = _key_order(data.w, data.a, data.y)
    first = order[new_key]  # each distinct row's first occurrence
    counts = np.diff(np.append(np.flatnonzero(new_key), data.n))
    return _law(data.w[first], data.a[first], data.y[first], counts / data.n)


def saturated_nuisance(data: Dataset) -> FittedNuisance:
    """Empirical-frequency nuisances over the observed covariate strata.

    predict_q returns the exact stratum mean of Y among untreated rows and
    predict_g the exact untreated fraction per stratum, with no truncation;
    with these, the one-step point collapses to the exact functional of the
    empirical distribution.  Predictions are only defined on strata present
    in the sample (with at least one untreated row for q).
    """
    return FittedNuisance(*truth_functions(empirical_distribution(data)))
