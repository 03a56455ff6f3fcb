"""Estimator oracles: hand-computed points, collapse, cross-fit plumbing."""

import importlib.util
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import norm

from eifkit import (
    Dataset,
    DGPSpec,
    EstimatorConfig,
    LearnerSpec,
    crossfit,
    empirical_distribution,
    estimate,
    generate,
    ipw_psi,
    onestep_psi,
    onestep_theta,
    plugin_psi,
    psi_of,
    saturated_nuisance,
    theta_of,
    variance_and_ci,
)
from eifkit import estimators
from eifkit.estimators import FoldPlan
from eifkit.decomposition import decompose_error, truth_functions
from eifkit.distributions import FiniteDistribution
from eifkit.learners import (FittedNuisance, fit_nuisance, fit_outcome, fit_propensity, fit_side,
                             logistic)
from eifkit.errors import (ConfigError, EifkitError, EmptyEif, InvalidLearnerSpec, NoTreatedRows,
                           PositivityViolation, ZeroMassConditioning)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

Z_975 = 1.959963984540054  # standard normal 97.5% quantile


def _dataset(w, a, y):
    return Dataset(w=np.asarray(w, dtype=float),
                   a=np.asarray(a, dtype=np.int64),
                   y=np.asarray(y, dtype=float))


def _const_nuisance(q, g):
    return FittedNuisance(
        predict_q=lambda w: np.full(len(np.atleast_2d(w)), float(q)),
        predict_g=lambda w: np.full(len(np.atleast_2d(w)), float(g)),
    )


# ---------------------------------------------------------------------------
# plug-in and weighting baselines


def test_plugin_is_mean_of_predictions():
    data = _dataset([[0.0], [1.0], [2.0]], [0, 1, 0], [10.0, 20.0, 30.0])
    assert plugin_psi(data, lambda w: np.atleast_2d(w)[:, 0] * 2.0) == pytest.approx(2.0)


def test_ipw_hand_computed():
    # (1/4) * [1*2/0.5 + 0 + 1*6/0.75 + 0] = (4 + 8) / 4
    data = _dataset([[0.0], [0.0], [1.0], [1.0]], [0, 1, 0, 1], [2.0, 9.0, 6.0, 9.0])
    gvals = {0.0: 0.5, 1.0: 0.75}
    ghat = lambda w: np.array([gvals[float(r[0])] for r in np.atleast_2d(w)])
    assert ipw_psi(data, ghat) == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(PositivityViolation):
        ipw_psi(data, lambda w: np.zeros(len(np.atleast_2d(w))))


@pytest.mark.parametrize("g", [0.0, -0.5, 1.5, math.nan])
def test_a_fitted_propensity_outside_zero_one_is_refused_by_every_weighting(g):
    # one rule for the propensity the influence function divides by: the
    # one-step reports and IPW refuse it as the exact remainders do, where
    # g = 0 gave NaN and g = -0.5 a finite wrong point
    data = generate(DGPSpec(), 200, 1)
    nuis = _const_nuisance(q=0.2, g=g)
    for run in (lambda: onestep_psi(data, nuis), lambda: onestep_theta(data, nuis),
                lambda: ipw_psi(data, nuis.predict_g)):
        with pytest.raises(PositivityViolation, match=r"^fitted propensity must take values "
                                                      r"in \(0, 1\]$"):
            run()


# ---------------------------------------------------------------------------
# one-step structure


def test_onestep_point_is_plugin_plus_correction():
    rng = np.random.default_rng(7)
    n = 200
    w = rng.uniform(-1, 1, (n, 1))
    a = (rng.uniform(size=n) < 0.5).astype(np.int64)
    y = w[:, 0] + rng.standard_normal(n)
    data = _dataset(w, a, y)
    nuis = _const_nuisance(q=0.2, g=0.6)
    rep = onestep_psi(data, nuis)
    ind0 = (a == 0).astype(float)
    manual = np.mean(ind0 * (y - 0.2) / 0.6 + 0.2)
    assert rep.point == pytest.approx(manual, abs=1e-12)
    # centered influence values average to zero exactly
    assert abs(float(np.mean(rep.eif_values))) < 1e-14


def test_onestep_theta_centering_through_treated_indicator():
    rng = np.random.default_rng(8)
    n = 300
    w = rng.uniform(-1, 1, (n, 1))
    a = (rng.uniform(size=n) < 0.4).astype(np.int64)
    y = 2.0 + w[:, 0] + rng.standard_normal(n)
    data = _dataset(w, a, y)
    rep = onestep_theta(data, _const_nuisance(q=1.5, g=0.55))
    assert abs(float(np.mean(rep.eif_values))) < 1e-13
    pn_a = float(np.mean(a))
    ind0 = (a == 0).astype(float)
    manual = np.mean((ind0 * (1 - 0.55) / 0.55 * (y - 1.5) + a * 1.5) / pn_a)
    assert rep.point == pytest.approx(manual, abs=1e-12)


def test_theta_needs_treated_rows():
    data = _dataset([[0.0], [1.0]], [0, 0], [1.0, 2.0])
    with pytest.raises(NoTreatedRows):
        onestep_theta(data, _const_nuisance(1.0, 0.5))


def test_every_theta_step_refuses_a_sample_without_treated_rows_with_one_message():
    law = FiniteDistribution([(((w,), a, 1.0 + w), 0.25) for w in (0.0, 1.0) for a in (0, 1)])
    data = _dataset([[0.0], [1.0], [1.0]], [0, 0, 0], [1.0, 2.0, 2.0])
    exact = FittedNuisance(*truth_functions(law))
    calls = (lambda: onestep_theta(data, exact),
             lambda: estimate(data, EstimatorConfig(estimand="theta", estimator="plugin")),
             lambda: decompose_error(law, exact, data, estimand="theta"))
    for call in calls:
        with pytest.raises(NoTreatedRows) as err:
            call()
        assert str(err.value) == "treated-mean estimand needs a treated row for P_n(A)"


# each side's one wording of the side rule
_WRONG_SIDE = {
    "q": "the outcome regression takes one of ['linear-ols', 'knn', 'kernel-nw', "
         "'misspecified-omit', 'oracle-rate']",
    "g": "the propensity takes one of ['logistic-irls', 'knn', 'kernel-nw', "
         "'misspecified-omit', 'misspecified-wronglink', 'oracle-rate']",
}


@pytest.mark.parametrize("side, kind", [("q", "logistic-irls"), ("q", "misspecified-wronglink"),
                                        ("g", "linear-ols")])
def test_a_kind_on_the_wrong_side_has_one_message(side, kind):
    # EstimatorConfig raises ConfigError and the fits InvalidLearnerSpec, in the same words
    data = _dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0])
    spec = LearnerSpec(kind)
    message = f"learner {side!r} cannot be {kind!r}: {_WRONG_SIDE[side]}"
    with pytest.raises(ConfigError) as err:
        EstimatorConfig(**{f"spec_{side}": spec})
    assert str(err.value) == message
    fit = fit_outcome if side == "q" else fit_propensity
    for call in (lambda: fit(data, spec), lambda: fit_side(side, data, spec)):
        with pytest.raises(InvalidLearnerSpec) as err:
            call()
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# variance and intervals


def test_variance_oracle_two_values():
    variance, lo, hi = variance_and_ci(np.array([-1.0, 1.0]), 0.0, 0.95)
    assert variance == pytest.approx(0.5, abs=0)
    assert hi == pytest.approx(Z_975 * math.sqrt(0.5), abs=1e-12)
    assert lo == -hi


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_interval_quantile_matches_scipy(level):
    # one influence value of 1: unit variance, so the half-width is the quantile
    _, lo, hi = variance_and_ci(np.array([1.0]), 0.0, level)
    z = norm.ppf(0.5 * (1.0 + level))
    assert abs(hi - z) <= 1e-15 * z
    assert lo == -hi


def test_variance_validation():
    with pytest.raises(EmptyEif):
        variance_and_ci(np.array([]), 0.0, 0.95)
    with pytest.raises(ValueError):
        variance_and_ci(np.array([1.0]), 0.0, 1.5)


def test_degenerate_outcome_gives_zero_width_covering_interval():
    # constant Y: every learner fits it exactly, all residuals vanish
    rng = np.random.default_rng(9)
    n = 80
    w = rng.uniform(-1, 1, (n, 1))
    a = (rng.uniform(size=n) < 0.5).astype(np.int64)
    data = _dataset(w, a, np.full(n, 2.5))
    nuis = fit_nuisance(data, LearnerSpec("knn", k=3), LearnerSpec("knn", k=3))
    rep = onestep_psi(data, nuis)
    assert rep.point == pytest.approx(2.5, abs=1e-12)
    assert rep.variance == pytest.approx(0.0, abs=1e-25)
    assert rep.ci_low == pytest.approx(rep.ci_high, abs=1e-12)
    assert rep.ci_low <= 2.5 <= rep.ci_high


# ---------------------------------------------------------------------------
# saturated collapse


@pytest.mark.parametrize("estimand", ["psi", "theta"])
def test_saturated_onestep_collapses_to_empirical_functional(estimand):
    rng = np.random.default_rng(10)
    n = 2000
    w = rng.integers(0, 3, size=(n, 1)).astype(float)
    a = (rng.uniform(size=n) < 0.5).astype(np.int64)
    y = rng.integers(-2, 3, size=n).astype(float)
    data = _dataset(w, a, y)
    emp = empirical_distribution(data)
    nuis = saturated_nuisance(data)
    if estimand == "psi":
        got = onestep_psi(data, nuis).point
        want = psi_of(emp)
    else:
        got = onestep_theta(data, nuis).point
        want = theta_of(emp)
    assert abs(got - want) < 1e-12


def test_saturated_nuisance_off_support_raises():
    data = _dataset([[0.0], [1.0]], [0, 1], [1.0, 2.0])
    nuis = saturated_nuisance(data)
    with pytest.raises(ZeroMassConditioning):
        nuis.predict_q(np.array([[7.0]]))


def test_empirical_distribution_counts():
    data = _dataset([[0.0], [0.0], [1.0]], [0, 0, 1], [1.0, 1.0, 2.0])
    emp = empirical_distribution(data)
    assert emp.mass_of(((0.0,), 0, 1.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert len(emp.atoms) == 2


# ---------------------------------------------------------------------------
# fold plans and cross-fitting


def test_fold_plan_balanced_and_deterministic():
    plan = FoldPlan.build(10, 3, seed=4)
    sizes = plan.fold_sizes()
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1
    again = FoldPlan.build(10, 3, seed=4)
    assert np.array_equal(plan.assignment, again.assignment)
    other = FoldPlan.build(10, 3, seed=5)
    assert not np.array_equal(plan.assignment, other.assignment)


def test_fold_plan_validation():
    with pytest.raises(ValueError):
        FoldPlan.build(3, 4, seed=0)
    with pytest.raises(ValueError):
        FoldPlan.build(10, 1, seed=0)
    with pytest.raises(ConfigError, match=r"need an integer 2 <= K <= n, got K=2, n=2.5"):
        FoldPlan.build(2.5, 2, seed=0)


def test_fold_plans_are_built_once_per_rows_folds_and_seed():
    estimators._fold_plan.cache_clear()
    plan = FoldPlan.build(10, 3, seed=4)
    # numpy and Python integers are one key, and the plan holds Python ints
    assert FoldPlan.build(np.int64(10), np.int32(3), np.uint8(4)) is plan
    assert (plan.n, plan.folds, plan.seed) == (10, 3, 4)
    assert [type(v) for v in (plan.n, plan.folds, plan.seed)] == [int] * 3
    assert estimators._fold_plan.cache_info().currsize == 1
    assert not plan.assignment.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        plan.assignment[0] = 1
    with pytest.raises(AttributeError):
        plan.folds = 4
    assert FoldPlan.build(10, 3, seed=5) is not plan


@pytest.mark.parametrize("n, folds, seed, message", [
    (10, 1, 0, r"need an integer 2 <= K <= n, got K=1, n=10"),
    (3, 4, 0, r"4 folds need at least 4 rows, but a sample has only 3"),
    (10, 3, -1, r"'seed' must be an integer >= 0, got -1"),
    (10, 3, 1.0, r"'seed' must be an integer >= 0, got 1.0"),
])
def test_a_refused_fold_plan_is_not_cached(n, folds, seed, message):
    estimators._fold_plan.cache_clear()
    with pytest.raises(ConfigError, match=f"^{message}$"):
        FoldPlan.build(n, folds, seed)
    assert estimators._fold_plan.cache_info().currsize == 0


@pytest.mark.parametrize("folds, seed", [("x", 0), (2.5, 0), (True, 0), (1, 0), (11, 0),
                                         (3, -1), (3, 1.0), (3, "0"), (3, False)])
def test_crossfit_refuses_bad_folds_and_seeds_with_config_error(folds, seed):
    data = _dataset(np.linspace(-1, 1, 10).reshape(-1, 1), [0, 1] * 5, np.arange(10.0))
    with pytest.raises(ConfigError):
        FoldPlan.build(10, folds, seed)
    with pytest.raises(ConfigError):
        crossfit(data, LearnerSpec("linear-ols"), LearnerSpec("logistic-irls"), folds, seed=seed)


def test_crossfit_with_exact_oracle_matches_single_split():
    # amplitude 0 makes every fold's fit the exact truth, so fold structure
    # cannot matter and the cross-fit point equals the no-split point
    rng = np.random.default_rng(11)
    n = 500
    w = rng.uniform(-1, 1, (n, 2))
    g = 1.0 / (1.0 + np.exp(-(0.8 * w[:, 0])))
    a = (rng.uniform(size=n) >= g).astype(np.int64)
    y = 1.0 + w[:, 0] + rng.standard_normal(n)
    data = _dataset(w, a, y)
    truth_q = lambda v: 1.0 + np.atleast_2d(v)[:, 0]
    truth_g = lambda v: 1.0 / (1.0 + np.exp(-(0.8 * np.atleast_2d(v)[:, 0])))
    spec = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.0)
    for estimand in ("psi", "theta"):
        cf = crossfit(data, spec, spec, 5, estimand=estimand, seed=2,
                      truth=(truth_q, truth_g))
        nuis = fit_nuisance(data, spec, spec, truth=(truth_q, truth_g))
        single = (onestep_psi if estimand == "psi" else onestep_theta)(data, nuis)
        assert cf.point == single.point
        assert cf.estimator == "onestep-crossfit"
        assert cf.fold_plan.folds == 5


def test_crossfit_leave_one_out_hand_computed():
    # K = n = 4 with k=3 nearest neighbors on each 3-row complement.
    # Rows: w = 0,1,2,3; a = 0,1,0,1; y = 1,9,3,7.
    # Per-row q-hat over untreated complement rows and g-hat = untreated
    # fraction of the complement give contributions -3, 2, 7, 2.
    data = _dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1],
                    [1.0, 9.0, 3.0, 7.0])
    rep = crossfit(data, LearnerSpec("knn", k=3), LearnerSpec("knn", k=3),
                   folds=4, estimand="psi", seed=0)
    assert rep.point == pytest.approx(2.0, abs=1e-12)


def test_crossfit_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(12)
    n = 120
    w = rng.uniform(-1, 1, (n, 1))
    a = (rng.uniform(size=n) < 0.5).astype(np.int64)
    y = w[:, 0] + rng.standard_normal(n)
    data = _dataset(w, a, y)
    kw = dict(estimand="psi", level=0.9)
    one = crossfit(data, LearnerSpec("knn"), LearnerSpec("knn"), 4, seed=1, **kw)
    two = crossfit(data, LearnerSpec("knn"), LearnerSpec("knn"), 4, seed=1, **kw)
    assert one.point == two.point
    assert np.array_equal(one.eif_values, two.eif_values)
    other = crossfit(data, LearnerSpec("knn"), LearnerSpec("knn"), 4, seed=2, **kw)
    assert one.point != other.point


def test_crossfit_propagates_fold_errors_with_context():
    # one fold's complement can end up without untreated rows
    data = _dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 1],
                    [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(Exception) as exc_info:
        crossfit(data, LearnerSpec("knn"), LearnerSpec("knn"), 4,
                 estimand="psi", seed=0)
    assert "fold" in str(exc_info.value)


def test_report_serialization_shape():
    rng = np.random.default_rng(13)
    n = 60
    w = rng.uniform(-1, 1, (n, 1))
    a = (rng.uniform(size=n) < 0.5).astype(np.int64)
    y = w[:, 0] + rng.standard_normal(n)
    rep = crossfit(_dataset(w, a, y), LearnerSpec("knn"), LearnerSpec("knn"),
                   3, estimand="psi", seed=0)
    doc = rep.to_dict()
    assert doc["folds"] == 3
    assert doc["nuisance_specs"]["q"]["kind"] == "knn"
    assert "eif_values" not in doc
    assert len(rep.to_dict(include_eif=True)["eif_values"]) == n


# ---------------------------------------------------------------------------
# bit identity with the one-step arithmetic written out per estimand


def _reference_report(estimand, data, qv, gv, level):
    """Point, variance, interval and influence values as each estimand once spelled them out."""
    if estimand == "psi":
        ind0 = (data.a == 0).astype(float)
        contrib = ind0 * (data.y - qv) / gv + qv
        point = float(np.mean(contrib))
        eif = contrib - point
    else:
        ind1 = (data.a == 1).astype(float)
        pn_a = float(np.mean(data.a))
        ind0 = 1.0 - ind1
        contrib = (ind0 * (1.0 - gv) / gv * (data.y - qv) + ind1 * qv) / pn_a
        point = float(np.mean(contrib))
        eif = contrib - ind1 * (point / pn_a)
    n = eif.size
    variance = float(np.sum(eif * eif)) / (n * n)
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * math.sqrt(variance)
    return point, variance, point - half, point + half, eif


def _fitted_rows(data, spec_q, spec_g, folds, seed, truth):
    # the per-row predictions the estimator pools: one fit, or each fold's
    # fit on its complement, selected by boolean indexing into a checked Dataset
    if folds == 0:
        nuis = fit_nuisance(data, spec_q, spec_g, truth=truth)
        return nuis.predict_q(data.w), nuis.predict_g(data.w)
    plan = FoldPlan.build(data.n, folds, seed)
    qv, gv = np.empty(data.n), np.empty(data.n)
    for k in range(folds):
        test = plan.assignment == k
        train = Dataset(data.w[~test], data.a[~test], data.y[~test])
        nuis = fit_nuisance(train, spec_q, spec_g, truth=truth)
        qv[test], gv[test] = nuis.predict_q(data.w[test]), nuis.predict_g(data.w[test])
    return qv, gv


def _assert_matches_reference(report, estimand, data, qv, gv, level):
    point, variance, lo, hi, eif = _reference_report(estimand, data, qv, gv, level)
    assert report.point == point
    assert report.variance == variance
    assert (report.ci_low, report.ci_high) == (lo, hi)
    assert np.array_equal(report.eif_values, eif)


def _random_oracle_case(seed, folds):
    """A sample, random per-row nuisances as the truth, an oracle spec and a level."""
    rng = np.random.default_rng([seed, folds])
    n = int(rng.integers(40, 200))
    w = rng.uniform(-1, 1, (n, 1))
    a = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(np.int64)
    a[:2] = [0, 1]
    data = _dataset(w, a, rng.normal(0.0, 2.0, n))
    # random nuisances per row; the propensity often leaves [eps, 1 - eps],
    # so the truncated estimate sits on both of its bounds
    qmap = dict(zip(w[:, 0].tolist(), rng.normal(0.0, 3.0, n).tolist()))
    gmap = dict(zip(w[:, 0].tolist(), rng.uniform(-0.3, 1.3, n).tolist()))
    truth = (lambda v: np.array([qmap[x] for x in v[:, 0].tolist()]),
             lambda v: np.array([gmap[x] for x in v[:, 0].tolist()]))
    eps = float(rng.uniform(0.01, 0.1))
    spec = LearnerSpec("oracle-rate", rate_exponent=0.3, amplitude=float(rng.uniform(0, 0.5)),
                       shape=0, truncation=eps)
    return data, truth, spec, float(rng.uniform(0.5, 0.99))


@pytest.mark.parametrize("folds", [0, 5])
@pytest.mark.parametrize("estimand", ["psi", "theta"])
@pytest.mark.parametrize("seed", range(6))
def test_onestep_reports_are_bit_identical_to_the_reference(seed, estimand, folds):
    data, truth, spec, level = _random_oracle_case(seed, folds)
    qv, gv = _fitted_rows(data, spec, spec, folds, seed, truth)
    eps = spec.truncation
    assert (gv == eps).any() and (gv == 1.0 - eps).any()

    config = EstimatorConfig(estimand=estimand, spec_q=spec, spec_g=spec, folds=folds,
                             level=level, fold_seed=seed)
    report = estimate(data, config, truth=truth)
    _assert_matches_reference(report, estimand, data, qv, gv, level)


@pytest.mark.parametrize("folds", [0, 5])
@pytest.mark.parametrize("estimator, estimand", [("plugin", "psi"), ("plugin", "theta"),
                                                 ("ipw", "psi")])
@pytest.mark.parametrize("seed", range(6))
def test_plugin_and_ipw_points_are_bit_identical_to_the_reference(seed, estimator, estimand,
                                                                  folds):
    # the same per-row values as the one-step, with folds 5 cross-fitted
    data, truth, spec, level = _random_oracle_case(seed, folds)
    qv, gv = _fitted_rows(data, spec, spec, folds, seed, truth)
    if estimator == "ipw":
        point = float(np.mean((data.a == 0).astype(float) * data.y / gv))
    else:
        point = float(np.mean(qv if estimand == "psi" else qv[data.a == 1]))
    config = EstimatorConfig(estimand=estimand, estimator=estimator, spec_q=spec, spec_g=spec,
                             folds=folds, level=level, fold_seed=seed)
    report = estimate(data, config, truth=truth)
    assert report.point == point
    assert report.estimator == (estimator if folds == 0 else f"{estimator}-crossfit")
    assert report.eif_values is None and math.isnan(report.variance)


@pytest.mark.parametrize("folds", [0, 5])
@pytest.mark.parametrize("estimator, unread", [("plugin", "spec_g"), ("ipw", "spec_q")])
def test_a_side_the_estimator_does_not_read_is_never_fit(estimator, unread, folds):
    # an oracle-rate side with no truth to perturb would refuse to fit
    rng = np.random.default_rng(41)
    w = rng.uniform(-1, 1, (120, 2))
    a = (rng.uniform(size=120) < logistic(w @ [0.5, -0.5])).astype(np.int64)
    data = _dataset(w, a, w @ [1.0, 2.0] + rng.normal(0.0, 1.0, 120))
    oracle = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.1)
    config = EstimatorConfig(estimator=estimator, folds=folds, **{unread: oracle})
    report = estimate(data, config, truth=None)
    assert math.isfinite(report.point)
    assert set(report.nuisance_specs) == {"plugin": {"q"}, "ipw": {"g"}}[estimator]


@pytest.mark.parametrize("estimator", ["plugin", "ipw"])
def test_cross_fitted_plugin_and_ipw_report_their_plan_and_failing_fold(estimator):
    rng = np.random.default_rng(42)
    w = rng.uniform(-1, 1, (90, 1))
    a = (rng.uniform(size=90) < 0.5).astype(np.int64)
    config = EstimatorConfig(estimator=estimator, folds=3, fold_seed=7)
    doc = estimate(_dataset(w, a, w[:, 0] + 1.0), config).to_dict()
    assert (doc["estimator"], doc["folds"], doc["fold_seed"]) == (f"{estimator}-crossfit", 3, 7)
    # the one untreated row's fold leaves a complement of treated rows only,
    # which neither side can be fit on
    data = _dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 1], [1.0, 2.0, 3.0, 4.0])
    k = int(FoldPlan.build(4, 4, 0).assignment[0])
    with pytest.raises(EifkitError, match=f"^fold {k}: "):
        estimate(data, EstimatorConfig(estimator=estimator, folds=4))


def test_a_traced_cross_fit_opens_one_fold_plan_and_a_fit_per_fold_and_side():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rng = np.random.default_rng(43)
    w = rng.uniform(-1, 1, (300, 2))
    a = (rng.uniform(size=300) < logistic(w @ [0.5, -0.5])).astype(np.int64)
    data = _dataset(w, a, w @ [1.0, 2.0] + rng.normal(0.0, 1.0, 300))
    tracer = module.Tracer()
    try:
        tracer.install_eifkit()
        estimate(data, EstimatorConfig(folds=3))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["estimators.foldplan"]["calls"] == 1
    assert totals["learners.fit.q.linear-ols"]["calls"] == 3
    assert totals["learners.fit.g.logistic-irls"]["calls"] == 3
    assert totals["learners.predict.q.linear-ols"]["rows"] == 300
    assert totals["learners.predict.g.logistic-irls"]["rows"] == 300


@pytest.mark.parametrize("kinds", [("linear-ols", "logistic-irls"),
                                   ("misspecified-omit", "misspecified-omit")])
@pytest.mark.parametrize("estimand", ["psi", "theta"])
@pytest.mark.parametrize("seed", range(3))
def test_crossfit_with_fitted_learners_is_bit_identical_to_the_reference(seed, estimand, kinds):
    # the cross-fit's own row selection against boolean indexing, for fits
    # whose every last digit depends on the training rows
    rng = np.random.default_rng([seed, 17])
    n = int(rng.integers(60, 400))
    w = rng.uniform(-1, 1, (n, 2))
    a = (rng.uniform(size=n) < logistic(0.2 + w @ [0.8, -0.5])).astype(np.int64)
    data = _dataset(w, a, 1.0 + w @ [1.5, -2.0] + rng.normal(0.0, 1.0, n))
    spec_q, spec_g = LearnerSpec(kinds[0]), LearnerSpec(kinds[1])
    qv, gv = _fitted_rows(data, spec_q, spec_g, 5, seed, None)
    config = EstimatorConfig(estimand=estimand, spec_q=spec_q, spec_g=spec_g, folds=5,
                             fold_seed=seed)
    _assert_matches_reference(estimate(data, config), estimand, data, qv, gv, 0.95)


def test_a_plugin_theta_estimate_on_a_table_draw_is_pinned(treated_law):
    # the shipped configs' digests cover no plug-in theta; a constant
    # (shape-2) oracle on a discrete-saturated draw keeps it to plain arithmetic
    dgp = DGPSpec(kind="discrete-saturated", table=treated_law)
    spec = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.3, shape=2)
    data = generate(dgp, 500, 7)
    points = [repr(estimate(data, EstimatorConfig(estimand="theta", estimator="plugin",
                                                  spec_q=spec, spec_g=spec, folds=folds,
                                                  fold_seed=3), truth=(dgp.q, dgp.g)).point)
              for folds in (0, 4)]
    assert points == ["1.6581204936282163", "1.6628513798098319"]
