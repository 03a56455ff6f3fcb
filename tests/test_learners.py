"""Learner oracles: frozen closed-form fits and rate-calibrated behavior."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from eifkit import (Dataset, FoldPlan, LearnerSpec, default_logistic_linear, fit_outcome,
                    fit_propensity, generate, learners, oracle_rate_nuisance)
from eifkit.learners import (
    DEFAULT_TRUNCATION,
    IRLS_GRADIENT_TOL,
    IRLS_MAX_ITER,
    KERNEL_BLOCK_PAIRS,
    RIDGE_JITTER,
    _design,
    _irls_beta,
    _ols_beta,
    _scale_rows,
    _softplus,
    fit_nuisance,
    fit_side,
    logistic,
    perturbation_shape,
    truncate_propensity,
)
from eifkit.errors import (
    DegenerateTreatment,
    InvalidLearnerSpec,
    NonFiniteNumber,
    NoUntreatedRows,
    SingularDesign,
)


def _dataset(w, a, y):
    return Dataset(w=np.asarray(w, dtype=float),
                   a=np.asarray(a, dtype=np.int64),
                   y=np.asarray(y, dtype=float))


def _grid(lo=-1.0, hi=1.0, m=7):
    return np.linspace(lo, hi, m).reshape(-1, 1)


# ---------------------------------------------------------------------------
# outcome side


@pytest.mark.parametrize("kind", ["linear-ols", "knn", "kernel-nw"])
def test_constant_outcome_recovered(kind):
    w = np.linspace(-1, 1, 12).reshape(-1, 1)
    data = _dataset(w, np.zeros(12), np.full(12, 5.0))
    qhat = fit_outcome(data, LearnerSpec(kind))
    assert np.allclose(qhat(_grid()), 5.0, atol=1e-6)


def test_ols_recovers_noiseless_linear():
    rng = np.random.default_rng(0)
    w = rng.uniform(-1, 1, (10, 2))
    y = 2.0 + 3.0 * w[:, 0] - w[:, 1]
    data = _dataset(w, np.zeros(10), y)
    qhat = fit_outcome(data, LearnerSpec("linear-ols"))
    probe = rng.uniform(-1, 1, (5, 2))
    want = 2.0 + 3.0 * probe[:, 0] - probe[:, 1]
    assert np.allclose(qhat(probe), want, atol=1e-6)


def test_ols_fits_only_untreated_rows():
    # treated outcomes are shifted garbage; they must not leak into qhat
    w = np.linspace(-1, 1, 20).reshape(-1, 1)
    a = (np.arange(20) % 2).astype(np.int64)
    y = 1.0 + w[:, 0]
    y[a == 1] += 100.0
    qhat = fit_outcome(_dataset(w, a, y), LearnerSpec("linear-ols"))
    assert np.allclose(qhat(_grid()), 1.0 + _grid()[:, 0], atol=1e-8)


def test_knn_all_neighbors_is_grand_mean():
    w = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.0, 10.0])
    data = _dataset(w, np.zeros(4), y)
    qhat = fit_outcome(data, LearnerSpec("knn", k=4))
    assert qhat(np.array([0.7])) == pytest.approx(4.0, abs=1e-12)
    # k larger than the training size clamps
    qhat_big = fit_outcome(data, LearnerSpec("knn", k=99))
    assert qhat_big(np.array([0.7])) == pytest.approx(4.0, abs=1e-12)


def test_knn_one_neighbor_interpolates():
    w = np.array([[0.0], [1.0], [2.0]])
    y = np.array([5.0, -1.0, 9.0])
    qhat = fit_outcome(_dataset(w, np.zeros(3), y), LearnerSpec("knn", k=1))
    assert qhat(np.array([1.1])) == pytest.approx(-1.0, abs=0)
    assert qhat(np.array([1.9])) == pytest.approx(9.0, abs=0)


def test_kernel_far_query_degrades_to_nearest_neighbor():
    # log-weight stabilization keeps far extrapolation finite
    w = np.array([[0.0], [1.0]])
    y = np.array([2.0, 4.0])
    qhat = fit_outcome(_dataset(w, np.zeros(2), y), LearnerSpec("kernel-nw", bandwidth=0.1))
    val = qhat(np.array([50.0]))
    assert math.isfinite(val)
    assert val == pytest.approx(4.0, abs=1e-8)


def test_outcome_needs_untreated_rows():
    data = _dataset([[0.0], [1.0]], [1, 1], [0.0, 1.0])
    with pytest.raises(NoUntreatedRows):
        fit_outcome(data, LearnerSpec("linear-ols"))


# ---------------------------------------------------------------------------
# propensity side


def test_irls_recovers_logistic_coefficients():
    rng = np.random.default_rng(1)
    n = 20000
    w = rng.uniform(-1, 1, (n, 1))
    g = 1.0 / (1.0 + np.exp(-(0.3 + 1.2 * w[:, 0])))
    a = (rng.uniform(size=n) >= g).astype(np.int64)
    ghat = fit_propensity(_dataset(w, a, np.zeros(n)), LearnerSpec("logistic-irls"))
    probe = _grid()
    want = 1.0 / (1.0 + np.exp(-(0.3 + 1.2 * probe[:, 0])))
    assert np.allclose(ghat(probe), want, atol=0.03)


def test_irls_separation_pins_at_truncation():
    # a = 1 exactly when w > 0: perfectly separated
    w = np.linspace(-1, 1, 30).reshape(-1, 1)
    a = (w[:, 0] > 0).astype(np.int64)
    ghat = fit_propensity(_dataset(w, a, np.zeros(30)), LearnerSpec("logistic-irls"))
    eps = DEFAULT_TRUNCATION
    assert ghat(np.array([-0.9])) == pytest.approx(1.0 - eps, abs=1e-12)
    assert ghat(np.array([0.9])) == pytest.approx(eps, abs=1e-12)


def test_logistic_matches_scipy_expit_within_four_ulp():
    x = np.concatenate([np.linspace(-40.0, 40.0, 160_001), np.linspace(-745.0, 745.0, 29_801)])
    ours, ref = logistic(x), expit(x)
    assert np.all(np.abs(ours - ref) <= 4 * np.spacing(np.maximum(ours, ref)))


def test_logistic_saturates_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert logistic(np.array([-800.0, -710.0, 800.0])).tolist() == [0.0, 0.0, 1.0]
        assert logistic(-800.0) == 0.0 and logistic(800.0) == 1.0


def test_softplus_matches_logaddexp_within_four_ulp():
    v = np.concatenate([np.linspace(-745.0, 745.0, 29_801), np.linspace(-1e-3, 1e-3, 20_001),
                        np.linspace(-40.0, 40.0, 160_001)])
    ours, ref = _softplus(v), np.logaddexp(0.0, v)
    assert np.all(np.abs(ours - ref) <= 4 * np.spacing(np.maximum(ours, ref)))


def test_softplus_saturates_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _softplus(np.array([-800.0, 800.0])).tolist() == [0.0, 800.0]


def _reference_irls_beta(x, z):
    # the Newton loop with the likelihood as np.logaddexp and eta recomputed
    # from beta at every use
    design = np.column_stack([np.ones(len(x)), x])

    def nll(beta):
        return float(np.logaddexp(0.0, -(2.0 * z - 1.0) * (design @ beta)).sum())

    beta = np.zeros(design.shape[1])
    current = nll(beta)
    for _ in range(IRLS_MAX_ITER):
        p = logistic(design @ beta)
        grad = design.T @ (z - p)
        if math.sqrt(float(grad @ grad)) <= IRLS_GRADIENT_TOL:
            break
        hessian = design.T @ ((p * (1.0 - p))[:, None] * design) + 1e-12 * np.eye(len(beta))
        step = np.linalg.solve(hessian, grad)
        for _halving in range(60):
            candidate = beta + step
            cand_nll = nll(candidate)
            if cand_nll <= current + 1e-12:
                beta, current = candidate, cand_nll
                break
            step = 0.5 * step
        else:
            break
    return beta


@pytest.mark.parametrize("seed", range(20))
def test_irls_matches_the_logaddexp_reference_loop(seed):
    rng = np.random.default_rng([seed, 9])
    n = int(np.exp(rng.uniform(np.log(50), np.log(20_000))))
    d = int(rng.integers(1, 4))
    x = rng.uniform(-1.0, 1.0, (n, d))
    coef = rng.normal(0.0, 1.0, d + 1)
    z = (rng.uniform(size=n) < logistic(coef[0] + x @ coef[1:])).astype(float)
    beta = _irls_beta(x, z)
    assert np.allclose(beta, _reference_irls_beta(x, z), rtol=1e-12, atol=0.0)
    design = np.column_stack([np.ones(n), x])
    grad = design.T @ (z - logistic(design @ beta))
    assert math.sqrt(float(grad @ grad)) <= IRLS_GRADIENT_TOL


# ---------------------------------------------------------------------------
# column-pass designs against the row-pass forms
#
# The two fits below build the design with np.column_stack and weight it
# with weights[:, None] * design, the row-pass forms the learners used
# before they wrote both a column at a time; the column passes must give
# the same arrays, and so the same beta, bit for bit.


def _row_pass_ols_beta(x, y):
    design = np.column_stack([np.ones(len(x)), x])
    gram = design.T @ design + RIDGE_JITTER * np.eye(design.shape[1])
    return np.linalg.solve(gram, design.T @ y)


def _row_pass_irls_beta(x, z):
    design = np.column_stack([np.ones(len(x)), x])
    sign = 2.0 * z - 1.0
    beta = np.zeros(design.shape[1])
    eta = design @ beta
    nll = float(_softplus(-sign * eta).sum())
    for _ in range(IRLS_MAX_ITER):
        p = logistic(eta)
        grad = design.T @ (z - p)
        if math.sqrt(float(grad @ grad)) <= IRLS_GRADIENT_TOL:
            return beta
        weights = p * (1.0 - p)
        hessian = design.T @ (weights[:, None] * design) + 1e-12 * np.eye(design.shape[1])
        step = np.linalg.solve(hessian, grad)
        for _halving in range(60):
            candidate = beta + step
            cand_eta = design @ candidate
            cand_nll = float(_softplus(-sign * cand_eta).sum())
            if cand_nll <= nll + 1e-12:
                beta, eta, nll = candidate, cand_eta, cand_nll
                break
            step = 0.5 * step
        else:
            break
    return beta


def _column_pass_cases():
    rng = np.random.default_rng(41)
    for d in (0, 1, 2, 7):
        yield f"d={d}", rng.uniform(-1.0, 1.0, (257, d))
    # the strided view misspecified-omit fits on
    yield "w[:, 1:]", rng.uniform(-1.0, 1.0, (257, 3))[:, 1:]


@pytest.mark.parametrize("label, x", list(_column_pass_cases()))
def test_design_and_weighting_match_the_row_pass_forms(label, x):
    design = _design(x)
    assert design.flags.c_contiguous
    assert np.array_equal(design, np.column_stack([np.ones(len(x)), x]))
    weights = np.random.default_rng(len(label)).uniform(0.0, 0.25, len(x))
    weighted = _scale_rows(weights, design, np.empty_like(design))
    assert weighted.flags.c_contiguous
    assert np.array_equal(weighted, weights[:, None] * design)


@pytest.mark.parametrize("seed", range(6))
def test_column_pass_fits_match_the_row_pass_reference_bitwise(seed):
    rng = np.random.default_rng([seed, 12])
    n = int(rng.integers(50, 5000))
    d = int(rng.integers(1, 5))
    x = rng.uniform(-1.0, 1.0, (n, d))
    coef = rng.normal(0.0, 1.0, d + 1)
    z = (rng.uniform(size=n) < logistic(coef[0] + x @ coef[1:])).astype(float)
    y = coef[0] + x @ coef[1:] + rng.standard_normal(n)
    assert np.array_equal(_irls_beta(x, z), _row_pass_irls_beta(x, z))
    assert np.array_equal(_ols_beta(x, y), _row_pass_ols_beta(x, y))
    # the strided first-covariate drop of misspecified-omit
    assert np.array_equal(_irls_beta(x[:, 1:], z), _row_pass_irls_beta(x[:, 1:], z))
    assert np.array_equal(_ols_beta(x[:, 1:], y), _row_pass_ols_beta(x[:, 1:], y))


def test_column_pass_irls_matches_the_row_pass_reference_under_separation():
    x = np.linspace(-1.0, 1.0, 200).reshape(-1, 1)
    z = (x[:, 0] < 0.0).astype(float)
    beta = _irls_beta(x, z)
    assert np.array_equal(beta, _row_pass_irls_beta(x, z))
    assert beta[1] < -10.0  # separated: the slope keeps growing until margins saturate


@pytest.mark.parametrize("fit", ["ols", "irls"])
def test_overflowing_normal_equations_raise_at_once_without_warnings(fit):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (60, 2)) * 1e200
    z = (rng.uniform(size=60) < 0.5).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteNumber, match="is not finite"):
            if fit == "ols":
                _ols_beta(x, rng.standard_normal(60))
            else:
                _irls_beta(x, z)


def test_overflowing_fits_raise_non_finite_through_the_learners():
    rng = np.random.default_rng(4)
    w = rng.uniform(-1.0, 1.0, (60, 2)) * 1e200
    data = _dataset(w, rng.uniform(size=60) < 0.5, rng.standard_normal(60))
    for fit, kind in ((fit_outcome, "linear-ols"), (fit_outcome, "misspecified-omit"),
                      (fit_propensity, "logistic-irls"), (fit_propensity, "misspecified-omit"),
                      (fit_propensity, "misspecified-wronglink")):
        with pytest.raises(NonFiniteNumber) as err:
            fit(data, LearnerSpec(kind))
        assert err.value.code == "numeric/non-finite"


def _collinear_sample(n=50, seed=0):
    """w2 = 2 * w1 exactly, with |w| up to 1e6: the ridge jitter is lost to
    rounding in the Gram matrix, and the solves meet an exact zero pivot."""
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-1e6, 1e6, n)
    return _dataset(np.column_stack([w1, 2.0 * w1]), rng.uniform(size=n) < 0.5,
                    rng.standard_normal(n))


@pytest.mark.parametrize("fit, kind, message", [
    (fit_outcome, "linear-ols", "normal equations singular despite jitter"),
    (fit_propensity, "logistic-irls", "IRLS step singular"),
])
def test_a_collinear_design_raises_singular_design(fit, kind, message):
    with pytest.raises(SingularDesign, match=message) as err:
        fit(_collinear_sample(), LearnerSpec(kind))
    assert err.value.code == "learner/singular-design"


@pytest.mark.parametrize("fit, spec", [
    (fit_outcome, LearnerSpec("knn")), (fit_propensity, LearnerSpec("knn", k=3)),
    (fit_outcome, LearnerSpec("kernel-nw")), (fit_propensity, LearnerSpec("kernel-nw")),
    (fit_outcome, LearnerSpec("kernel-nw", bandwidth=1.0))])
def test_overflowing_covariates_refuse_the_smoothers_without_warnings(fit, spec):
    # squared distances (kNN), the standard deviation of the default
    # bandwidth or the scaled squares (kernel-NW) overflow at 1e200; the
    # refusal comes from the (rows, d) inputs, and no RuntimeWarning escapes
    rng = np.random.default_rng(4)
    w = rng.uniform(-1.0, 1.0, (60, 2)) * 1e200
    data = _dataset(w, rng.uniform(size=60) < 0.5, rng.standard_normal(60))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteNumber, match="is not finite: the data overflow it"):
            fit(data, spec)(w)


@pytest.mark.parametrize("spec, far", [(LearnerSpec("knn", k=3), 1e200),
                                       (LearnerSpec("kernel-nw", bandwidth=1e-5), 1e300)])
def test_an_overflowing_query_is_refused_by_a_smoother_fit_on_plain_rows(spec, far):
    rng = np.random.default_rng(5)
    w = rng.uniform(-1.0, 1.0, (40, 2))
    predict = fit_outcome(_dataset(w, np.zeros(40), rng.standard_normal(40)), spec)
    assert np.isfinite(predict(w)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteNumber, match="the data overflow it"):
            predict(np.array([[far, -far], [0.0, 0.0]]))


def test_propensity_always_truncated():
    rng = np.random.default_rng(2)
    w = rng.uniform(-1, 1, (50, 1))
    a = (rng.uniform(size=50) < 0.5).astype(np.int64)
    for kind in ("logistic-irls", "knn", "kernel-nw", "misspecified-wronglink"):
        ghat = fit_propensity(_dataset(w, a, np.zeros(50)), LearnerSpec(kind, truncation=0.1))
        vals = ghat(rng.uniform(-3, 3, (40, 1)))
        assert np.all(vals >= 0.1 - 1e-15) and np.all(vals <= 0.9 + 1e-15)


def test_propensity_needs_both_classes():
    data = _dataset([[0.0], [1.0]], [0, 0], [0.0, 1.0])
    with pytest.raises(DegenerateTreatment):
        fit_propensity(data, LearnerSpec("logistic-irls"))


# ---------------------------------------------------------------------------
# deliberately misspecified learners


def test_omit_learner_ignores_first_covariate():
    rng = np.random.default_rng(3)
    w = rng.uniform(-1, 1, (40, 2))
    y = 2.0 * w[:, 0] + 0.5 * w[:, 1]
    qhat = fit_outcome(_dataset(w, np.zeros(40), y), LearnerSpec("misspecified-omit"))
    probe_a = np.array([[5.0, 0.3]])
    probe_b = np.array([[-5.0, 0.3]])
    assert qhat(probe_a)[0] == pytest.approx(qhat(probe_b)[0], abs=1e-12)


def test_wronglink_is_truncated_linear_probability():
    rng = np.random.default_rng(4)
    n = 300
    w = rng.uniform(-1, 1, (n, 1))
    a = (rng.uniform(size=n) < 0.5 + 0.3 * w[:, 0]).astype(np.int64)
    ghat = fit_propensity(_dataset(w, a, np.zeros(n)), LearnerSpec("misspecified-wronglink"))
    # extreme probe would go outside [0, 1] under the linear link
    val = ghat(np.array([50.0]))
    assert val in (DEFAULT_TRUNCATION, 1.0 - DEFAULT_TRUNCATION)


# ---------------------------------------------------------------------------
# rate-calibrated oracle


def test_oracle_offsets_are_exact():
    truth_q = lambda w: np.zeros(len(np.atleast_2d(w)))
    truth_g = lambda w: np.full(len(np.atleast_2d(w)), 0.3)
    spec = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=1.0, shape=2)
    nuis = oracle_rate_nuisance(truth_q, truth_g, 16, spec, spec)
    # 16^(-1/4) = 1/2 with the constant shape
    probe = _grid()
    assert np.all(nuis.predict_q(probe) == 0.5)
    assert np.all(nuis.predict_g(probe) == 0.8)


def test_oracle_amplitude_zero_is_truth():
    truth_q = lambda w: np.atleast_2d(w)[:, 0] * 2.0
    truth_g = lambda w: np.full(len(np.atleast_2d(w)), 0.4)
    spec = LearnerSpec("oracle-rate", rate_exponent=0.5, amplitude=0.0)
    nuis = oracle_rate_nuisance(truth_q, truth_g, 7, spec, spec)
    probe = _grid()
    assert np.all(nuis.predict_q(probe) == truth_q(probe))
    assert np.all(nuis.predict_g(probe) == 0.4)


def test_oracle_l2_error_decays_at_stated_rate():
    truth_q = lambda w: np.zeros(len(np.atleast_2d(w)))
    truth_g = lambda w: np.full(len(np.atleast_2d(w)), 0.5)
    probe = _grid(m=101)
    for a in (0.125, 0.25, 0.375):
        spec = LearnerSpec("oracle-rate", rate_exponent=a, amplitude=0.1, shape=0)
        errs = []
        ns = [2**k for k in range(6, 15, 2)]
        for n in ns:
            nuis = oracle_rate_nuisance(truth_q, truth_g, n, spec, spec)
            errs.append(float(np.sqrt(np.mean(nuis.predict_q(probe) ** 2))))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope == pytest.approx(-a, abs=0.01)


def test_oracle_propensity_respects_clip():
    truth_q = lambda w: np.zeros(len(np.atleast_2d(w)))
    truth_g = lambda w: np.full(len(np.atleast_2d(w)), 0.95)
    spec = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=2.0,
                       shape=2, truncation=0.1)
    nuis = oracle_rate_nuisance(truth_q, truth_g, 16, spec, spec)
    assert np.all(nuis.predict_g(_grid()) == 0.9)


def test_perturbation_shapes():
    w = np.array([[0.2], [-0.4], [0.0]])
    assert np.allclose(perturbation_shape(0)(w), np.sin(np.pi * w[:, 0]))
    # sign convention: exactly at the median the step shape is 0
    assert np.array_equal(perturbation_shape(1)(w), np.array([1.0, -1.0, 0.0]))
    assert np.array_equal(perturbation_shape(2)(w), np.ones(3))


@pytest.mark.parametrize("shape_id", [3, -1, 1.0, True])
def test_a_perturbation_shape_outside_the_three_is_refused(shape_id):
    with pytest.raises(InvalidLearnerSpec, match=f"^unknown perturbation shape {shape_id!r}$"):
        perturbation_shape(shape_id)


def test_oracle_rate_nuisance_refuses_a_spec_that_is_no_oracle():
    oracle = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.1)
    truth = (lambda w: np.zeros(len(w)), lambda w: np.full(len(w), 0.5))
    for spec_q, spec_g in ((LearnerSpec("knn"), oracle), (oracle, LearnerSpec("logistic-irls"))):
        kind = spec_q.kind if spec_q is not oracle else spec_g.kind
        with pytest.raises(InvalidLearnerSpec,
                           match=f"^oracle-rate nuisances need oracle-rate learners, got '{kind}'$"):
            oracle_rate_nuisance(*truth, 100, spec_q, spec_g)


def test_an_oracle_spec_without_the_truth_has_one_message():
    # fit_outcome and fit_propensity refuse it as fit_side does, though oracle-rate fits both sides
    rng = np.random.default_rng(8)
    data = _dataset(rng.uniform(-1, 1, (30, 1)), np.arange(30) % 2, rng.standard_normal(30))
    oracle = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.1)
    calls = (lambda: fit_outcome(data, oracle), lambda: fit_propensity(data, oracle),
             lambda: fit_side("q", data, oracle), lambda: fit_side("g", data, oracle),
             lambda: fit_nuisance(data, LearnerSpec("linear-ols"), oracle))
    for call in calls:
        with pytest.raises(InvalidLearnerSpec,
                           match=r"^oracle-rate learners need the \(q, g\) truth callables$"):
            call()


# ---------------------------------------------------------------------------
# specs, defaults, determinism


def test_spec_validation():
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec("nope")
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec("linear-ols", truncation=0.6)
    with pytest.raises(InvalidLearnerSpec, match="'truncation' must be a number in"):
        LearnerSpec("logistic-irls", truncation=0.6)
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec("oracle-rate")  # needs a rate exponent
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec("oracle-rate", rate_exponent=0.9, amplitude=0.1)
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.1, shape=7)
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec("knn", k=0)


@pytest.mark.parametrize("fields", [
    {"kind": "knn", "k": "x"},
    {"kind": "knn", "k": True},
    {"kind": "knn", "k": 2.5},
    {"kind": "knn", "k": 15.0},
    {"kind": "knn", "k": None, "truncation": "x"},
    {"kind": "kernel-nw", "bandwidth": "x"},
    {"kind": "kernel-nw", "bandwidth": True},
    {"kind": "kernel-nw", "bandwidth": float("nan")},
    {"kind": "kernel-nw", "bandwidth": float("inf")},
    {"kind": "kernel-nw", "bandwidth": -0.1},
    {"kind": "oracle-rate", "rate_exponent": "x", "amplitude": 0.1},
    {"kind": "oracle-rate", "rate_exponent": 0.25, "amplitude": "x"},
    {"kind": "knn", "seed": "x"},
    {"kind": "knn", "seed": True},
    {"kind": "linear-ols", "seed": 1.5},
    {"kind": "linear-ols", "shape": True},
    {"kind": "knn", "shape": "x"},
    {"kind": "oracle-rate", "rate_exponent": 0.25, "amplitude": 0.1, "shape": True},
    {"kind": "oracle-rate", "rate_exponent": 0.25, "amplitude": 0.1, "shape": 1.0},
    {"kind": "oracle-rate", "rate_exponent": 0.25, "amplitude": 0.1, "shape": "x"},
])
def test_spec_rejects_non_numeric_fields(fields):
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec.from_dict(fields)


def test_spec_accepts_numpy_numbers():
    assert LearnerSpec("knn", k=np.int64(5)).k == 5
    assert LearnerSpec("kernel-nw", bandwidth=np.float64(0.2)).bandwidth == 0.2
    assert LearnerSpec("kernel-nw", bandwidth=1).bandwidth == 1


# the fields each kind reads: README's "Learner specs" table
_READS = {
    "linear-ols": (),
    "logistic-irls": ("truncation",),
    "knn": ("k", "truncation"),
    "kernel-nw": ("bandwidth", "truncation"),
    "misspecified-omit": ("truncation",),
    "misspecified-wronglink": ("truncation",),
    "oracle-rate": ("rate_exponent", "amplitude", "shape", "truncation"),
}
# a value other than the default for each field; an oracle-rate spec needs
# its rate exponent and amplitude
_SET = {"k": 5, "bandwidth": 0.3, "rate_exponent": 0.3, "amplitude": 0.2, "shape": 2,
        "truncation": 0.05}
_ORACLE = {"rate_exponent": 0.25, "amplitude": 0.5}
_UNREAD = [(kind, name) for kind in _READS for name in _SET if name not in _READS[kind]]


def _spec_fields(kind, name):
    return {"kind": kind, **(_ORACLE if kind == "oracle-rate" else {}), name: _SET[name]}


@pytest.mark.parametrize("kind, name", _UNREAD)
def test_a_field_its_kind_does_not_read_is_refused(kind, name):
    fields = _spec_fields(kind, name)
    with pytest.raises(InvalidLearnerSpec, match=f"'{kind}' kind does not read '{name}'"):
        LearnerSpec(**fields)
    with pytest.raises(InvalidLearnerSpec, match=f"'{kind}' kind does not read '{name}'"):
        LearnerSpec.from_dict(fields)


def test_eleven_kind_and_field_pairs_can_be_set():
    assert len(_UNREAD) == 31 and sum(map(len, _READS.values())) == 11


@pytest.mark.parametrize("kind, name", [(kind, name) for kind in _READS
                                        for name in _READS[kind]])
def test_a_field_its_kind_reads_is_set_and_echoed(kind, name):
    fields = _spec_fields(kind, name)
    spec = LearnerSpec.from_dict(fields)
    assert getattr(spec, name) == _SET[name] and spec == LearnerSpec(**fields)
    assert spec.to_dict()[name] == _SET[name]
    assert LearnerSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("kind", sorted(_READS))
def test_to_dict_echoes_exactly_the_fields_its_kind_reads(kind):
    spec = LearnerSpec(kind, **{name: _SET[name] for name in _READS[kind]})
    assert list(spec.to_dict()) == ["kind", *_READS[kind]]
    # k and bandwidth left at None stay out
    assert set(LearnerSpec(kind, **(_ORACLE if kind == "oracle-rate" else {})).to_dict()) == (
        {"kind", *_READS[kind]} - {"k", "bandwidth"})


@pytest.mark.parametrize("fields", [
    {"kind": "linear-ols", "truncation": 0.01},
    {"kind": "linear-ols", "shape": 0, "k": None, "bandwidth": None},
    {"kind": "knn", "shape": 0, "rate_exponent": None, "amplitude": None},
    {"kind": "logistic-irls", "k": None},
])
def test_an_unread_field_at_its_default_is_accepted(fields):
    assert LearnerSpec.from_dict(fields) == LearnerSpec(fields["kind"])


@pytest.mark.parametrize("fields", [
    {"kind": "knn", "shape": 0.0},
    {"kind": "knn", "shape": False},
    {"kind": "linear-ols", "truncation": "0.01"},
    {"kind": "linear-ols", "truncation": 0.6},
    {"kind": "knn", "rate_exponent": "x"},
])
def test_an_unread_field_of_another_sort_than_its_default_is_refused(fields):
    with pytest.raises(InvalidLearnerSpec, match="kind does not read"):
        LearnerSpec.from_dict(fields)


def test_spec_dict_round_trip():
    spec = LearnerSpec("kernel-nw", bandwidth=0.3, truncation=0.05)
    assert LearnerSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec.from_dict({"kind": "knn", "bogus": 1})
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec.from_dict(["knn"])


def test_fits_are_deterministic():
    rng = np.random.default_rng(5)
    w = rng.uniform(-1, 1, (60, 2))
    a = (rng.uniform(size=60) < 0.5).astype(np.int64)
    y = w[:, 0] + rng.standard_normal(60)
    data = _dataset(w, a, y)
    probe = rng.uniform(-1, 1, (9, 2))
    for kind in ("linear-ols", "knn", "kernel-nw", "misspecified-omit"):
        one = fit_outcome(data, LearnerSpec(kind))(probe)
        two = fit_outcome(data, LearnerSpec(kind))(probe)
        assert np.array_equal(one, two)


def test_fit_nuisance_pairs_sides():
    rng = np.random.default_rng(6)
    w = rng.uniform(-1, 1, (60, 1))
    a = (rng.uniform(size=60) < 0.5).astype(np.int64)
    y = w[:, 0] + rng.standard_normal(60)
    nuis = fit_nuisance(_dataset(w, a, y), LearnerSpec("linear-ols"),
                        LearnerSpec("logistic-irls"))
    assert nuis.spec_q.kind == "linear-ols"
    assert nuis.spec_g.kind == "logistic-irls"
    assert isinstance(nuis.predict_q(np.array([0.2])), float)
    with pytest.raises(InvalidLearnerSpec):
        # oracle kinds need explicit truth functions
        fit_nuisance(_dataset(w, a, y),
                     LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.1),
                     LearnerSpec("logistic-irls"))


def test_truncate_propensity_clamps():
    vals = truncate_propensity(np.array([-0.2, 0.5, 1.7]), 0.05)
    assert np.array_equal(vals, np.array([0.05, 0.5, 0.95]))


def test_dataset_validation():
    with pytest.raises(ValueError):
        _dataset([[0.0]], [2], [0.0])
    with pytest.raises(ValueError):
        Dataset(w=np.zeros((3, 1)), a=np.zeros(2, dtype=np.int64), y=np.zeros(3))
    data = _dataset([[0.0], [1.0]], [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError):
        data.w[0, 0] = 5.0  # arrays are read-only


def test_dataset_takes_a_1d_covariate_vector_as_one_column():
    data = Dataset(w=[0.5, -1.0, 2.0], a=[0, 1, 0], y=[1.0, 2.0, 3.0])
    assert data.w.shape == (3, 1) and data.d == 1
    assert data.w[:, 0].tolist() == [0.5, -1.0, 2.0]


@pytest.mark.parametrize("w", [np.zeros((3, 0)), np.zeros((0, 2)), np.zeros((3, 1, 1))])
def test_dataset_refuses_a_covariate_matrix_without_rows_or_columns(w):
    with pytest.raises(ValueError) as err:
        Dataset(w=w, a=np.zeros(len(w), dtype=np.int64), y=np.zeros(len(w)))
    assert str(err.value) == f"covariate matrix must be (n, d) with n, d >= 1, got shape {w.shape}"


@pytest.mark.parametrize("bad", [0.5, 1.7, -1, 2, math.nan, "0"])
def test_dataset_refuses_non_binary_treatments(bad):
    # checked before the integer cast, so 0.5 and 1.7 are not truncated to 0 and 1
    with pytest.raises(ValueError, match="^treatment values must be 0 or 1$"):
        Dataset(w=[[0.0], [1.0], [2.0]], a=[bad, 1, 0], y=[1.0, 2.0, 3.0])


@pytest.mark.parametrize("a", [[True, False, True], [1.0, 0.0, 1.0], [1, 0, 1]])
def test_dataset_accepts_bool_and_integral_float_treatments(a):
    data = Dataset(w=[[0.0], [1.0], [2.0]], a=a, y=[1.0, 2.0, 3.0])
    assert data.a.dtype == np.int64
    assert data.a.tolist() == [1, 0, 1]


def test_dataset_subset_matches_boolean_indexing():
    rng = np.random.default_rng(4)
    data = _dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50), rng.normal(size=50))
    mask = rng.uniform(size=50) < 0.6
    part = data.subset(mask)
    for got, full in ((part.w, data.w), (part.a, data.a), (part.y, data.y)):
        assert np.array_equal(got, full[mask])
        assert got.dtype == full.dtype
        assert not got.flags.writeable
    assert part.n == int(mask.sum()) and part.d == 3


def test_dataset_subset_refuses_empty_and_non_boolean_masks():
    data = _dataset([[0.0], [1.0], [2.0]], [0, 1, 0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="no rows"):
        data.subset(np.zeros(3, dtype=bool))
    with pytest.raises(ValueError, match="boolean mask"):
        data.subset(np.array([0, 2]))
    with pytest.raises(ValueError, match="boolean mask"):
        data.subset(np.ones(2, dtype=bool))


# ---------------------------------------------------------------------------
# smoother kernels against reference forms
#
# The two broadcast kernels below are the (m, n, d) forms the learners used
# before they accumulated distances one covariate at a time in bounded query
# blocks; they stay here as the reference the blocked kernels must match.


def _broadcast_knn(train_w, train_t, k, w):
    k = min(k, len(train_t))
    d2 = ((w[:, None, :] - train_w[None, :, :]) ** 2).sum(axis=2)
    if k == len(train_t):
        idx = np.broadcast_to(np.arange(len(train_t)), (len(w), len(train_t)))
    else:
        idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return train_t[idx].mean(axis=1)


def _naive_knn(train_w, train_t, k, w):
    out = np.empty(len(w))
    for i, x in enumerate(w):
        d2 = ((train_w - x) ** 2).sum(axis=1)
        out[i] = train_t[np.argsort(d2, kind="stable")[:k]].mean()
    return out


def _naive_nw(train_w, train_t, bandwidth, w):
    out = np.empty(len(w))
    for i, x in enumerate(w):
        logk = -0.5 * (((x - train_w) / bandwidth) ** 2).sum(axis=1)
        weights = np.exp(logk - logk.max())
        out[i] = (weights * train_t).sum() / weights.sum()
    return out


def _default_bw(train_w):
    return train_w.std(axis=0, ddof=1) * len(train_w) ** (-0.2)


KERNEL_RTOL = 1e-12
BLOCK_ROWS_AT_500 = KERNEL_BLOCK_PAIRS // 500


def _untreated(w, t):
    return _dataset(w, np.zeros(len(w)), t)


def _kernel_shapes():
    # query counts: one row, a count that is not a multiple of the block
    # row count, and one whose (m, n) grid exceeds the block budget
    return (1, BLOCK_ROWS_AT_500 + 7, 3 * BLOCK_ROWS_AT_500 + 1)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("k", [1, 9, 500])
def test_knn_matches_broadcast_reference_bitwise(d, k):
    rng = np.random.default_rng(100 + d)
    train_w = rng.uniform(-1, 1, (500, d))
    train_t = rng.standard_normal(500)
    qhat = fit_outcome(_untreated(train_w, train_t), LearnerSpec("knn", k=k))
    for m in _kernel_shapes():
        probe = rng.uniform(-1.2, 1.2, (m, d))
        assert np.array_equal(qhat(probe), _broadcast_knn(train_w, train_t, k, probe))


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_knn_matches_broadcast_reference_on_tied_grid(d):
    # integer lattices make many neighbours exactly equidistant, so the
    # selected set depends on the distances being bit-identical
    rng = np.random.default_rng(200 + d)
    train_w = rng.integers(-3, 4, (600, d)).astype(float)
    train_t = rng.standard_normal(600)
    probe = rng.integers(-3, 4, (2 * (KERNEL_BLOCK_PAIRS // 600) + 5, d)).astype(float)
    for k in (1, 4, 25):
        qhat = fit_outcome(_untreated(train_w, train_t), LearnerSpec("knn", k=k))
        assert np.array_equal(qhat(probe), _broadcast_knn(train_w, train_t, k, probe))


@pytest.mark.parametrize("d", [8, 11])
def test_knn_matches_naive_reference_in_high_dimension(d):
    rng = np.random.default_rng(300 + d)
    train_w = rng.uniform(-1, 1, (500, d))
    train_t = rng.uniform(1.0, 2.0, 500)
    qhat = fit_outcome(_untreated(train_w, train_t), LearnerSpec("knn", k=7))
    for m in _kernel_shapes():
        probe = rng.uniform(-1, 1, (m, d))
        assert np.allclose(qhat(probe), _naive_knn(train_w, train_t, 7, probe),
                           rtol=KERNEL_RTOL, atol=0.0)


# ---------------------------------------------------------------------------
# the kNN cell index: a query answers from its box of 3**d cells only when
# no row outside the box can be as near as its k-th neighbour, else from the
# slabs that box's k-th distance reaches under the same test, else from all
# rows, so every prediction equals the stated rule over all rows, bit for bit


def _knn_by_cells(monkeypatch, train_w, train_t, k, probe):
    """kNN predictions at ``probe``, the cell grid they used (the test fails if
    none of more than one cell was built), and the column count of every
    (rows, columns) ranking, a query ranked again in a wider box counted again."""
    grids, ranked = [], []

    class Recording(learners._CellGrid):
        def __init__(self, *args):
            super().__init__(*args)
            grids.append(self)

    def block(q, t_cols, targets, k, bufs, box):
        # a box pass pads each box with columns of +inf
        ranked.extend(np.isfinite(t_cols[0]).sum(axis=-1)[box])
        return real_block(q, t_cols, targets, k, bufs, box)

    real_block = learners._knn_block
    monkeypatch.setattr(learners, "_CellGrid", Recording)
    monkeypatch.setattr(learners, "_knn_block", block)
    got = fit_outcome(_untreated(train_w, train_t), LearnerSpec("knn", k=k))(probe)
    monkeypatch.undo()
    assert len(grids) == 1 and grids[0].cells > 1, "no cell index served the predictions"
    assert np.array_equal(got, _naive_knn(train_w, train_t, k, probe))
    return got, grids[0], np.array(ranked)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_knn_cell_index_matches_the_stated_rule_over_all_rows(monkeypatch, d):
    # a tenth of the queries lie beyond the fitting range, some far beyond
    rng = np.random.default_rng(600 + d)
    train_w = rng.uniform(-1, 1, (1200, d))
    train_t = rng.standard_normal(1200)
    probe = rng.uniform(-1, 1, (2000, d))
    beyond = rng.choice([1.3, 5.0], (200, 1))
    probe[::10] *= beyond
    _, grid, ranked = _knn_by_cells(monkeypatch, train_w, train_t, 20, probe)
    assert grid.cells == {1: 120, 2: 10, 3: 4}[d]
    # most queries answer from their box and the rest from a wider one; only
    # queries five times beyond the range reach every slab, all 1200 rows
    assert len(probe) < len(ranked) < 1.25 * len(probe)
    assert 0 < np.count_nonzero(ranked == 1200) <= np.count_nonzero(beyond == 5.0)


def test_knn_cell_index_keeps_the_lower_row_on_a_tie_at_the_kth_distance(monkeypatch):
    # the 33 x 33 integer lattice in shuffled row order; k = 8 gives 16 cells
    # per axis of width 2, so every even coordinate lies exactly on a cell
    # face, and a lattice query ties 4 rows at squared distance 2 for its
    # last 3 places
    rng = np.random.default_rng(700)
    lattice = np.stack(np.meshgrid(np.arange(33.0), np.arange(33.0)), -1).reshape(-1, 2)
    train_w = lattice[rng.permutation(len(lattice))]
    train_t = rng.standard_normal(len(lattice))
    probe = np.concatenate([np.repeat(lattice, 4, axis=0), rng.uniform(-3, 36, (300, 2)),
                            rng.integers(-2, 18, (300, 2)) * 2.0])
    got, grid, _ = _knn_by_cells(monkeypatch, train_w, train_t, 8, probe)
    assert grid.cells == 16 and grid.scale.tolist() == [0.5, 0.5]
    # at (10, 10): itself, its 4 rows at distance 1 and the 3 lowest-index
    # rows of the 4 at squared distance 2, summed in (distance, row) order
    d2 = ((train_w - [10.0, 10.0]) ** 2).sum(axis=1)
    rows = [i for dist in (0.0, 1.0, 2.0) for i in np.flatnonzero(d2 == dist)][:8]
    at = np.flatnonzero((probe == [10.0, 10.0]).all(axis=1))[0]
    assert got[at] == train_t[rows].sum() / 8
    # covariates offset by 1e6 keep every coordinate and squared distance exact
    assert np.array_equal(
        _knn_by_cells(monkeypatch, train_w + 1e6, train_t, 8, probe + 1e6)[0], got)


@pytest.mark.parametrize("d, k", [(1, 9), (2, 7)])
def test_knn_cell_index_with_duplicate_rows_on_an_integer_grid(monkeypatch, d, k):
    # integer rows with many duplicates: a row outside a query's box can tie
    # its k-th neighbour exactly, and then the box may not answer, and the
    # query ranks again in the wider box
    rng = np.random.default_rng(1100 + d)
    train_w = rng.integers(0, 24, (200, d)).astype(float)
    train_t = rng.standard_normal(200)
    probe = rng.integers(-2, 27, (4200, d)).astype(float)
    ranked = _knn_by_cells(monkeypatch, train_w, train_t, k, probe)[2]
    assert len(probe) < len(ranked) and np.count_nonzero(ranked == 200) < len(probe)


def test_knn_cell_index_answers_do_not_depend_on_the_query_set(monkeypatch):
    rng = np.random.default_rng(800)
    train_w = rng.uniform(-1, 1, (1000, 2)) + 1e6
    train_t = rng.standard_normal(1000)
    probe = rng.uniform(-1.1, 1.1, (3000, 2)) + 1e6
    got = _knn_by_cells(monkeypatch, train_w, train_t, 12, probe)[0]
    predict = fit_outcome(_untreated(train_w, train_t), LearnerSpec("knn", k=12))
    order = rng.permutation(len(probe))
    assert np.array_equal(predict(probe[order]), got[order])
    # a split in two calls, the 100-query part fewer than the 144 cells:
    # both go through the index
    parts = np.concatenate([predict(probe[:2900]), predict(probe[2900:])])
    assert np.array_equal(parts, got)


def test_knn_cell_index_with_a_constant_covariate(monkeypatch):
    # the constant column is one slab, so a box spans a strip of cells;
    # queries off the constant value add the same term to every distance
    rng = np.random.default_rng(900)
    train_w = np.column_stack([rng.uniform(-1, 1, 1500), np.full(1500, 0.5)])
    train_t = rng.standard_normal(1500)
    probe = np.column_stack([rng.uniform(-1.2, 1.2, 2500), rng.choice([0.5, 0.7], 2500)])
    _, grid, ranked = _knn_by_cells(monkeypatch, train_w, train_t, 30, probe)
    assert grid.scale[1] == 0.0 and np.count_nonzero(ranked < 1500) >= len(probe)


def test_knn_cell_index_ranks_a_box_of_exactly_k_rows(monkeypatch):
    # 100 evenly spaced rows, k = 10: 20 cells of 5 rows, so an end cell's
    # box holds the 10 rows of two cells, and its queries rank exactly k
    rng = np.random.default_rng(1000)
    train_w = np.arange(100.0)[:, None]
    train_t = rng.standard_normal(100)
    probe = np.concatenate([rng.uniform(-5, 104, (3300, 1)), np.linspace(0, 4.5, 10)[:, None]])
    _, grid, ranked = _knn_by_cells(monkeypatch, train_w, train_t, 10, probe)
    assert np.diff(grid.box_starts)[[0, 19]].tolist() == [10, 10]
    assert np.count_nonzero(ranked == 10) >= 10


def test_knn_cells_takes_the_integer_root_exactly():
    # 64 ** (1 / 3) is 3.9999999999999996 in floating point
    assert learners._knn_cells(1600, 3, 50) == 4
    # 2n / k = c**d exactly gives c cells per axis, one row fewer c - 1
    for c, d in [(4, 2), (5, 2), (10, 2), (12, 2), (4, 3), (5, 3), (10, 3), (4, 4), (5, 4)]:
        n = c ** d * 5
        assert learners._knn_cells(n, d, 10) == c
        assert learners._knn_cells(n - 1, d, 10) == (c - 1 if c > 4 else 1)


def test_knn_at_the_cross_fit_fold_shape(monkeypatch):
    # five folds of 2000 rows of the default process: q is fit on about 800
    # untreated rows at the default k (29) over 7 x 7 cells, and predicts
    # the fold's 400 rows through the cell index
    grids = []

    class Recording(learners._CellGrid):
        def __init__(self, *args):
            super().__init__(*args)
            self.queries = []  # the query count of each bound on this index
            grids.append(self)

        def exact_below(self, w, lo, hi):
            self.queries.append(len(w))
            return super().exact_below(w, lo, hi)

    monkeypatch.setattr(learners, "_CellGrid", Recording)
    data = generate(default_logistic_linear(), 2000, 3)
    plan = FoldPlan.build(2000, 5, 0)
    for fold in range(5):
        test = plan.assignment == fold
        train = data.subset(~test)
        w0, y0 = train.w[train.a == 0], train.y[train.a == 0]
        k = math.ceil(math.sqrt(len(y0)))
        predict = fit_outcome(train, LearnerSpec("knn"))
        probe = data.w[test]
        assert np.array_equal(predict(probe), _naive_knn(w0, y0, k, probe))
        assert len(grids) == fold + 1 and grids[-1].cells == 7
        # one query, and fewer queries than cells, on the same fit and index
        for part in (probe[:1], probe[:48]):
            bounds = len(grids[-1].queries)
            assert np.array_equal(predict(part), _naive_knn(w0, y0, k, part))
            # the call's first bound, its boxes', covers all its queries
            assert len(grids) == fold + 1 and grids[-1].queries[bounds] == len(part)


def test_knn_at_the_smoother_study_shapes_ranks_all_rows_for_few_queries(monkeypatch):
    # the two kNN shapes of a smoother study: an in-sample fit of an n = 5000
    # draw (its untreated rows fit, k = 51, every row a query, 9 x 9 cells)
    # and one cross-fit fold of an n = 2000 draw (815 rows fit, k = 29, 400
    # queries, 7 x 7 cells).  A query its box cannot answer, nearly always
    # in an edge cell of a sparse corner, ranks the slabs its box's k-th
    # distance reaches; ranking all rows for it, 4% and 8% of the queries
    # would take 30% and 36% of the ranked pairs
    data = generate(default_logistic_linear(), 5000, 11)
    small = generate(default_logistic_linear(), 2000, 3)
    fold = FoldPlan.build(2000, 5, 0).assignment == 0
    train = small.subset(~fold)
    for fit, probe, cells in ((data, data.w, 9), (train, small.w[fold], 7)):
        w0, y0 = fit.w[fit.a == 0], fit.y[fit.a == 0]
        _, grid, ranked = _knn_by_cells(monkeypatch, w0, y0, math.ceil(math.sqrt(len(y0))), probe)
        assert grid.cells == cells
        everything = ranked == len(y0)
        assert np.count_nonzero(everything) < 0.01 * len(probe)
        assert ranked[everything].sum() < 0.01 * ranked.sum()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("clustered", [False, True])
def test_knn_stored_boxes_hold_each_row_once_per_neighbouring_cell(d, clustered):
    # a fitting row is stored once in the box of each cell at most one slab
    # from its own per covariate: at most 3**d * n row indices, whatever the
    # rows' spread, and every box's rows ascending
    rng = np.random.default_rng(1400 + d)
    w = rng.uniform(-1, 1, (2000, d))
    if clustered:  # 90% of the rows in one cell, as 60 repeated points
        w[:1800] = (0.2013 + rng.uniform(0.0, 1e-4, (60, d)))[rng.integers(0, 60, 1800)]
    cells = learners._knn_cells(2000, d, 8)
    grid = learners._CellGrid(w, w.min(axis=0), w.max(axis=0), cells)
    slabs = grid.slabs(w)
    neighbours = np.prod(1 + (slabs > 0) + (slabs < cells - 1), axis=0)
    assert grid.box_rows.size == grid.box_starts[-1] == neighbours.sum() <= 3 ** d * 2000
    assert len(grid.box_starts) == cells ** d + 1
    assert all((np.diff(box) > 0).all() for box in np.split(grid.box_rows, grid.box_starts[1:-1]))


def test_knn_ranks_all_rows_for_queries_no_box_can_answer(monkeypatch):
    # a wider box whose bound certifies nothing, as rounding at its edge
    # could make it, leaves its queries to the last pass over all rows
    rng = np.random.default_rng(1600)
    train_w = rng.uniform(-1, 1, (1200, 2))
    train_t = rng.standard_normal(1200)
    probe = rng.uniform(-1.3, 1.3, (2000, 2))
    bounds = []

    class Unsure(learners._CellGrid):
        def exact_below(self, w, lo, hi):
            bounds.append(len(w))
            bound = super().exact_below(w, lo, hi)
            return bound if len(bounds) == 1 else np.zeros_like(bound)

    monkeypatch.setattr(learners, "_CellGrid", Unsure)
    _, _, ranked = _knn_by_cells(monkeypatch, train_w, train_t, 20, probe)
    # the queries the first boxes fail rank twice more, the last time all rows
    assert len(bounds) == 2 and 0 < bounds[1] == np.count_nonzero(ranked == 1200)
    assert len(ranked) == len(probe) + 2 * bounds[1]


def test_knn_wider_boxes_come_in_groups_of_bounded_size(monkeypatch):
    # queries far beyond the fitting rows fail their boxes in every edge
    # cell and reach every slab: the wider boxes, 2000 rows each, are built
    # at most KERNEL_BLOCK_PAIRS (box, row) pairs at a time
    rng = np.random.default_rng(1500)
    train_w = rng.uniform(-1, 1, (2000, 2))
    train_t = rng.standard_normal(2000)
    probe = np.concatenate([rng.uniform(-1, 1, (500, 2)), rng.uniform(-50, 50, (1500, 2))])
    built = []

    class Recording(learners._CellGrid):
        def rectangles(self, lo, hi):
            starts, rows = super().rectangles(lo, hi)
            built.append(len(rows))
            return starts, rows

    monkeypatch.setattr(learners, "_CellGrid", Recording)
    got = fit_outcome(_untreated(train_w, train_t), LearnerSpec("knn", k=8))(probe)
    assert np.array_equal(got, _naive_knn(train_w, train_t, 8, probe))
    assert len(built) > 1 and max(built) <= KERNEL_BLOCK_PAIRS


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_knn_cell_index_with_clustered_duplicate_rows(monkeypatch, d):
    # 90% of 2000 rows are 60 points, each repeated, inside one cell; the
    # rest spread over [-1, 1]**d.  k = 8 gives 500, 22, 7 and 4 cells per
    # axis, so the index applies at d = 4 too.
    rng = np.random.default_rng(1300 + d)
    points = 0.2013 + rng.uniform(0.0, 1e-4, (60, d))
    train_w = np.concatenate([points[rng.integers(0, 60, 1800)], rng.uniform(-1, 1, (200, d))])
    train_w[-2:] = [[-1.0] * d, [1.0] * d]
    train_t = rng.standard_normal(2000)
    probe = np.concatenate([points[rng.integers(0, 60, 500)], points + 5e-5,
                            rng.uniform(-1.1, 1.1, (1000, d))])
    _, grid, _ = _knn_by_cells(monkeypatch, train_w, train_t, 8, probe)
    assert grid.cells == {1: 500, 2: 22, 3: 7, 4: 4}[d]
    sizes = np.diff(grid.box_starts)
    assert sizes.max() >= 1800  # one cell's box holds the cluster
    # each box once: at most 3**d row indices a fitting row, and one offset
    # a cell; a table padded to the widest box would hold many more
    assert grid.box_rows.size == sizes.sum() <= 3 ** d * 2000
    assert len(grid.box_starts) == grid.cells ** d + 1
    assert grid.cells ** d * sizes.max() > 3 ** d * 2000


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("bandwidth", [None, 0.15])
def test_kernel_matches_naive_reference(d, bandwidth):
    rng = np.random.default_rng(400 + d)
    train_w = rng.uniform(-1, 1, (500, d))
    train_t = rng.uniform(1.0, 2.0, 500)
    spec = LearnerSpec("kernel-nw", bandwidth=bandwidth)
    qhat = fit_outcome(_untreated(train_w, train_t), spec)
    bw = _default_bw(train_w) if bandwidth is None else np.full(d, bandwidth)
    for m in _kernel_shapes():
        probe = rng.uniform(-1.2, 1.2, (m, d))
        assert np.allclose(qhat(probe), _naive_nw(train_w, train_t, bw, probe),
                           rtol=KERNEL_RTOL, atol=0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("offset", [1e2, 1e4, 1e6])
def test_kernel_matches_naive_reference_under_covariate_offsets(d, offset):
    # the log-weights x.t - |t|^2 / 2 cancel on covariates far from the
    # origin unless both sides are centered first
    rng = np.random.default_rng(500 + d)
    train_w = rng.uniform(-1, 1, (500, d)) + offset
    train_t = rng.uniform(1.0, 2.0, 500)
    qhat = fit_outcome(_untreated(train_w, train_t), LearnerSpec("kernel-nw"))
    for m in _kernel_shapes():
        probe = rng.uniform(-1.2, 1.2, (m, d)) + offset
        assert np.allclose(qhat(probe), _naive_nw(train_w, train_t, _default_bw(train_w), probe),
                           rtol=KERNEL_RTOL, atol=0.0)


def test_single_row_query_returns_float():
    rng = np.random.default_rng(7)
    train_w = rng.uniform(-1, 1, (50, 2))
    train_t = rng.uniform(1.0, 2.0, 50)
    data = _untreated(train_w, train_t)
    x = np.array([0.1, -0.2])
    for spec in (LearnerSpec("knn", k=5), LearnerSpec("kernel-nw")):
        qhat = fit_outcome(data, spec)
        val = qhat(x)
        assert isinstance(val, float)
        assert val == qhat(x[None, :])[0]
    assert fit_outcome(data, LearnerSpec("knn", k=5))(x) == _naive_knn(
        train_w, train_t, 5, x[None, :])[0]


def test_kernel_far_query_in_every_block_degrades_to_nearest_neighbor():
    rng = np.random.default_rng(8)
    train_w = rng.uniform(-1, 1, (500, 2))
    train_t = rng.uniform(1.0, 2.0, 500)
    qhat = fit_outcome(_untreated(train_w, train_t), LearnerSpec("kernel-nw", bandwidth=0.1))
    m = 3 * BLOCK_ROWS_AT_500 + 1
    probe = rng.uniform(-1, 1, (m, 2))
    far = np.arange(0, m, BLOCK_ROWS_AT_500)
    probe[far] = [50.0, 50.0]
    vals = qhat(probe)
    assert np.all(np.isfinite(vals))
    nearest = train_t[np.argmin(((train_w - 50.0) ** 2).sum(axis=1))]
    assert np.allclose(vals[far], nearest, atol=1e-8)
    near = np.setdiff1d(np.arange(m), far)
    assert np.allclose(vals[near], _naive_nw(train_w, train_t, np.full(2, 0.1), probe[near]),
                       rtol=KERNEL_RTOL, atol=0.0)


def _rowmax_nw(train_w, train_t, bandwidth, w):
    """Kernel-NW in the centered row-max form: log-weights x.t - |t|^2 / 2
    less their row max, in one product over all of ``w``."""
    center = train_w.mean(axis=0)
    t = (train_w - center) / bandwidth
    right = np.vstack([t.T, -0.5 * np.square(t).sum(axis=1)])
    logk = np.column_stack([(w - center) / bandwidth, np.ones(len(w))]) @ right
    logk -= logk.max(axis=1, keepdims=True)
    sums = np.exp(logk) @ np.column_stack([train_t, np.ones(len(train_t))])
    return sums[:, 0] / sums[:, 1]


def test_kernel_block_mixing_near_and_far_queries():
    # a third of one block's queries lie 37 to 45 bandwidths from every
    # fitting row, where every exact weight underflows: those rows take the
    # row-max form, the others keep the exact form
    rng = np.random.default_rng(12)
    train_w = rng.uniform(-1, 1, (500, 2))
    train_t = rng.uniform(1.0, 2.0, 500)
    qhat = fit_outcome(_untreated(train_w, train_t), LearnerSpec("kernel-nw", bandwidth=0.1))
    probe = rng.uniform(-1, 1, (BLOCK_ROWS_AT_500, 2))
    far = np.arange(0, len(probe), 3)
    probe[far, 0] = train_w[:, 0].max() + rng.uniform(3.7, 4.5, len(far))
    vals = qhat(probe)
    assert np.array_equal(vals[far], _rowmax_nw(train_w, train_t, np.full(2, 0.1), probe[far]))
    near = np.setdiff1d(np.arange(len(probe)), far)
    assert np.allclose(vals[near], _naive_nw(train_w, train_t, np.full(2, 0.1), probe[near]),
                       rtol=KERNEL_RTOL, atol=0.0)


@pytest.mark.parametrize("fit", [fit_outcome, fit_propensity])
def test_kernel_predicts_far_and_overflowing_queries_without_warnings(fit):
    # far queries underflow every weight, and at 1e154 the query's own
    # |x|^2 overflows; both fall back to the row-max form, silently
    rng = np.random.default_rng(13)
    w = rng.uniform(-1, 1, (300, 2))
    data = _dataset(w, rng.uniform(size=300) < 0.5, rng.standard_normal(300))
    probe = np.concatenate([w, w + 4.5, [[1e154, 0.0], [0.0, -1e154]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = fit(data, LearnerSpec("kernel-nw", bandwidth=0.1))(probe)
    assert np.isfinite(vals).all()


def test_kernel_with_a_tiny_bandwidth_returns_each_rows_own_target():
    # rows about 1e10 bandwidths apart: rounding in the exact log-weights
    # overflows some denominators, and those rows fall back to the row-max
    # form, where every other row's weight underflows to 0
    rng = np.random.default_rng(14)
    w = rng.uniform(-1, 1, (200, 2))
    y = rng.standard_normal(200)
    qhat = fit_outcome(_untreated(w, y), LearnerSpec("kernel-nw", bandwidth=1e-10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(qhat(w), y)


def test_smoother_predictions_run_in_bounded_memory():
    # the broadcast kernels held an (m, n, d) float array: about 256 MB
    # per temporary at m = n = 4000, d = 2
    rng = np.random.default_rng(9)
    n = 4000
    train_w = rng.uniform(-1, 1, (n, 2))
    train_t = rng.standard_normal(n)
    probe = rng.uniform(-1, 1, (n, 2))
    data = _untreated(train_w, train_t)
    for spec in (LearnerSpec("kernel-nw"), LearnerSpec("knn")):
        qhat = fit_outcome(data, spec)
        tracemalloc.start()
        try:
            qhat(probe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, (spec.kind, peak)
