"""Learner oracles: frozen closed-form fits and rate-calibrated behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from eifkit import Dataset, LearnerSpec, fit_outcome, fit_propensity, oracle_rate_nuisance
from eifkit.learners import (
    DEFAULT_TRUNCATION,
    KERNEL_BLOCK_PAIRS,
    fit_nuisance,
    perturbation_shape,
    truncate_propensity,
)
from eifkit.errors import (
    DegenerateTreatment,
    InvalidLearnerSpec,
    NoUntreatedRows,
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


# ---------------------------------------------------------------------------
# specs, defaults, determinism


def test_spec_validation():
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec("nope")
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec("linear-ols", truncation=0.6)
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
])
def test_spec_rejects_non_numeric_fields(fields):
    with pytest.raises(InvalidLearnerSpec):
        LearnerSpec.from_dict(fields)


def test_spec_accepts_numpy_numbers():
    assert LearnerSpec("knn", k=np.int64(5)).k == 5
    assert LearnerSpec("kernel-nw", bandwidth=np.float64(0.2)).bandwidth == 0.2
    assert LearnerSpec("kernel-nw", bandwidth=1).bandwidth == 1


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
        idx = np.argpartition(d2, kth=k - 1, axis=1)[:, :k]
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
