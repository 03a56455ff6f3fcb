"""Remainder identities, Cauchy-Schwarz bounds, and the four-term split."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eifkit import (
    Dataset,
    FiniteDistribution,
    LearnerSpec,
    decompose_error,
    quadrature_distribution,
    default_logistic_linear,
    draw_dataset,
    eif_integral,
    g_of,
    pathwise_derivative_check,
    q_of,
    remainder_exact_psi,
    remainder_exact_theta,
    remainder_rate_sweep,
    truth_functions,
)
from eifkit.cli import main
from eifkit.distributions import DEFAULT_STEP_GRID, _extrapolate_to_zero, save_distribution
from eifkit.learners import FittedNuisance, fit_nuisance, oracle_rate_nuisance
from eifkit.errors import (
    ConfigError,
    NoTreatedMass,
    PositivityViolation,
    ZeroMassConditioning,
)

from conftest import RefLaw, direction_from, perturbed_nuisance, random_distribution


def _exact_nuisance(dist):
    tq, tg = truth_functions(dist)
    return FittedNuisance(tq, tg)


# ---------------------------------------------------------------------------
# the two remainder routes agree


@given(st.integers(0, 2**32 - 1))
def test_psi_remainder_identity(seed):
    rng = np.random.default_rng(seed)
    dist = random_distribution(rng)
    nuis = perturbed_nuisance(dist, rng)
    rep = remainder_exact_psi(dist, nuis)
    assert rep.identity_gap < 1e-10
    assert abs(rep.remainder_closed_form) <= rep.cs_bound * (1 + 1e-12) + 1e-15


@given(st.integers(0, 2**32 - 1))
def test_theta_remainder_identity_any_treated_fraction(seed):
    rng = np.random.default_rng(seed)
    dist = random_distribution(rng)
    nuis = perturbed_nuisance(dist, rng)
    # identity must hold for treated fractions away from the true Pr(A=1)
    pn_a = float(rng.uniform(0.15, 0.95))
    rep = remainder_exact_theta(dist, nuis, pn_a)
    assert rep.identity_gap < 1e-10
    assert abs(rep.remainder_closed_form) <= rep.cs_bound * (1 + 1e-12) + 1e-15
    assert set(rep.terms) == {"s1", "s2", "s3"}


@given(st.integers(0, 2**32 - 1))
def test_one_product_and_quotient_rule_gives_both_closed_forms(seed):
    # with h = E[m | W] and D = E[m] (hats on the estimates), the weighted
    # mean's remainder is s1 + s2 + s3 (module docstring): psi's h = D = 1
    # leaves s1 alone, theta's h = 1 - g and D = Pr(A=1) give its three terms
    rng = np.random.default_rng(seed)
    dist = random_distribution(rng)
    nuis = perturbed_nuisance(dist, rng)
    pn_a = float(rng.uniform(0.15, 0.95))
    t = dist.support_table
    pw, q, g = t.pw, t.q, t.g
    qh, gh = nuis.predict_q(t.w), nuis.predict_g(t.w)
    for rep, h, hh, d, dh in ((remainder_exact_psi(dist, nuis), 1.0, 1.0, 1.0, 1.0),
                              (remainder_exact_theta(dist, nuis, pn_a), 1.0 - g, 1.0 - gh,
                               t.pr_a1, pn_a)):
        truth = math.fsum(pw * h * q) / d
        plugin = math.fsum(pw * h * qh) / d
        terms = {"s1": -math.fsum(pw * (g - gh) / gh * hh * (q - qh)) / dh,
                 "s2": math.fsum(pw * (hh - h) * (qh - q)) / dh,
                 "s3": -(d - dh) / dh * (truth - plugin)}
        assert rep.remainder_closed_form == pytest.approx(sum(terms.values()), abs=1e-12)
        assert rep.remainder_direct == pytest.approx(sum(terms.values()), abs=1e-12)
        if rep.terms is not None:
            assert rep.terms == pytest.approx(terms, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_exact_nuisances_zero_the_remainder(seed):
    rng = np.random.default_rng(seed)
    dist = random_distribution(rng)
    nuis = _exact_nuisance(dist)
    rep_psi = remainder_exact_psi(dist, nuis)
    assert abs(rep_psi.remainder_direct) < 1e-12
    assert abs(rep_psi.remainder_closed_form) < 1e-12
    pn_a = float(rng.uniform(0.2, 0.9))
    rep_theta = remainder_exact_theta(dist, nuis, pn_a)
    assert abs(rep_theta.remainder_direct) < 1e-12
    # product terms vanish exactly; s3 only up to summation rounding
    assert rep_theta.terms["s1"] == 0.0
    assert rep_theta.terms["s2"] == 0.0
    assert abs(rep_theta.terms["s3"]) < 1e-13


@given(st.integers(0, 2**32 - 1))
def test_single_exact_side_still_zeroes_product_terms(seed):
    # with qhat exact the psi remainder is identically zero even though
    # ghat is wrong (the double-robustness product structure)
    rng = np.random.default_rng(seed)
    dist = random_distribution(rng)
    nuis = perturbed_nuisance(dist, rng, exact_q=True)
    rep = remainder_exact_psi(dist, nuis)
    assert abs(rep.remainder_closed_form) < 1e-12
    assert abs(rep.remainder_direct) < 1e-10


def test_positivity_guard_on_fitted_propensity(four_atom):
    bad = FittedNuisance(
        predict_q=lambda w: np.zeros(len(np.atleast_2d(w))),
        predict_g=lambda w: np.zeros(len(np.atleast_2d(w))),
    )
    with pytest.raises(PositivityViolation):
        remainder_exact_psi(four_atom, bad)


def test_theta_pn_a_validation(four_atom):
    nuis = _exact_nuisance(four_atom)
    with pytest.raises(ValueError):
        remainder_exact_theta(four_atom, nuis, 0.0)
    with pytest.raises(ValueError):
        remainder_exact_theta(four_atom, nuis, 1.2)


def test_cs_bound_hand_computed(four_atom):
    # qhat = q + 1, ghat = g = 1/2 everywhere: closed form = 0 (g exact);
    # bound = max(1/g) * L2(g err) * L2(q err) = 2 * 0 * 1 = 0
    tq, tg = truth_functions(four_atom)
    nuis = FittedNuisance(lambda w: tq(w) + 1.0, tg)
    rep = remainder_exact_psi(four_atom, nuis)
    assert rep.cs_bound == pytest.approx(0.0, abs=1e-14)
    assert abs(rep.remainder_closed_form) < 1e-14


# ---------------------------------------------------------------------------
# four-term decomposition


def _replicated_sample(dist, copies):
    rows, counts = [], []
    for obs, p in dist.atoms:
        c = p * copies
        assert abs(c - round(c)) < 1e-9, "masses must be multiples of 1/copies"
        counts.append(int(round(c)))
        rows.append(obs)
    w = np.concatenate([[obs.w] * c for obs, c in zip(rows, counts)])
    a = np.concatenate([[obs.a] * c for obs, c in zip(rows, counts)])
    y = np.concatenate([[obs.y] * c for obs, c in zip(rows, counts)])
    return Dataset(w=np.asarray(w, dtype=float), a=np.asarray(a, dtype=np.int64),
                   y=np.asarray(y, dtype=float))


@pytest.mark.parametrize("estimand", ["psi", "theta"])
def test_decomposition_closes_exactly(four_atom, estimand):
    rng = np.random.default_rng(21)
    sample = draw_dataset(four_atom, 500, 3)
    nuis = perturbed_nuisance(four_atom, rng)
    rep = decompose_error(four_atom, nuis, sample, estimand=estimand)
    assert abs(rep.closure_gap) < 1e-10
    assert rep.n == 500


def test_exact_nuisance_decomposition_terms_psi(four_atom):
    # with nuisances equal to the truth: remainder 0, drift equals the clt
    # term, and the empirical-process term vanishes
    sample = draw_dataset(four_atom, 400, 5)
    rep = decompose_error(four_atom, _exact_nuisance(four_atom), sample,
                          estimand="psi")
    assert abs(rep.remainder) < 1e-11
    assert rep.drift_term == pytest.approx(rep.clt_term, abs=1e-10)
    assert abs(rep.empirical_process_term) < 1e-10
    assert abs(rep.closure_gap) < 1e-12
    assert abs(rep.total_error) < 1e-10


def test_exact_nuisance_decomposition_terms_theta(four_atom):
    # exact nuisances still leave the empirical treated fraction in the
    # influence-function denominator, so the estimated function is the true
    # one rescaled by Pr(A=1) / P_n(A); drift and the empirical-process
    # term pick up exactly that rescaling while the remainder stays zero
    sample = draw_dataset(four_atom, 400, 5)
    rep = decompose_error(four_atom, _exact_nuisance(four_atom), sample,
                          estimand="theta")
    pn_a = float(np.mean(sample.a))
    ratio = four_atom.pr_a1 / pn_a
    assert pn_a != four_atom.pr_a1  # seed chosen so the fractions differ
    assert abs(rep.remainder) < 1e-11
    assert rep.drift_term == pytest.approx(rep.clt_term * ratio, abs=1e-10)
    assert rep.empirical_process_term == pytest.approx(
        rep.drift_term - rep.clt_term, abs=1e-10
    )
    assert abs(rep.closure_gap) < 1e-12
    assert abs(rep.total_error) < 1e-10


def test_replicated_sample_kills_clt_term(four_atom):
    # a sample whose empirical law equals the truth has P_n phi = E phi = 0
    sample = _replicated_sample(four_atom, 100)
    rng = np.random.default_rng(22)
    nuis = perturbed_nuisance(four_atom, rng)
    rep = decompose_error(four_atom, nuis, sample, estimand="psi")
    assert abs(rep.clt_term) < 1e-12
    # and the total error reduces to minus drift plus ep minus remainder
    assert rep.total_error == pytest.approx(
        -rep.drift_term + rep.empirical_process_term - rep.remainder, abs=1e-10
    )


def test_decompose_rejects_off_support_sample(four_atom):
    sample = Dataset(w=np.array([[9.0]]), a=np.array([1], dtype=np.int64),
                     y=np.array([0.0]))
    with pytest.raises(ZeroMassConditioning):
        decompose_error(four_atom, _exact_nuisance(four_atom), sample)
    # the first row outside the support, in sample order, is the one named
    sample = Dataset(w=np.array([[0.0], [9.0], [1.0], [-3.0], [9.0]]),
                     a=np.array([0, 1, 0, 1, 0]), y=np.zeros(5))
    with pytest.raises(ZeroMassConditioning, match=r"value \(9\.0,\) outside"):
        decompose_error(four_atom, _exact_nuisance(four_atom), sample)


def test_decompose_large_sample_closure():
    dgp = default_logistic_linear()
    table = quadrature_distribution(dgp, nodes=12)
    sample = draw_dataset(table, 10_000, 17)
    nuis = fit_nuisance(sample, LearnerSpec("linear-ols"), LearnerSpec("logistic-irls"))
    for estimand in ("psi", "theta"):
        rep = decompose_error(table, nuis, sample, estimand=estimand)
        assert abs(rep.closure_gap) < 1e-10


# ---------------------------------------------------------------------------
# deterministic rate sweep


def test_sweep_slope_matches_exponent_sum(four_atom):
    tq, tg = truth_functions(four_atom)
    spec = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.05, shape=2)
    rep = remainder_rate_sweep(four_atom, (tq, tg), spec, spec,
                               [2**k for k in range(8, 15, 2)])
    assert rep.slope == pytest.approx(-0.5, abs=0.02)
    ns = [n for n, _, _ in rep.rows]
    assert ns == sorted(ns)
    for _, remainder, bound in rep.rows:
        assert abs(remainder) <= bound + 1e-15


def test_sweep_validation(four_atom):
    tq, tg = truth_functions(four_atom)
    good = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.05)
    with pytest.raises(ValueError):
        remainder_rate_sweep(four_atom, (tq, tg), good, good, [100])
    with pytest.raises(ValueError):
        remainder_rate_sweep(four_atom, (tq, tg), good, good, [400, 200])
    degenerate = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.0)
    with pytest.raises(ValueError):
        remainder_rate_sweep(four_atom, (tq, tg), degenerate, degenerate, [100, 200])


def test_sweep_refuses_a_remainder_that_vanishes(four_atom):
    # with the exact outcome regression the remainder is zero at every n,
    # where log |R| has no slope
    exact = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.0)
    perturbed = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.05)
    with pytest.raises(ConfigError, match=r"^remainder vanished on the grid; slope undefined"):
        remainder_rate_sweep(four_atom, truth_functions(four_atom), exact, perturbed, [100, 200])


@pytest.mark.parametrize("estimand", ["psi", "theta"])
def test_sweep_rows_equal_per_n_remainder_calls(five_atom, estimand):
    spec_q = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.05, shape=2)
    spec_g = LearnerSpec("oracle-rate", rate_exponent=0.5, amplitude=0.1, shape=1)
    grid = [64, 256, 1024, 4096]
    for dist in (five_atom, quadrature_distribution(default_logistic_linear(), nodes=6)):
        truth = truth_functions(dist)
        rep = remainder_rate_sweep(dist, truth, spec_q, spec_g, grid, estimand=estimand)
        want = []
        for n in grid:
            nuis = oracle_rate_nuisance(*truth, n, spec_q, spec_g)
            one = (remainder_exact_psi(dist, nuis) if estimand == "psi"
                   else remainder_exact_theta(dist, nuis, dist.pr_a1))
            want.append((n, one.remainder_direct, one.cs_bound))
        assert rep.rows == tuple(want)


def test_theta_remainder_without_treated_mass_names_the_law():
    # the treated fraction defaults to Pr(A=1) = 0 here, which is not the cause
    dist = FiniteDistribution([(((0.0,), 0, 1.0), 0.5), (((1.0,), 0, 2.0), 0.5)])
    truth = truth_functions(dist)
    spec = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.05)
    message = r"^Pr\(A=1\) = 0; treated-conditional mean undefined$"
    with pytest.raises(NoTreatedMass, match=message):
        remainder_rate_sweep(dist, truth, spec, spec, [100, 200], estimand="theta")
    with pytest.raises(NoTreatedMass, match=message):
        remainder_exact_theta(dist, oracle_rate_nuisance(*truth, 100, spec, spec), dist.pr_a1)


def test_truth_functions_vectorized(five_atom):
    tq, tg = truth_functions(five_atom)
    probe = np.array([[0.0], [1.0], [0.0]])
    assert np.allclose(tq(probe), [2.0, 5.0, 2.0], atol=1e-14)
    assert np.allclose(tg(probe), [0.8, 0.6, 0.8], atol=1e-14)
    assert tq(np.array([1.0])) == pytest.approx(5.0)
    with pytest.raises(ZeroMassConditioning):
        tq(np.array([3.0]))


# ---------------------------------------------------------------------------
# the per-law array path against a per-atom reference
#
# The reference below is the exact layer computed one stratum and one atom
# at a time: Pr(W=w), q, g and the functionals from the running dict sums
# of ``RefLaw``, the mean of the estimated influence function as an atom
# loop, the influence function integral as a sum of per-atom scalar
# influence values, and the mixtures of the derivative check mixed atom by
# atom.  The library evaluates the same terms as arrays over the support
# table the law is built as; math.fsum is exactly rounded, so equal terms
# give equal sums and every comparison below is ``==``.


def _ref_support_tables(dist):
    ref = RefLaw(dist.atoms)
    ws = tuple(ref.w_mass)
    w_matrix = np.array(ws, dtype=float)
    pw = np.array([ref.w_mass[w] for w in ws])
    q = np.array([ref.q(w) for w in ws])
    g = np.array([ref.g(w) for w in ws])
    index = {w: i for i, w in enumerate(ws)}
    return ws, w_matrix, pw, q, g, index


def _ref_nuisance_on_support(nuis, w_matrix):
    qh = np.asarray(nuis.predict_q(w_matrix), dtype=float)
    gh = np.asarray(nuis.predict_g(w_matrix), dtype=float)
    if (gh <= 0.0).any() or (gh > 1.0).any():
        raise PositivityViolation("fitted propensity must take values in (0, 1]")
    return qh, gh


def _ref_mean_phi_hat_psi(dist, index, qh, gh, psi_hat):
    terms = []
    for obs, p in dist.atoms:
        i = index[obs.w]
        residual = (obs.y - qh[i]) / gh[i] if obs.a == 0 else 0.0
        terms.append(p * (residual + qh[i] - psi_hat))
    return math.fsum(terms)


def _ref_mean_phi_hat_theta(dist, index, qh, gh, theta_hat, pn_a):
    terms = []
    for obs, p in dist.atoms:
        i = index[obs.w]
        if obs.a == 0:
            value = (1.0 - gh[i]) / gh[i] * (obs.y - qh[i]) / pn_a
        else:
            value = (qh[i] - theta_hat) / pn_a
        terms.append(p * value)
    return math.fsum(terms)


def _ref_remainder_psi(dist, nuis):
    _, w_matrix, pw, q, g, index = _ref_support_tables(dist)
    qh, gh = _ref_nuisance_on_support(nuis, w_matrix)
    psi_true = RefLaw(dist.atoms).psi()
    psi_hat = math.fsum(pw * qh)
    direct = psi_true - psi_hat - _ref_mean_phi_hat_psi(dist, index, qh, gh, psi_hat)
    closed = -math.fsum(pw * (g - gh) * (q - qh) / gh)
    l2_g = math.sqrt(math.fsum(pw * (g - gh) ** 2))
    l2_q = math.sqrt(math.fsum(pw * (q - qh) ** 2))
    cs_bound = float(np.max(1.0 / gh)) * l2_g * l2_q
    return {"remainder_direct": direct, "remainder_closed_form": closed,
            "cs_bound": cs_bound, "terms": None}


def _ref_remainder_theta(dist, nuis, pn_a):
    _, w_matrix, pw, q, g, index = _ref_support_tables(dist)
    qh, gh = _ref_nuisance_on_support(nuis, w_matrix)
    ref = RefLaw(dist.atoms)
    theta_true = ref.theta()
    pr_a1 = ref.pr_a1
    theta_hat = math.fsum(pw * (1.0 - g) * qh) / pr_a1
    direct = theta_true - theta_hat - _ref_mean_phi_hat_theta(
        dist, index, qh, gh, theta_hat, pn_a)
    s1 = -math.fsum(pw * (g - gh) / gh * (1.0 - gh) * (q - qh)) / pn_a
    s2 = -math.fsum(pw * (gh - g) * (qh - q)) / pn_a
    s3 = -(pr_a1 - pn_a) / pn_a * (theta_true - theta_hat)
    l2_g = math.sqrt(math.fsum(pw * (g - gh) ** 2))
    l2_q = math.sqrt(math.fsum(pw * (q - qh) ** 2))
    cs_bound = (float(np.max((1.0 - gh) / gh)) + 1.0) / pn_a * l2_g * l2_q + abs(s3)
    return {"remainder_direct": direct, "remainder_closed_form": s1 + s2 + s3,
            "cs_bound": cs_bound, "terms": {"s1": s1, "s2": s2, "s3": s3}}


def _ref_decompose(dist, nuis, sample, estimand):
    _, w_matrix, pw, q, g, index = _ref_support_tables(dist)
    qh, gh = _ref_nuisance_on_support(nuis, w_matrix)
    row_idx = np.array([index[tuple(float(x) for x in row)] for row in sample.w])
    n = sample.n
    root_n = math.sqrt(n)
    ind0 = (sample.a == 0).astype(float)
    y = sample.y
    q_i, g_i, qh_i, gh_i = q[row_idx], g[row_idx], qh[row_idx], gh[row_idx]
    ref = RefLaw(dist.atoms)
    if estimand == "psi":
        psi_true = ref.psi()
        psi_hat = math.fsum(pw * qh)
        phi_true = ind0 * (y - q_i) / g_i + q_i - psi_true
        phi_hat = ind0 * (y - qh_i) / gh_i + qh_i - psi_hat
        mean_true = _ref_mean_phi_hat_psi(dist, index, q, g, psi_true)
        mean_hat = _ref_mean_phi_hat_psi(dist, index, qh, gh, psi_hat)
        rem = _ref_remainder_psi(dist, nuis)
        total = root_n * (psi_hat - psi_true)
    else:
        ind1 = 1.0 - ind0
        pn_a = float(np.mean(sample.a))
        theta_true = ref.theta()
        pr_a1 = ref.pr_a1
        theta_hat = math.fsum(pw * (1.0 - g) * qh) / pr_a1
        phi_true = (ind0 * (1.0 - g_i) / g_i * (y - q_i) + ind1 * (q_i - theta_true)) / pr_a1
        phi_hat = (ind0 * (1.0 - gh_i) / gh_i * (y - qh_i) + ind1 * (qh_i - theta_hat)) / pn_a
        mean_true = _ref_mean_phi_hat_theta(dist, index, q, g, theta_true, pr_a1)
        mean_hat = _ref_mean_phi_hat_theta(dist, index, qh, gh, theta_hat, pn_a)
        rem = _ref_remainder_theta(dist, nuis, pn_a)
        total = root_n * (theta_hat - theta_true)
    pn_true = float(np.mean(phi_true))
    pn_hat = float(np.mean(phi_hat))
    return {
        "estimand": estimand,
        "n": n,
        "clt_term": root_n * pn_true,
        "drift_term": root_n * pn_hat,
        "empirical_process_term": root_n * ((pn_hat - pn_true) - (mean_hat - mean_true)),
        "remainder": root_n * rem["remainder_direct"],
        "total_error": total,
    }


def _ref_eif_integral(functional, dist, weights):
    ref = RefLaw(dist.atoms)
    eif = ref.eif_psi if functional == "psi" else ref.eif_theta
    return math.fsum(p * eif(obs) for obs, p in weights.atoms)


def _ref_check(functional, base, direction, step_grid):
    ref, ref_direction = RefLaw(base.atoms), RefLaw(direction.atoms)
    value_fn = RefLaw.psi if functional == "psi" else RefLaw.theta
    f0 = value_fn(ref)
    diffs = [(value_fn(ref.mix(ref_direction, h)) - f0) / h for h in step_grid]
    fd = diffs[0] if len(diffs) == 1 else _extrapolate_to_zero(step_grid, diffs)
    integral = _ref_eif_integral(functional, base, direction)
    return {"finite_difference": fd, "eif_integral": integral,
            "discrepancy": abs(fd - integral)}


def _report_fields(report, names):
    return {name: getattr(report, name) for name in names}


def _assert_matches_reference(dist, nuis, rng, sample=None):
    """Every exact-layer output equals the per-atom reference, bit for bit."""
    rem_names = ("remainder_direct", "remainder_closed_form", "cs_bound", "terms")
    assert _report_fields(remainder_exact_psi(dist, nuis), rem_names) == \
        _ref_remainder_psi(dist, nuis)
    for pn_a in (float(rng.uniform(0.15, 0.95)), dist.pr_a1):
        assert _report_fields(remainder_exact_theta(dist, nuis, pn_a), rem_names) == \
            _ref_remainder_theta(dist, nuis, pn_a)
    ws, w_matrix, _, q, g, _ = _ref_support_tables(dist)
    tq, tg = truth_functions(dist)
    assert tq(w_matrix).tolist() == q.tolist()
    assert tg(w_matrix).tolist() == g.tolist()
    if sample is not None:
        dec_names = ("estimand", "n", "clt_term", "drift_term", "empirical_process_term",
                     "remainder", "total_error")
        for estimand in ("psi", "theta"):
            if estimand == "theta" and not sample.a.any():
                continue
            got = decompose_error(dist, nuis, sample, estimand=estimand)
            assert _report_fields(got, dec_names) == _ref_decompose(dist, nuis, sample, estimand)
    direction = direction_from(dist, rng)
    for functional in ("psi", "theta"):
        for grid in (DEFAULT_STEP_GRID, (1e-2, 5e-3, 2.5e-3)):
            got = pathwise_derivative_check(functional, dist, direction, step_grid=grid)
            assert _report_fields(got, ("finite_difference", "eif_integral", "discrepancy")) \
                == _ref_check(functional, dist, direction, grid)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_array_path_equals_per_atom_reference(seed, d):
    rng = np.random.default_rng(seed)
    dist = random_distribution(rng, d=d, max_y_per_stratum=3)
    sample = draw_dataset(dist, int(rng.integers(1, 60)), seed)
    for exact_q, exact_g in ((False, False), (True, False), (False, True)):
        nuis = perturbed_nuisance(dist, rng, exact_q=exact_q, exact_g=exact_g)
        _assert_matches_reference(dist, nuis, rng, sample)
    _assert_matches_reference(dist, _exact_nuisance(dist), rng, sample)


def _signed_zero_law(d):
    # one stratum is keyed by 0.0 in some atoms and by -0.0 in others:
    # the two compare and hash equal, so they are one covariate value
    zero, negzero = (0.0,) * d, (-0.0,) * d
    mixed = (0.0, -0.0, 0.0)[:d]
    one = (1.0,) * d
    atoms = [((negzero, 0, 1.0), 0.125), ((zero, 0, 3.0), 0.125), ((mixed, 1, 2.0), 0.125),
             ((zero, 1, -0.0), 0.125), ((one, 0, 0.5), 0.25), ((one, 1, -1.0), 0.25)]
    return FiniteDistribution(atoms)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_array_path_equals_reference_on_signed_zero_keys(d):
    dist = _signed_zero_law(d)
    assert len(dist.w_support) == 2
    rng = np.random.default_rng(40 + d)
    w = np.array([(-0.0,) * d, (0.0,) * d, (1.0,) * d, (0.0, -0.0, -0.0)[:d]] * 5)
    sample = Dataset(w=w, a=np.tile([0, 1, 1, 0], 5), y=np.arange(20.0))
    for _ in range(3):
        _assert_matches_reference(dist, perturbed_nuisance(dist, rng), rng, sample)


def test_array_path_on_one_law_reused_and_pickled():
    rng = np.random.default_rng(77)
    dist = random_distribution(rng, max_strata=5, d=2, max_y_per_stratum=3)
    sample = draw_dataset(dist, 80, 7)
    nuisances = [perturbed_nuisance(dist, rng) for _ in range(25)]
    for nuis in nuisances:
        _assert_matches_reference(dist, nuis, rng, sample)
    # the law travels with its table, before its atom pairs are built on
    # first use and after
    fresh = pickle.loads(pickle.dumps(random_distribution(np.random.default_rng(77),
                                                          max_strata=5, d=2,
                                                          max_y_per_stratum=3)))
    used = pickle.loads(pickle.dumps(dist))
    assert "atoms" not in vars(fresh) and "atoms" in vars(used)
    for law in (fresh, used):
        for nuis in nuisances[:5]:
            _assert_matches_reference(law, nuis, rng, sample)
        tq, tg = truth_functions(law)
        assert tq(sample.w).tolist() == truth_functions(dist)[0](sample.w).tolist()


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as err:  # compared by class and message
        return type(err), str(err)


def test_treated_only_stratum_raises_as_before():
    dist = FiniteDistribution([(((0.0,), 0, 1.0), 0.25), (((0.0,), 1, 2.0), 0.25),
                               (((1.0,), 1, 3.0), 0.5)])
    nuis = FittedNuisance(lambda w: np.zeros(len(np.atleast_2d(w))),
                          lambda w: np.full(len(np.atleast_2d(w)), 0.5))
    sample = Dataset(w=np.array([[0.0], [1.0]]), a=np.array([0, 1]), y=np.array([1.0, 3.0]))
    kind, message = _outcome(remainder_exact_psi, dist, nuis)
    assert (kind, message) == (ZeroMassConditioning,
                               "Pr(W=(1.0,), A=0) = 0; E(Y | W=w, A=0) undefined")
    assert _outcome(_ref_remainder_psi, dist, nuis) == (kind, message)
    assert _outcome(remainder_exact_theta, dist, nuis, 0.5) == (kind, message)
    assert _outcome(_ref_remainder_theta, dist, nuis, 0.5) == (kind, message)
    for estimand in ("psi", "theta"):
        assert _outcome(decompose_error, dist, nuis, sample, estimand) == (kind, message)
        assert _outcome(_ref_decompose, dist, nuis, sample, estimand) == (kind, message)
    direction = FiniteDistribution([(((0.0,), 0, 1.0), 1.0)])
    for functional in ("psi", "theta"):
        got = _outcome(pathwise_derivative_check, functional, dist, direction)
        assert got[0] is PositivityViolation
        assert got == _outcome(_ref_check, functional, dist, direction, DEFAULT_STEP_GRID)
    # q is undefined on the treated-only stratum, g is 0 there
    tq, tg = truth_functions(dist)
    assert tg(np.array([[0.0], [1.0]])).tolist() == [0.5, 0.0]
    assert tq(np.array([[0.0]])).tolist() == [1.0]
    assert _outcome(tq, np.array([[1.0]])) == (kind, message)
    assert _outcome(q_of, dist, (1.0,)) == (kind, message)
    assert g_of(dist, (1.0,)) == 0.0


def test_every_strata_lookup_gives_one_text_for_an_absent_w(four_atom):
    # one text from each entry point that looks a covariate vector up
    absent = "covariate value (9.0,) outside the support"
    tq, tg = truth_functions(four_atom)
    nine = np.array([[9.0]])
    wider = FiniteDistribution([(((0.0,), 0, 0.0), 0.5), (((9.0,), 0, 1.0), 0.5)])
    sample = Dataset(w=nine, a=np.array([0]), y=np.array([1.0]))
    for outcome in (_outcome(q_of, four_atom, (9.0,)), _outcome(g_of, four_atom, (9.0,)),
                    _outcome(tq, nine), _outcome(tg, nine),
                    _outcome(eif_integral, "psi", four_atom, wider),
                    _outcome(decompose_error, four_atom, _exact_nuisance(four_atom), sample),
                    _outcome(remainder_exact_psi, wider, _exact_nuisance(four_atom))):
        assert outcome == (ZeroMassConditioning, absent)


@pytest.mark.parametrize("seed", [3, 11])
def test_verify_eif_eif_mean_equals_per_atom_reference(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    base = random_distribution(rng, d=2, max_y_per_stratum=3)
    direction = direction_from(base, rng)
    save_distribution(base, tmp_path / "base.json")
    save_distribution(direction, tmp_path / "direction.json")
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"distribution": "base.json", "direction": "direction.json"}))
    assert main(["verify-eif", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    for functional in ("psi", "theta"):
        assert doc[functional]["eif_mean"] == _ref_eif_integral(functional, base, base)
        check = _ref_check(functional, base, direction, DEFAULT_STEP_GRID)
        for key, value in check.items():
            assert doc[functional]["check"][key] == value


# ---------------------------------------------------------------------------
# theta's exact outputs, pinned by repr: the shipped configs' digests cover
# psi's remainder and sweep and theta's decomposition, not these

_CONSTANT_ORACLE = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.3, shape=2)


def test_theta_remainder_away_from_the_treated_fraction_is_pinned(treated_law):
    nuis = oracle_rate_nuisance(*truth_functions(treated_law), 50, _CONSTANT_ORACLE,
                                _CONSTANT_ORACLE)
    rep = remainder_exact_theta(treated_law, nuis, 0.55)  # Pr(A=1) = 0.4
    assert (repr(rep.remainder_direct), repr(rep.remainder_closed_form), repr(rep.cs_bound)) == (
        "-0.0698717980302001", "-0.06987179803020008", "0.10474663343889135")
    assert {name: repr(value) for name, value in rep.terms.items()} == {
        "s1": "-0.01596155079338799", "s2": "-0.023141676475196098",
        "s3": "-0.03076857076161598"}


def test_theta_sweep_is_pinned(treated_law):
    rep = remainder_rate_sweep(treated_law, truth_functions(treated_law), _CONSTANT_ORACLE,
                               _CONSTANT_ORACLE, [16, 256, 4096], estimand="theta")
    assert [(n, repr(r), repr(b)) for n, r, b in rep.rows] == [
        (16, "-0.08814446831364121", "0.1607142857142857"),
        (256, "-0.025899241208230013", "0.05113636363636361"),
        (4096, "-0.007140736401190277", "0.014802631578947373")]
    # the slope goes through np.log and LAPACK's least squares, whose last
    # bits vary with the SIMD target (one ULP apart on an AVX2-only one)
    assert rep.slope == pytest.approx(-0.45321565819597553, rel=1e-15, abs=0.0)
