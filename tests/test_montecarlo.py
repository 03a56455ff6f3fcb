"""Benchmark DGP truths, replication seeding, and the three study runners."""

import concurrent.futures
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import kstest, kurtosis, skew

from eifkit import (
    DR_ARMS,
    DGPSpec,
    EstimatorConfig,
    FiniteDistribution,
    LearnerSpec,
    default_logistic_linear,
    dr_arm_specs,
    draw_dataset,
    fit_propensity,
    generate,
    generate_with_counterfactual,
    ks_critical_value,
    quadrature_distribution,
    run_coverage,
    run_dr_consistency,
    run_rate_experiment,
)
from eifkit import (
    crossfit,
    decompose_error,
    learners,
    montecarlo,
    oracle_rate_nuisance,
    pathwise_derivative_check,
    remainder_exact_theta,
    remainder_rate_sweep,
    truth_functions,
)
from eifkit.decomposition import _check_n_grid
from eifkit.errors import ConfigError, IrlsDivergence, NoTreatedMass
from eifkit.montecarlo import ReplicationResult, ks_distance, standardized_moments

from conftest import assert_close

# independent midpoint-rule value for the treated-subpopulation truth of
# the benchmark process, frozen here so regressions cannot drift silently
THETA_BENCHMARK = 0.9383490489273973


def _riemann_theta(dgp, m=1000):
    # midpoint rule on the uniform covariate box, no shared code with the
    # Gauss-Legendre path inside DGPSpec.theta
    edges = (np.arange(m) + 0.5) / m * 2.0 - 1.0
    w1, w2 = np.meshgrid(edges, edges, indexing="ij")
    w = np.column_stack([w1.ravel(), w2.ravel()])
    g = expit(dgp.gamma[0] + w @ np.array(dgp.gamma[1:]))
    q = dgp.beta[0] + w @ np.array(dgp.beta[1:])
    return float(np.sum((1.0 - g) * q) / np.sum(1.0 - g))


# ---------------------------------------------------------------------------
# truths of the benchmark process


def test_default_psi_is_exactly_one():
    # the covariate marginal is centered, so only the intercept survives
    assert default_logistic_linear().psi() == 1.0


def test_default_theta_against_independent_quadrature():
    dgp = default_logistic_linear()
    assert_close(dgp.theta(), _riemann_theta(dgp), 1e-6, "theta vs midpoint rule")
    assert_close(dgp.theta(), THETA_BENCHMARK, 1e-9, "theta vs frozen benchmark")


def test_quadrature_table_matches_closed_forms():
    dgp = default_logistic_linear()
    table = quadrature_distribution(dgp, nodes=16)
    # the propensity intercept is zero and the slopes are antisymmetric
    # under w -> -w, so exactly half the mass is treated
    assert_close(table.pr_a1, 0.5, 1e-12, "treated mass")
    from eifkit import psi_of, theta_of

    assert_close(psi_of(table), dgp.psi(), 1e-12, "table psi")
    assert_close(theta_of(table), dgp.theta(), 1e-10, "table theta")


def test_quadrature_table_needs_logistic_linear(five_atom):
    dgp = DGPSpec(kind="discrete-saturated", table=five_atom)
    with pytest.raises(ConfigError):
        quadrature_distribution(dgp)


@pytest.mark.parametrize("nodes", [True, 0, 24.0, -3, "24"])
def test_quadrature_nodes_must_be_an_integer_of_at_least_one(nodes):
    with pytest.raises(ConfigError, match="'nodes' must be an integer >= 1"):
        quadrature_distribution(default_logistic_linear(), nodes)


def test_quadrature_takes_numpy_integer_nodes():
    dgp = default_logistic_linear()
    one = quadrature_distribution(dgp, 1)
    assert len(one.atoms) == 2 and one.pr_a1 == pytest.approx(0.5)
    assert quadrature_distribution(dgp, np.int64(6)).atoms == quadrature_distribution(dgp, 6).atoms


@pytest.mark.parametrize("field, value", [
    ("gamma", ("x",)), ("gamma", (0.0, 1.0, 1.0)), ("beta", [1.0, 1.0, 0.5]),
    ("noise_sd", -5), ("noise_sd", 2.0), ("treated_shift", 0.0), ("treated_shift", True),
])
def test_a_discrete_saturated_dgp_refuses_a_coefficient_field(five_atom, field, value):
    with pytest.raises(ConfigError, match=f"'discrete-saturated' kind does not read '{field}'"):
        DGPSpec(kind="discrete-saturated", table=five_atom, **{field: value})


def test_a_discrete_saturated_dgp_takes_the_coefficient_defaults(five_atom):
    spec = DGPSpec(kind="discrete-saturated", table=five_atom, gamma=(0.0, 0.8, -0.8),
                   beta=(1, 1, 0.5), noise_sd=1.0, treated_shift=1)
    assert spec == DGPSpec(kind="discrete-saturated", table=five_atom)


def test_a_logistic_linear_dgp_refuses_a_table(five_atom):
    with pytest.raises(ConfigError, match="'logistic-linear' kind does not read 'table'"):
        DGPSpec(table=five_atom)


def test_discrete_saturated_dgp_truths(five_atom):
    dgp = DGPSpec(kind="discrete-saturated", table=five_atom)
    assert dgp.psi() == pytest.approx(3.5, abs=1e-12)
    assert dgp.theta() == pytest.approx(4.0, abs=1e-12)
    assert dgp.d == 1
    assert dgp.q(np.array([[0.0], [1.0]])) == pytest.approx([2.0, 5.0])
    assert dgp.g(np.array([[1.0]])) == pytest.approx([0.6])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dgp_truths_are_the_learners_linear_and_logistic_cores_bit_for_bit(d):
    # q and g call the fitted predictors' cores, which equal the plain forms
    # beta0 + w @ beta and logistic(gamma0 + w @ gamma) bit for bit
    rng = np.random.default_rng(d)
    gamma, beta = rng.normal(size=d + 1), 3.0 * rng.normal(size=d + 1)
    dgp = DGPSpec(gamma=tuple(gamma.tolist()), beta=tuple(beta.tolist()))
    for n in (1, 2, 31, 1000, 4097):
        w = rng.uniform(-1.0, 1.0, (n, d))
        q, g = dgp.q(w), dgp.g(w)
        for got, want in ((q, learners._linear_core(beta, False)(w)),
                          (q, w @ beta[1:] + beta[0]),
                          (g, learners._logistic_core(gamma, False)(w)),
                          (g, learners.logistic(w @ gamma[1:] + gamma[0]))):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # one row is a one-row call: numpy may take another BLAS kernel for it
        assert dgp.q(w[0]) == learners._linear_core(beta, False)(w[:1])[0]
        assert dgp.g(w[0]) == learners._logistic_core(gamma, False)(w[:1])[0]


def test_theta_truth_without_treated_mass_is_one_error_for_both_dgp_kinds():
    # logistic(800) is 1.0: no treated mass anywhere, as in a table without treated atoms
    untreated = FiniteDistribution([(((0.0,), 0, 1.0), 0.5), (((1.0,), 0, 2.0), 0.5)])
    for dgp in (DGPSpec(gamma=(800.0, 0.0, 0.0)),
                DGPSpec(kind="discrete-saturated", table=untreated)):
        with pytest.raises(NoTreatedMass) as err:
            dgp.truth("theta")
        assert str(err.value) == "Pr(A=1) = 0; treated-conditional mean undefined"
    assert DGPSpec(gamma=(800.0, 0.0, 0.0)).truth("psi") == 1.0


def test_dgp_validation():
    with pytest.raises(ConfigError):
        DGPSpec(kind="weird")
    with pytest.raises(ConfigError):
        DGPSpec(gamma=(0.0,), beta=(1.0,))
    with pytest.raises(ConfigError):
        DGPSpec(gamma=(0.0, 1.0), beta=(1.0,))
    with pytest.raises(ConfigError):
        DGPSpec(noise_sd=-1.0)
    with pytest.raises(ConfigError):
        DGPSpec(kind="discrete-saturated")
    # an int beyond the float range is no finite number
    with pytest.raises(ConfigError, match="'beta' must be a list of finite numbers"):
        DGPSpec(beta=(10**400, 1.0, 1.0))
    with pytest.raises(ConfigError, match="'noise_sd' must be a finite number"):
        DGPSpec(noise_sd=-10**400)
    # truth checks its estimand: 'tau' is neither psi nor theta
    with pytest.raises(ConfigError, match="unknown estimand 'tau'"):
        DGPSpec().truth("tau")


# ---------------------------------------------------------------------------
# sampling


def test_generate_noiseless_outcomes_are_exact():
    dgp = DGPSpec(noise_sd=0.0)
    data = generate(dgp, 500, 7)
    expected = np.where(
        data.a == 0, dgp.q(data.w), dgp.q(data.w) + dgp.treated_shift
    )
    assert np.array_equal(data.y, expected)
    assert data.w.shape == (500, 2)
    assert np.all(np.abs(data.w) <= 1.0)


def test_generate_is_deterministic_and_seed_sensitive():
    dgp = default_logistic_linear()
    a = generate(dgp, 64, 11)
    b = generate(dgp, 64, 11)
    c = generate(dgp, 64, 12)
    assert np.array_equal(a.w, b.w) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


@pytest.mark.parametrize("n", [1.5, "3", True, 0, -2, None])
def test_generate_refuses_a_sample_size_that_is_not_a_positive_integer(n):
    with pytest.raises(ConfigError, match="'n' must be an integer >= 1"):
        generate(default_logistic_linear(), n, 0)


def test_generate_with_counterfactual_consistency():
    dgp = default_logistic_linear()
    data, y0 = generate_with_counterfactual(dgp, 300, 3)
    untreated = data.a == 0
    assert np.array_equal(data.y[untreated], y0[untreated])
    # treated factual outcomes include the shift, so they differ from the
    # untreated potential outcome by construction
    assert not np.array_equal(data.y[~untreated], y0[~untreated])


def _where_draw(dgp, n, seed):
    """The logistic-linear draw in its plain form: the same draws from the
    same stream, the outcome picked by np.where."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=(n, dgp.d))
    treated = rng.uniform(size=n) >= dgp.g(w)
    q = dgp.q(w)
    y0 = q + dgp.noise_sd * rng.standard_normal(n)
    y1 = q + dgp.treated_shift + dgp.noise_sd * rng.standard_normal(n)
    return w, treated.astype(np.int64), np.where(treated, y1, y0), y0


@pytest.mark.parametrize("n", [1, 2, 20_000])
@pytest.mark.parametrize("noise_sd", [1.0, 0.0])
def test_the_logistic_linear_draw_equals_its_plain_form_bit_for_bit(n, noise_sd):
    dgp = DGPSpec(noise_sd=noise_sd)
    for seed in (7, np.random.SeedSequence([3, 1])):
        data, y0 = generate_with_counterfactual(dgp, n, seed)
        want = _where_draw(dgp, n, seed)
        for got, expected in zip((data.w, data.a, data.y, y0), want):
            assert got.dtype == expected.dtype
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert data.a.dtype == np.int64 and not data.y.flags.writeable


def test_an_overflowing_treated_outcome_is_refused_with_one_overflow_warning():
    # q is finite, q + treated_shift overflows: the sum warns, as it always
    # has outside the truth function's errstate, and the Dataset's refusal
    # of the non-finite outcome follows
    dgp = DGPSpec(beta=(1e307, 0.0, 0.0), treated_shift=1.75e308)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^covariates and outcomes must be finite$"):
            generate(dgp, 200, 0)
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "overflow encountered in add")]


def test_treatment_frequency_tracks_propensity():
    dgp = default_logistic_linear()
    data = generate(dgp, 40_000, 19)
    # Pr(A=1) is 1/2 by symmetry; 4 sigma is about 0.01 at this n
    assert abs(float(np.mean(data.a)) - 0.5) < 0.01


def test_draw_dataset_frequencies(four_atom):
    n = 20_000
    data = draw_dataset(four_atom, n, 23)
    for obs, p in four_atom.atoms:
        hits = np.sum(
            (data.w[:, 0] == obs.w[0]) & (data.a == obs.a) & (data.y == obs.y)
        )
        assert abs(hits / n - p) < 4.0 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("seed", [0, 5])
def test_discrete_draws_match_choice_then_gather(five_atom, seed):
    table = quadrature_distribution(default_logistic_linear(), nodes=6)
    for dist in (five_atom, table):
        rng = np.random.default_rng(seed)
        masses = np.array([p for _, p in dist.atoms])
        idx = rng.choice(len(dist.atoms), size=500, p=masses / masses.sum())
        rows = [dist.atoms[i][0] for i in idx]
        want_w = np.array([obs.w for obs in rows])
        want_a = np.array([obs.a for obs in rows])
        want_y = np.array([obs.y for obs in rows])
        drawn = draw_dataset(dist, 500, seed)
        generated = generate(DGPSpec(kind="discrete-saturated", table=dist), 500, seed)
        for data in (drawn, generated):
            assert np.array_equal(data.w, want_w)
            assert np.array_equal(data.a, want_a)
            assert np.array_equal(data.y, want_y)


def test_discrete_counterfactual_without_untreated_stratum():
    # w = 1 carries only a treated atom: its rows still draw, with no
    # counterfactual; at w = 0 the untreated law is the point mass at 1
    dist = FiniteDistribution([((0.0, 0, 1.0), 0.4), ((0.0, 1, 2.0), 0.2),
                               ((1.0, 1, 3.0), 0.4)])
    dgp = DGPSpec(kind="discrete-saturated", table=dist)
    data, y0 = generate_with_counterfactual(dgp, 200, 4)
    orphan = data.w[:, 0] == 1.0
    assert orphan.any() and np.isnan(y0[orphan]).all()
    assert (y0[~orphan] == 1.0).all()


def test_theta_refuses_oversized_quadrature_grid(monkeypatch):
    from eifkit import montecarlo

    def no_grid(*args, **kwargs):
        raise AssertionError("the tensor grid was built")

    monkeypatch.setattr(montecarlo, "_legendre_grid", no_grid)
    dgp = DGPSpec(gamma=(0.0,) * 6, beta=(1.0,) * 6)
    assert dgp.d == 5
    with pytest.raises(ConfigError):
        dgp.theta()


def test_legendre_rule_is_computed_once_per_node_count():
    from eifkit import montecarlo

    x, w = np.polynomial.legendre.leggauss(12)
    rule = montecarlo._legendre_rule(12)
    assert montecarlo._legendre_rule(12) is rule
    assert x.tolist() == rule[0].tolist() and (w / 2.0).tolist() == rule[1].tolist()
    assert not (rule[0].flags.writeable or rule[1].flags.writeable)
    # the grid built on the cached rule is the caller's own array
    points, weights = montecarlo._legendre_grid(12, 2)
    assert points.flags.writeable and weights.flags.writeable
    # a float node count still reaches leggauss, which refuses it
    with pytest.raises(TypeError):
        montecarlo._legendre_rule(12.0)


def test_discrete_generate_stays_on_support(five_atom):
    dgp = DGPSpec(kind="discrete-saturated", table=five_atom)
    data, y0 = generate_with_counterfactual(dgp, 400, 2)
    support = {(obs.w[0], obs.a, obs.y) for obs, _ in five_atom.atoms}
    rows = {(float(w[0]), int(a), float(y)) for w, a, y in zip(data.w, data.a, data.y)}
    assert rows <= support
    # counterfactual untreated outcomes must come from the untreated
    # conditional law at the same covariate value
    untreated_y = {(obs.w[0], obs.y) for obs, _ in five_atom.atoms if obs.a == 0}
    assert {(float(w[0]), float(v)) for w, v in zip(data.w, y0)} <= untreated_y


def _draws(five_atom):
    yield generate_with_counterfactual(default_logistic_linear(), 300, 5)
    yield generate_with_counterfactual(DGPSpec(kind="discrete-saturated", table=five_atom), 300, 5)


def test_drawn_datasets_are_read_only(five_atom):
    datasets = [data for data, _ in _draws(five_atom)]
    datasets += [generate(default_logistic_linear(), 50, 1), draw_dataset(five_atom, 50, 1)]
    for data in datasets:
        for arr in (data.w, data.a, data.y):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert data.a.dtype == np.int64 and data.w.dtype == data.y.dtype == np.float64


def test_counterfactual_is_not_the_dataset_outcome(five_atom):
    for data, y0 in _draws(five_atom):
        assert not np.shares_memory(y0, data.y)
        assert not np.shares_memory(y0, data.w)
        assert y0.flags.writeable


def test_generate_refuses_an_overflowing_outcome():
    # every draw of this DGP holds outcomes beyond the float range; the
    # truth function's own overflow warning is silenced, so what the test
    # sees is the Dataset's refusal of the non-finite outcome
    dgp = DGPSpec(beta=(1e308, 1e308, 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="covariates and outcomes must be finite"):
            generate(dgp, 200, 0)
        with pytest.raises(ConfigError) as err:
            run_coverage(dgp, _oracle_config(), 200, 4, 8, workers=1)
    assert str(err.value) == ("every replication failed; nothing to summarize; "
                              "first failure, replication 0: "
                              "ValueError: covariates and outcomes must be finite")


@pytest.mark.parametrize("estimand", ["psi", "theta"])
def test_an_overflowing_outcome_fails_each_replication_without_a_warning(estimand):
    # no errstate here: the draw evaluates the overflowing outcome with no
    # RuntimeWarning, the Dataset refuses it, and the study records the
    # refusal as a failed replication
    dgp = DGPSpec(beta=(1e308, 1e308, 1e308))
    with pytest.raises(ValueError, match="covariates and outcomes must be finite"):
        generate(dgp, 200, 0)
    with pytest.raises(ConfigError, match="every replication failed; .* replication 0: "
                                          "ValueError: covariates and outcomes must be finite"):
        run_coverage(dgp, _oracle_config(estimand), 200, 4, 8, workers=1)


# ---------------------------------------------------------------------------
# estimator configuration


def test_estimator_config_validation():
    with pytest.raises(ConfigError):
        EstimatorConfig(estimand="tau")
    with pytest.raises(ConfigError):
        EstimatorConfig(estimator="matching")
    with pytest.raises(ConfigError):
        EstimatorConfig(estimand="theta", estimator="ipw")
    with pytest.raises(ConfigError):
        EstimatorConfig(level=1.0)
    with pytest.raises(ConfigError):
        EstimatorConfig(folds=-1)
    for bad in ({"folds": "x"}, {"folds": True}, {"folds": 2.0},
                {"fold_seed": "x"}, {"fold_seed": False}, {"fold_seed": 1.5},
                {"fold_seed": -1}, {"level": "x"}, {"level": True},
                {"level": float("nan")}, {"spec_q": "linear-ols"}, {"spec_g": None},
                {"estimator": []}, {"estimator": {}}):
        with pytest.raises(ConfigError):
            EstimatorConfig(**bad)
    # one fold means no splitting, same as zero
    EstimatorConfig(folds=0)
    EstimatorConfig(estimand="psi", estimator="ipw")


def test_dr_arm_specs_taxonomy():
    # a side the arm names as wrong omits a covariate; every other side is
    # the estimator's default learner
    default = EstimatorConfig()
    wrong = {"none": "", "q-wrong": "q", "g-wrong": "g", "both-wrong": "qg"}
    assert tuple(wrong) == DR_ARMS
    for arm in DR_ARMS:
        for side, spec in zip("qg", dr_arm_specs(arm)):
            expected = (LearnerSpec("misspecified-omit") if side in wrong[arm]
                        else getattr(default, f"spec_{side}"))
            assert spec == expected, (arm, side)
    assert dr_arm_specs("none") == (LearnerSpec("linear-ols"), LearnerSpec("logistic-irls"))
    for bad in ("sideways", "q", ["none"], None):
        with pytest.raises(ConfigError):
            dr_arm_specs(bad)


# ---------------------------------------------------------------------------
# study runners


def _oracle_config(estimand="psi", amplitude=0.0):
    spec = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=amplitude)
    return EstimatorConfig(estimand=estimand, estimator="onestep",
                           spec_q=spec, spec_g=spec)


def test_ks_critical_value_frozen():
    assert_close(
        ks_critical_value(0.01, 1000),
        math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(1000),
        1e-15,
        "ks critical value formula",
    )
    assert_close(ks_critical_value(0.01, 1000), 0.0514699784658, 1e-10, "ks value")


@pytest.mark.parametrize("seed", range(6))
def test_ks_distance_and_moments_match_scipy(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 2000))
    x = (rng.standard_normal(m) if seed % 2 else rng.exponential(size=m)) * rng.uniform(0.1, 5)
    sd = float(rng.uniform(0.5, 3.0))
    assert abs(ks_distance(x, sd) - kstest(x, "norm", args=(0.0, sd)).statistic) <= 1e-12
    skewness, excess_kurtosis = standardized_moments(x)
    assert abs(skewness - skew(x)) <= 1e-12
    assert abs(excess_kurtosis - kurtosis(x)) <= 1e-12


@pytest.mark.parametrize("value", [0.0, 3.7, -1e6])
def test_moments_of_a_constant_sample_are_nan(value):
    # 50 copies of 3.7 leave m2 = 7.9e-31, above scipy's (eps * mean)^2 bound
    assert all(math.isnan(v) for v in standardized_moments(np.full(50, value)))


@pytest.mark.parametrize("error", [ValueError("bad draw"), ZeroDivisionError("zero"),
                                   np.linalg.LinAlgError("singular")])
def test_a_replication_that_raises_is_recorded(monkeypatch, error):
    real_generate = montecarlo.generate

    def generate(dgp, n, seed):
        if seed.entropy[1] == 3:
            raise error
        return real_generate(dgp, n, seed)

    # worker processes are forked, so they inherit the patched module
    monkeypatch.setattr(montecarlo, "generate", generate)
    dgp, config = default_logistic_linear(), _oracle_config()
    serial = run_coverage(dgp, config, 120, 8, 31, workers=1)
    parallel = run_coverage(dgp, config, 120, 8, 31, workers=2)
    for summary in (serial, parallel):
        assert summary.failures == 1
        assert [r.rep for r in summary.replications] == [0, 1, 2, 4, 5, 6, 7]
    assert serial.to_dict() == parallel.to_dict()


def test_irls_non_convergence_is_a_recorded_failure(monkeypatch):
    # one damped Newton step from beta = 0 leaves the gradient far above tolerance
    monkeypatch.setattr(learners, "IRLS_MAX_ITER", 1)
    dgp = default_logistic_linear()
    with pytest.raises(IrlsDivergence, match=r"^gradient norm \S+ after 1 iterations$") as err:
        fit_propensity(generate(dgp, 400, 5), LearnerSpec("logistic-irls"))
    assert err.value.code == "learner/irls-divergence"
    config = EstimatorConfig(folds=2)
    status, rep, message = montecarlo._replication_worker((dgp, config, 200, 7, 0, 1.0))
    assert (status, rep) == ("fail", 0)
    assert message.startswith("IrlsDivergence: fold 0: gradient norm ")
    with pytest.raises(ConfigError) as err:
        run_coverage(dgp, config, 200, 3, 7)
    assert str(err.value) == ("every replication failed; nothing to summarize; first failure, "
                              f"replication 0: {message}")


def test_run_coverage_smoke():
    summary = run_coverage(default_logistic_linear(), _oracle_config(), 400, 60, 101)
    assert summary.reps == 60 and summary.failures == 0
    assert len(summary.replications) == 60
    assert summary.truth == 1.0
    # exact nuisances at modest n: coverage should be loosely nominal
    assert 0.85 <= summary.coverage <= 1.0
    assert abs(summary.mean_scaled_error) < 0.6
    doc = summary.to_dict()
    assert doc["n"] == 400
    assert isinstance(doc["ks_flag"], bool)
    assert "replications" not in doc


def test_run_coverage_prefix_reproducibility():
    dgp = default_logistic_linear()
    config = _oracle_config()
    small = run_coverage(dgp, config, 200, 5, master_seed=77)
    large = run_coverage(dgp, config, 200, 9, master_seed=77)
    for lhs, rhs in zip(small.replications, large.replications[:5]):
        assert lhs.point == rhs.point
        assert lhs.variance == rhs.variance


def test_run_coverage_plugin_has_no_intervals():
    config = EstimatorConfig(estimator="plugin", spec_q=LearnerSpec("linear-ols"))
    summary = run_coverage(default_logistic_linear(), config, 200, 8, 5)
    assert summary.coverage == 0.0
    assert math.isnan(summary.ks_distance)
    assert summary.ks_flag is False


def test_run_coverage_validation():
    with pytest.raises(ConfigError):
        run_coverage(default_logistic_linear(), _oracle_config(), 100, 1, 0)


def test_run_coverage_workers_match_serial(five_atom):
    table_dgp = DGPSpec(kind="discrete-saturated", table=five_atom)
    # the truth lookups are built in this process first, so a cached lookup
    # that cannot be pickled would fail when the tasks go to the workers
    table_dgp.q(np.array([[0.0]]))
    for dgp, config in ((default_logistic_linear(), _oracle_config()),
                        (default_logistic_linear(),
                         EstimatorConfig(spec_q=LearnerSpec("kernel-nw"), folds=3)),
                        (default_logistic_linear(),
                         EstimatorConfig(spec_q=LearnerSpec("knn"), folds=3)),
                        (table_dgp, _oracle_config(amplitude=0.5))):
        serial = run_coverage(dgp, config, 120, 6, 31, workers=1)
        parallel = run_coverage(dgp, config, 120, 6, 31, workers=2)
        for lhs, rhs in zip(serial.replications, parallel.replications):
            assert lhs.point == rhs.point and lhs.rep == rhs.rep


def test_run_rate_experiment_root_n_for_onestep():
    report = run_rate_experiment(
        default_logistic_linear(), _oracle_config(), [200, 800, 3200], 60, 909
    )
    assert report.n_grid == (200, 800, 3200)
    assert report.slope == pytest.approx(-0.5, abs=0.12)
    assert len(report.rmse_by_n) == 3
    doc = report.to_dict()
    assert doc["slope"] == report.slope


def test_run_rate_experiment_validation():
    with pytest.raises(ConfigError):
        run_rate_experiment(default_logistic_linear(), _oracle_config(), [200], 10, 0)
    with pytest.raises(ConfigError):
        run_rate_experiment(
            default_logistic_linear(), _oracle_config(), [800, 200], 10, 0
        )


def test_run_rate_experiment_refuses_an_rmse_that_vanishes():
    # the plug-in with the exact regression of an outcome mean that no
    # covariate moves: every point equals the truth, where log RMSE has no slope
    exact = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.0)
    config = EstimatorConfig(estimator="plugin", spec_q=exact, spec_g=exact)
    with pytest.raises(ConfigError, match=r"^RMSE vanished on the grid; slope undefined"):
        run_rate_experiment(DGPSpec(beta=[1.0, 0.0, 0.0]), config, [100, 200], 4, 0)


def test_run_dr_consistency_smoke():
    report = run_dr_consistency(
        default_logistic_linear(), "none", [200, 400], 40, 404
    )
    assert report.arm == "none"
    assert len(report.bias_by_n) == 2
    assert all(se > 0 for se in report.mc_se_by_n)
    # correctly specified arm: bias within monte carlo noise, generously
    assert abs(report.bias_by_n[-1]) < 6.0 * report.mc_se_by_n[-1]
    doc = report.to_dict()
    assert doc["arm"] == "none"


# the repr of every replication's (point, variance) from small calls of the
# three study runners: the replication loop (draw, fold plan, nuisance fits,
# report) may change how it computes, never what it returns
_RATE_ORACLE = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.5)
LOOP_PINS = {
    ("coverage", "psi"): (
        lambda: run_coverage(default_logistic_linear(), EstimatorConfig(folds=5), 2000, 4, 11),
        [("0.9671664626143077", "0.0012883047966148358"),
         ("0.9451636851986918", "0.001408957500278519"),
         ("0.9903712659159519", "0.0012095547434737037"),
         ("1.0299806155968687", "0.0013432241925817423")]),
    ("coverage", "theta"): (
        lambda: run_coverage(default_logistic_linear(),
                             EstimatorConfig(estimand="theta", folds=5), 2000, 4, 11),
        [("0.8670936822764435", "0.001807308058823312"),
         ("0.9159148879235666", "0.0019716623435098767"),
         ("0.909099652649435", "0.001732623387100834"),
         ("0.9516905633740295", "0.0019826235103458743")]),
    ("rate", "onestep"): (
        lambda: run_rate_experiment(
            default_logistic_linear(),
            EstimatorConfig(spec_q=_RATE_ORACLE, spec_g=_RATE_ORACLE), [200, 2000], 3, 12),
        [("1.099209082655302", "0.035352784269418576"),
         ("0.7647341080642656", "0.0314444118980793"),
         ("1.1618368186110068", "0.013267427349938948"),
         ("1.0024575644626652", "0.0015389880181897282"),
         ("1.0044599399731775", "0.0015642682565941322"),
         ("1.0431236880586616", "0.0014710089311161436")]),
    ("rate", "plugin"): (
        lambda: run_rate_experiment(
            default_logistic_linear(),
            EstimatorConfig(estimator="plugin", spec_q=_RATE_ORACLE, spec_g=_RATE_ORACLE),
            [200, 2000], 3, 12),
        [("1.00054532566224", "nan"), ("0.9683283880546805", "nan"),
         ("1.0165114442458845", "nan"), ("1.023146642477232", "nan"),
         ("0.9676749760782919", "nan"), ("1.0064467713250662", "nan")]),
    ("dr", "q-wrong"): (
        lambda: run_dr_consistency(default_logistic_linear(), "q-wrong", [300, 2000], 3, 13),
        [("0.8651362552265599", "0.012026905337145693"),
         ("0.9625639573675832", "0.013414183191484677"),
         ("1.0419025732265466", "0.009416526582422044"),
         ("0.9748183356721467", "0.0017143454865029943"),
         ("0.9655752919537982", "0.0016133135240185574"),
         ("1.007909044144968", "0.0015906751965011872")]),
    ("dr", "g-wrong"): (
        lambda: run_dr_consistency(default_logistic_linear(), "g-wrong", [300, 2000], 3, 13),
        [("0.8718916698289813", "0.009043888306675324"),
         ("0.9288853768130811", "0.010875170714708823"),
         ("1.0386313879698692", "0.008154766742903993"),
         ("0.979274051252839", "0.0012918722275230645"),
         ("0.9653212882207419", "0.0012127632445248081"),
         ("1.0126527340327467", "0.0012478228912293856")]),
}


@pytest.mark.parametrize("study", list(LOOP_PINS), ids="-".join)
def test_replication_loop_returns_the_pinned_points_and_variances(study):
    run, expected = LOOP_PINS[study]
    report = run()
    assert report.failures == 0
    assert [(repr(r.point), repr(r.variance)) for r in report.replications] == expected


# the repr of every to_dict() value of 3-replication studies on a table DGP
# with constant (shape-2) oracle nuisances, where no BLAS call and no
# vectorized exp or sin runs: the summaries may change how they compute,
# never what they return.  The rate slope goes through np.log and LAPACK,
# which move it one ULP on some SIMD targets, so it is pinned to 1e-15.
_CONSTANT_ORACLE = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.3, shape=2)
_COVERAGE_SHARED = {"n": "200", "reps": "3", "level": "0.95", "failures": "0",
                    "ks_critical_1pct": "0.9397089413348545", "ks_flag": "False"}
STUDY_PINS = {
    "coverage-psi": (lambda dgp, c: run_coverage(dgp, c(), 200, 3, 4), dict(
        _COVERAGE_SHARED, estimand="'psi'", estimator="'onestep'", truth="1.3000000000000003",
        coverage="0.6666666666666666", mc_standard_error="0.2721655269759087",
        mean_scaled_error="1.108636819357247", var_scaled_error="5.202276304109787",
        skewness="-0.20648806224511626", excess_kurtosis="-1.5",
        mean_scaled_variance="1.886668370794147", ks_distance="0.507094875269773")),
    "coverage-theta": (lambda dgp, c: run_coverage(dgp, c(estimand="theta"), 200, 3, 4), dict(
        _COVERAGE_SHARED, estimand="'theta'", estimator="'onestep'", truth="1.59375",
        coverage="0.6666666666666666", mc_standard_error="0.2721655269759087",
        mean_scaled_error="1.2938049590448877", var_scaled_error="5.034906016600961",
        skewness="-0.038990094322634075", excess_kurtosis="-1.5000000000000002",
        mean_scaled_variance="1.7241859443847556", ks_distance="0.5131822303399398")),
    "coverage-plugin": (
        lambda dgp, c: run_coverage(dgp, c(estimand="theta", estimator="plugin"), 200, 3, 4),
        dict(_COVERAGE_SHARED, estimand="'theta'", estimator="'plugin'", truth="1.59375",
             coverage="0.0", mc_standard_error="0.0", mean_scaled_error="1.8890482546395442",
             var_scaled_error="1.4108880497471423", skewness="0.35884146118202703",
             excess_kurtosis="-1.5000000000000007", mean_scaled_variance="nan",
             ks_distance="nan")),
    "rate-theta": (
        lambda dgp, c: run_rate_experiment(dgp, c(estimand="theta"), [100, 400], 3, 22),
        {"estimand": "'theta'", "estimator": "'onestep'", "n_grid": "[100, 400]", "reps": "3",
         "truth": "1.59375", "rmse_by_n": "[0.10355684530824671, 0.04985784494873739]",
         "mean_scaled_error_by_n": "[0.3342968033511566, -0.9948506869857606]",
         "var_scaled_error_by_n": "[1.4409715024332184, 0.006890987665343409]",
         "slope": -0.52726524564406, "failures": "0"}),
}


@pytest.mark.parametrize("study", list(STUDY_PINS))
def test_a_table_dgp_study_summary_is_pinned(treated_law, study):
    run, expected = STUDY_PINS[study]
    dgp = DGPSpec(kind="discrete-saturated", table=treated_law)
    doc = run(dgp, lambda **kw: EstimatorConfig(spec_q=_CONSTANT_ORACLE,
                                                spec_g=_CONSTANT_ORACLE, **kw)).to_dict()
    if "slope" in expected:
        assert doc["slope"] == pytest.approx(expected["slope"], rel=1e-15, abs=0.0)
        doc["slope"] = expected["slope"]
    assert {key: value if key == "slope" else repr(value) for key, value in doc.items()} \
        == expected


# hand-written replications of two sizes around the truth 1.0, the second
# with one success; scaled_error = sqrt(n) (point - truth)
_FIXED_SIZES = (
    (100, (ReplicationResult(0, 100, 1.25, 0.015625, 1.0, 1.5, True, 2.5),
           ReplicationResult(1, 100, 0.875, 0.0234375, 0.9, 1.125, False, -1.25),
           ReplicationResult(2, 100, 1.5, 0.03125, 0.75, 2.25, True, 5.0),
           ReplicationResult(3, 100, 1.125, 0.01953125, 0.5, 1.75, True, 1.25))),
    (400, (ReplicationResult(4, 400, 1.0625, 0.00390625, 0.875, 1.25, True, 1.25),)),
)


def _plain_measures(n, results, truth):
    """Each measure of the table over ``results``, in plain Python with math.fsum."""
    m = len(results)
    points, scaled = [r.point for r in results], [r.scaled_error for r in results]

    def spread(x):  # the ddof = 1 variance, NaN for one value
        mean = math.fsum(x) / m
        return math.fsum((v - mean) ** 2 for v in x) / (m - 1) if m > 1 else math.nan

    coverage = math.fsum(float(r.covered) for r in results) / m
    return {"bias": math.fsum(points) / m - truth,
            "mc_se": math.sqrt(spread(points)) / math.sqrt(m),
            "rmse": math.sqrt(math.fsum((p - truth) ** 2 for p in points) / m),
            "coverage": coverage,
            "mc_standard_error": math.sqrt(coverage * (1.0 - coverage) / m),
            "mean_scaled_error": math.fsum(scaled) / m,
            "var_scaled_error": spread(scaled),
            "mean_scaled_variance": math.fsum(n * r.variance for r in results) / m}


@pytest.mark.parametrize("n, results", _FIXED_SIZES, ids=["four-successes", "one-success"])
def test_the_measure_table_matches_plain_formulas(n, results):
    expected = _plain_measures(n, results, 1.0)
    assert set(montecarlo._MEASURES) == set(expected)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one success: NaN spreads, and no RuntimeWarning
        got = {name: float(measure(montecarlo._Columns(list(results), n, 1.0)))
               for name, measure in montecarlo._MEASURES.items()}
    for name, want in expected.items():
        if math.isnan(want):
            assert len(results) == 1 and math.isnan(got[name]), name
        else:
            assert got[name] == pytest.approx(want, rel=1e-15, abs=0.0), name
    assert [name for name, want in expected.items() if math.isnan(want)] == (
        ["mc_se", "var_scaled_error"] if len(results) == 1 else [])


def test_a_grid_study_keeps_its_first_sizes_replications_as_a_prefix():
    # a grid study numbers its replications across every size, so more reps
    # keep the first size's replications and renumber every later size's
    dgp = default_logistic_linear()
    config = EstimatorConfig(spec_q=_RATE_ORACLE, spec_g=_RATE_ORACLE)
    small, large = (run_rate_experiment(dgp, config, [100, 400], reps, 5) for reps in (2, 4))
    first = [(r.rep, r.point, r.variance) for r in small.replications if r.n == 100]
    assert first == [(r.rep, r.point, r.variance) for r in large.replications[:2]]
    assert [repr(r.point) for r in small.replications if r.n == 400] == [
        "1.1455547044140664", "1.0235844396501652"]
    assert [repr(r.point) for r in large.replications if r.n == 400][:2] == [
        "0.981351480655392", "1.0392388536199368"]


def test_replication_rows_roundtrip():
    summary = run_coverage(default_logistic_linear(), _oracle_config(), 100, 3, 12)
    row = summary.replications[0].to_row()
    assert row[0] == 0 and row[1] == 100
    assert isinstance(row[2], float) and isinstance(row[4], bool)


def _run_study(study, master_seed, n=120, reps=3):
    dgp, config = default_logistic_linear(), _oracle_config()
    if study == "coverage":
        return run_coverage(dgp, config, n, reps, master_seed)
    if study == "rate":
        return run_rate_experiment(dgp, config, [n, 2 * n], reps, master_seed)
    return run_dr_consistency(dgp, "none", [n, 2 * n], reps, master_seed)


@pytest.mark.parametrize("study", ["coverage", "rate", "dr"])
@pytest.mark.parametrize("master_seed", [-1, True, False, 1.0, "3", None, [1]])
def test_master_seed_checked_before_any_replication(monkeypatch, study, master_seed):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a rejected master seed")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    with pytest.raises(ConfigError, match="'master_seed' must be an integer >= 0"):
        _run_study(study, master_seed)


@pytest.mark.parametrize("study", ["coverage", "rate", "dr"])
def test_master_seed_accepts_numpy_integers(study):
    assert _run_study(study, np.int64(5)).to_dict() == _run_study(study, 5).to_dict()


@pytest.mark.parametrize("study, message", [
    ("coverage", "every replication failed; nothing to summarize; "
                 "first failure, replication 0: ValueError: bad draw at n=120"),
    ("rate", "all replications failed at n=240; "
             "first failure, replication 3: ValueError: bad draw at n=240"),
    ("dr", "not enough successful replications at n=240; "
           "first failure, replication 3: ValueError: bad draw at n=240"),
])
def test_study_failure_names_the_first_recorded_failure(monkeypatch, study, message):
    real_generate = montecarlo.generate

    def generate(dgp, n, seed):
        if study == "coverage" or n == 240:
            raise ValueError(f"bad draw at n={n}")
        return real_generate(dgp, n, seed)

    monkeypatch.setattr(montecarlo, "generate", generate)
    with pytest.raises(ConfigError) as err:
        _run_study(study, 9)
    assert str(err.value) == message


@pytest.mark.parametrize("study", ["coverage", "rate", "dr"])
@pytest.mark.parametrize("workers", [0, -3, 1.5, True, "2", None])
def test_workers_checked_before_any_replication(monkeypatch, study, workers):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a rejected worker count")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    dgp, config = default_logistic_linear(), _oracle_config()
    with pytest.raises(ConfigError, match="'workers' must be an integer >= 1"):
        if study == "coverage":
            run_coverage(dgp, config, 120, 3, 9, workers=workers)
        elif study == "rate":
            run_rate_experiment(dgp, config, [120, 240], 3, 9, workers=workers)
        else:
            run_dr_consistency(dgp, "none", [120, 240], 3, 9, workers=workers)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs the tasks here."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("workers, cores, reps, pool_size", [
    (5000, 3, 4, 3),      # capped by the cores
    (5000, 64, 4, 4),     # capped by the replications
    (2, 64, 4, 2),        # as asked
    (5000, None, 4, None),  # core count unknown: serial, no pool
    (1, 64, 4, None),
])
def test_worker_pool_is_capped_by_cores_and_tasks(monkeypatch, workers, cores, reps,
                                                  pool_size):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cores)
    dgp, config = default_logistic_linear(), _oracle_config()
    summary = run_coverage(dgp, config, 120, reps, 9, workers=workers)
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    assert summary.to_dict() == run_coverage(dgp, config, 120, reps, 9).to_dict()


# ---------------------------------------------------------------------------
# the library checks each config value itself


_RATE = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.05, shape=2)


def _rate_nuisance(dist):
    return oracle_rate_nuisance(*truth_functions(dist), 100, _RATE, _RATE)


@pytest.mark.parametrize("call", [
    lambda dist: DGPSpec(beta="123"),
    lambda dist: DGPSpec(treated_shift="x"),
    lambda dist: _check_n_grid([1.5, 3]),
    lambda dist: remainder_rate_sweep(dist, truth_functions(dist), _RATE, _RATE, [100, 200],
                                      estimand="x"),
    lambda dist: remainder_exact_theta(dist, _rate_nuisance(dist), pn_a="0.5"),
    lambda dist: remainder_exact_theta(dist, _rate_nuisance(dist), pn_a=True),
    lambda dist: pathwise_derivative_check("psi", dist, dist, step_grid=["1e-3"]),
    lambda dist: decompose_error(dist, _rate_nuisance(dist), draw_dataset(dist, 40, 1),
                                 estimand="x"),
    lambda dist: crossfit(draw_dataset(dist, 40, 1), LearnerSpec("linear-ols"),
                          LearnerSpec("logistic-irls"), 2, estimand="x"),
    lambda dist: run_coverage(default_logistic_linear(), _oracle_config(), 120, "x", 0),
    lambda dist: run_coverage(default_logistic_linear(), _oracle_config(), 1.5, 3, 0),
    lambda dist: EstimatorConfig(spec_q=LearnerSpec("logistic-irls")),
    lambda dist: EstimatorConfig(spec_g=LearnerSpec("linear-ols")),
    lambda dist: generate(default_logistic_linear(), 10, -1),
    lambda dist: generate(default_logistic_linear(), 10, "x"),
    lambda dist: generate(default_logistic_linear(), 10, 1.5),
    lambda dist: generate(default_logistic_linear(), 10, True),
    lambda dist: draw_dataset(dist, 10, -1),
    lambda dist: draw_dataset(dist, 0, 0),
    lambda dist: draw_dataset(dist, -3, 0),
    lambda dist: draw_dataset(dist, 1.5, 0),
    lambda dist: draw_dataset(dist, "5", 0),
    lambda dist: oracle_rate_nuisance(*truth_functions(dist), 0, _RATE, _RATE),
    lambda dist: dr_arm_specs(["x"]),
    lambda dist: run_dr_consistency(default_logistic_linear(), ["none"], [100, 200], 2, 0),
], ids=["dgp-beta-string", "dgp-treated-shift-string", "n-grid-float",
        "sweep-estimand", "pn-a-string", "pn-a-bool", "step-grid-string",
        "decompose-estimand", "crossfit-estimand", "coverage-reps-string",
        "coverage-n-float", "outcome-side-kind", "propensity-side-kind",
        "generate-seed-negative", "generate-seed-string", "generate-seed-float",
        "generate-seed-bool", "draw-seed-negative", "draw-n-zero", "draw-n-negative",
        "draw-n-float", "draw-n-string", "oracle-rate-n-zero", "dr-arm-list",
        "dr-study-arm-list"])
def test_library_refuses_malformed_values_with_config_error(monkeypatch, four_atom, call):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a rejected value")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    with pytest.raises(ConfigError):
        call(four_atom)


@pytest.mark.parametrize("seed", [np.int64(5), np.random.SeedSequence(5)])
def test_draws_accept_numpy_integer_and_seed_sequence_seeds(four_atom, seed):
    dgp = default_logistic_linear()
    assert np.array_equal(generate(dgp, 10, seed).y, generate(dgp, 10, 5).y)
    assert np.array_equal(draw_dataset(four_atom, 10, seed).y, draw_dataset(four_atom, 10, 5).y)
