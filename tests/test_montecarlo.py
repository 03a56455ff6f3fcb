"""Benchmark DGP truths, replication seeding, and the three study runners."""

import math

import numpy as np
import pytest
from scipy.special import expit

from eifkit import (
    DGPSpec,
    EstimatorConfig,
    FiniteDistribution,
    LearnerSpec,
    default_logistic_linear,
    dr_arm_specs,
    draw_dataset,
    generate,
    generate_with_counterfactual,
    ks_critical_value,
    quadrature_distribution,
    run_coverage,
    run_dr_consistency,
    run_rate_experiment,
)
from eifkit.errors import ConfigError

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


def test_discrete_saturated_dgp_truths(five_atom):
    dgp = DGPSpec(kind="discrete-saturated", table=five_atom)
    assert dgp.psi() == pytest.approx(3.5, abs=1e-12)
    assert dgp.theta() == pytest.approx(4.0, abs=1e-12)
    assert dgp.d == 1
    assert dgp.q(np.array([[0.0], [1.0]])) == pytest.approx([2.0, 5.0])
    assert dgp.g(np.array([[1.0]])) == pytest.approx([0.6])


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


def test_generate_with_counterfactual_consistency():
    dgp = default_logistic_linear()
    data, y0 = generate_with_counterfactual(dgp, 300, 3)
    untreated = data.a == 0
    assert np.array_equal(data.y[untreated], y0[untreated])
    # treated factual outcomes include the shift, so they differ from the
    # untreated potential outcome by construction
    assert not np.array_equal(data.y[~untreated], y0[~untreated])


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
                {"level": float("nan")}, {"spec_q": "linear-ols"}, {"spec_g": None}):
        with pytest.raises(ConfigError):
            EstimatorConfig(**bad)
    # one fold means no splitting, same as zero
    EstimatorConfig(folds=0)
    EstimatorConfig(estimand="psi", estimator="ipw")


def test_dr_arm_specs_taxonomy():
    none_q, none_g = dr_arm_specs("none")
    assert (none_q.kind, none_g.kind) == ("linear-ols", "logistic-irls")
    assert dr_arm_specs("q-wrong")[0].kind == "misspecified-omit"
    assert dr_arm_specs("g-wrong")[1].kind == "misspecified-omit"
    both = dr_arm_specs("both-wrong")
    assert both[0].kind == both[1].kind == "misspecified-omit"
    with pytest.raises(ConfigError):
        dr_arm_specs("sideways")


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


def test_replication_rows_roundtrip():
    summary = run_coverage(default_logistic_linear(), _oracle_config(), 100, 3, 12)
    row = summary.replications[0].to_row()
    assert row[0] == 0 and row[1] == 100
    assert isinstance(row[2], float) and isinstance(row[4], bool)
