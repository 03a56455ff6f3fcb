"""Acceptance gate: twelve criteria the toolkit must meet, one test each.

Run ``python3 -m pytest tests/test_acceptance.py -v`` for a pass/fail line
per criterion; add ``-s`` to stream the headline numbers as they print.
The stochastic criteria (8, 9, 10) take about 85 s combined on one core;
everything else finishes in seconds.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import expit

from eifkit import (
    EstimatorConfig,
    LearnerSpec,
    decompose_error,
    default_logistic_linear,
    draw_dataset,
    eif_psi,
    eif_theta,
    pathwise_derivative_check,
    psi_of,
    quadrature_distribution,
    remainder_exact_psi,
    remainder_exact_theta,
    remainder_rate_sweep,
    run_coverage,
    run_dr_consistency,
    run_rate_experiment,
    save_distribution,
    theta_of,
    truth_functions,
)
from eifkit.cli import main
from eifkit.estimators import (
    empirical_distribution,
    onestep_psi,
    onestep_theta,
    saturated_nuisance,
)
from eifkit.learners import fit_nuisance

from conftest import direction_from, perturbed_nuisance, random_distribution

DENSE_STEP_GRID = tuple(1e-3 * 0.5**j for j in range(6))


def _pass(num, detail):
    print(f"criterion {num:02d}: PASS - {detail}")


def _instances(count, seed, **kwargs):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, random_distribution(rng, **kwargs)


# ---------------------------------------------------------------------------


def test_criterion_01_pathwise_derivative_matches_eif_mean():
    # 100 random base/direction pairs, at most 20 atoms, positivity built
    # into the generator; the extrapolated finite-difference derivative of
    # each functional along the mixture path must match the analytic value
    worst = 0.0
    for rng, base in _instances(100, 1001, max_strata=4, max_y_per_stratum=2):
        direction = direction_from(base, rng)
        assert len(base.atoms) <= 20
        for name in ("psi", "theta"):
            check = pathwise_derivative_check(
                name, base, direction, step_grid=DENSE_STEP_GRID
            )
            worst = max(worst, check.discrepancy)
            assert check.discrepancy < 1e-6, (name, check.discrepancy)
    _pass(1, f"worst derivative discrepancy {worst:.3e} < 1e-6")


def test_criterion_02_influence_functions_have_mean_zero():
    worst = 0.0
    for _, dist in _instances(100, 1002):
        for eif in (eif_psi, eif_theta):
            mean = math.fsum(p * eif(obs, dist) for obs, p in dist.atoms)
            worst = max(worst, abs(mean))
            assert abs(mean) < 1e-10
    _pass(2, f"worst influence-function mean {worst:.3e} < 1e-10")


def test_criterion_03_remainder_identity_both_routes():
    # direct definition vs closed form for the mean outcome; direct vs the
    # three-term split for the treated mean, including treated fractions
    # that differ from the true Pr(A=1)
    worst = 0.0
    for rng, dist in _instances(100, 1003):
        nuis = perturbed_nuisance(dist, rng)
        gap_psi = remainder_exact_psi(dist, nuis).identity_gap
        pn_a = float(rng.uniform(0.2, 0.9))
        gap_theta = remainder_exact_theta(dist, nuis, pn_a).identity_gap
        worst = max(worst, gap_psi, gap_theta)
        assert gap_psi < 1e-10 and gap_theta < 1e-10
    _pass(3, f"worst identity gap {worst:.3e} < 1e-10")


def test_criterion_04_remainder_vanishes_with_one_exact_nuisance():
    worst = 0.0
    for rng, dist in _instances(100, 1004):
        for exact_side in ({"exact_q": True}, {"exact_g": True}):
            nuis = perturbed_nuisance(dist, rng, **exact_side)
            rep = remainder_exact_psi(dist, nuis)
            worst = max(worst, abs(rep.remainder_direct),
                        abs(rep.remainder_closed_form))
            assert abs(rep.remainder_direct) < 1e-12
            assert abs(rep.remainder_closed_form) < 1e-12
            pn_a = float(rng.uniform(0.2, 0.9))
            terms = remainder_exact_theta(dist, nuis, pn_a).terms
            assert terms["s1"] == 0.0 and terms["s2"] == 0.0
    _pass(4, f"worst single-exact remainder {worst:.3e} < 1e-12")


def test_criterion_05_cauchy_schwarz_bound_holds():
    slack = 1e-12
    for rng, dist in _instances(100, 1005):
        nuis = perturbed_nuisance(dist, rng)
        rep = remainder_exact_psi(dist, nuis)
        # recompute the bound from scratch: sup(1/ghat) times the two
        # root-mean-square nuisance errors under the covariate marginal
        tq, tg = truth_functions(dist)
        marginal = {}
        for obs, p in dist.atoms:
            marginal[obs.w] = marginal.get(obs.w, 0.0) + p
        ws = np.array(sorted(marginal))
        pw = np.array([marginal[tuple(row)] for row in ws])
        qh, gh = nuis.predict_q(ws), nuis.predict_g(ws)
        bound = (
            float(np.max(1.0 / gh))
            * math.sqrt(float(pw @ (tg(ws) - gh) ** 2))
            * math.sqrt(float(pw @ (tq(ws) - qh) ** 2))
        )
        assert rep.cs_bound == pytest.approx(bound, abs=1e-12)
        assert abs(rep.remainder_closed_form) <= bound * (1 + slack) + 1e-15
        assert abs(rep.remainder_direct) <= bound + 1e-10
        pn_a = float(rng.uniform(0.2, 0.9))
        rep_t = remainder_exact_theta(dist, nuis, pn_a)
        assert abs(rep_t.remainder_closed_form) <= rep_t.cs_bound * (1 + slack) + 1e-15
        assert abs(rep_t.remainder_direct) <= rep_t.cs_bound + 1e-10
    _pass(5, "remainder within its Cauchy-Schwarz bound on 100 instances")


def test_criterion_06_four_term_decomposition_closes():
    table = quadrature_distribution(default_logistic_linear(), nodes=12)
    rng = np.random.default_rng(1006)
    worst = 0.0
    for n in (100, 1000, 10_000):
        sample = draw_dataset(table, n, 60 + n)
        fitted = fit_nuisance(sample, LearnerSpec("linear-ols"),
                              LearnerSpec("logistic-irls"))
        for nuis in (fitted, perturbed_nuisance(table, rng)):
            for estimand in ("psi", "theta"):
                rep = decompose_error(table, nuis, sample, estimand=estimand)
                worst = max(worst, abs(rep.closure_gap))
                assert abs(rep.closure_gap) < 1e-10, (n, estimand)
    _pass(6, f"worst closure gap {worst:.3e} < 1e-10 up to n=10000")


def test_criterion_07_deterministic_remainder_rate_sweep():
    table = quadrature_distribution(default_logistic_linear(), nodes=16)
    truth = truth_functions(table)
    n_grid = [2**k for k in range(8, 17, 2)]
    worst = 0.0
    for a_q, a_g in ((0.25, 0.25), (0.125, 0.375)):
        spec_q = LearnerSpec("oracle-rate", rate_exponent=a_q, amplitude=0.05,
                             shape=2)
        spec_g = LearnerSpec("oracle-rate", rate_exponent=a_g, amplitude=0.05,
                             shape=2)
        for estimand in ("psi", "theta"):
            rep = remainder_rate_sweep(table, truth, spec_q, spec_g, n_grid,
                                       estimand=estimand)
            worst = max(worst, abs(rep.slope + 0.5))
            assert rep.slope == pytest.approx(-0.5, abs=0.02), (a_q, a_g, estimand)
    _pass(7, f"worst sweep slope error {worst:.4f} <= 0.02")


def test_criterion_08_stochastic_rate_double_robustness():
    # both nuisances biased at the quarter-root rate: the one-step still
    # converges at the root-n rate with stable scaled variance, while the
    # plug-in built from the same biased outcome regression converges at
    # the quarter-root rate
    dgp = default_logistic_linear()
    oracle = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.5,
                         shape=2)
    n_grid = [500, 2000, 8000, 32000]

    onestep = run_rate_experiment(
        dgp,
        EstimatorConfig(estimator="onestep", spec_q=oracle, spec_g=oracle),
        n_grid, 500, 811,
    )
    assert onestep.failures == 0
    assert onestep.slope == pytest.approx(-0.5, abs=0.05)
    spread = max(onestep.var_scaled_error_by_n) / min(onestep.var_scaled_error_by_n)
    assert spread < 1.5

    # scaled variance should sit near the semiparametric variance bound,
    # computed here by midpoint quadrature
    m = 400
    grid = (np.arange(m) + 0.5) / m * 2.0 - 1.0
    w1, w2 = np.meshgrid(grid, grid, indexing="ij")
    w = np.column_stack([w1.ravel(), w2.ravel()])
    g = expit(dgp.gamma[0] + w @ np.array(dgp.gamma[1:]))
    q = dgp.beta[0] + w @ np.array(dgp.beta[1:])
    bound = float(np.mean(dgp.noise_sd**2 / g) + np.var(q))
    ratio = onestep.var_scaled_error_by_n[-1] / bound
    assert 0.5 < ratio < 2.0

    plugin = run_rate_experiment(
        dgp,
        EstimatorConfig(estimator="plugin", spec_q=oracle, spec_g=oracle),
        n_grid, 500, 811,
    )
    assert plugin.slope == pytest.approx(-0.25, abs=0.05)
    _pass(8, f"one-step slope {onestep.slope:.3f}, plug-in slope "
             f"{plugin.slope:.3f}, scaled-variance spread {spread:.2f}")


def test_criterion_09_interval_coverage_and_normality():
    dgp = default_logistic_linear()
    lines = []
    for estimand in ("psi", "theta"):
        config = EstimatorConfig(
            estimand=estimand,
            estimator="onestep",
            spec_q=LearnerSpec("kernel-nw"),
            spec_g=LearnerSpec("logistic-irls"),
            folds=5,
        )
        summary = run_coverage(dgp, config, 2000, 1000, 20260823)
        assert summary.failures == 0
        assert 0.929 <= summary.coverage <= 0.971, (estimand, summary.coverage)
        assert summary.ks_distance < summary.ks_critical_1pct, (
            estimand, summary.ks_distance,
        )
        assert summary.ks_flag is False
        lines.append(f"{estimand} coverage {summary.coverage:.4f} "
                     f"ks {summary.ks_distance:.4f}")
    _pass(9, "; ".join(lines))


def test_criterion_10_doubly_robust_consistency():
    dgp = default_logistic_linear()
    single_arm_z = []
    for arm in ("q-wrong", "g-wrong"):
        rep = run_dr_consistency(dgp, arm, [2000, 20000], 500, 1042)
        z = abs(rep.bias_by_n[-1]) / rep.mc_se_by_n[-1]
        single_arm_z.append(z)
        assert z <= 2.0, (arm, rep.bias_by_n[-1], rep.mc_se_by_n[-1])

    both = run_dr_consistency(dgp, "both-wrong", [500, 2000, 20000], 500, 1042)
    z_both = abs(both.bias_by_n[-1]) / both.mc_se_by_n[-1]
    assert z_both > 5.0
    plateau_change = abs(both.bias_by_n[-1] - both.bias_by_n[-2]) / abs(
        both.bias_by_n[-2]
    )
    assert plateau_change < 0.25
    _pass(10, f"single-arm |z| {max(single_arm_z):.2f} <= 2, both-wrong z "
              f"{z_both:.0f} > 5, plateau change {plateau_change:.3f} < 0.25")


def test_criterion_11_saturated_estimator_collapses_to_exact_functional():
    rng = np.random.default_rng(1011)
    dist = random_distribution(rng, max_strata=3, max_y_per_stratum=3)
    data = draw_dataset(dist, 2000, 77)
    empirical = empirical_distribution(data)
    nuis = saturated_nuisance(data)
    gap_psi = abs(onestep_psi(data, nuis).point - psi_of(empirical))
    gap_theta = abs(onestep_theta(data, nuis).point - theta_of(empirical))
    assert gap_psi < 1e-12 and gap_theta < 1e-12
    _pass(11, f"collapse gaps psi {gap_psi:.2e}, theta {gap_theta:.2e} < 1e-12")


def test_criterion_12_cli_outputs_are_byte_identical(tmp_path, capsys):
    four = random_distribution(np.random.default_rng(1012), max_strata=2)
    save_distribution(four, tmp_path / "dist.json")
    save_distribution(four, tmp_path / "direction.json")
    sample = draw_dataset(four, 60, 4)
    lines = ["w1,a,y"]
    for row, a, y in zip(sample.w, sample.a, sample.y):
        lines.append(f"{float(row[0])!r},{int(a)},{float(y)!r}")
    (tmp_path / "sample.csv").write_text("\n".join(lines) + "\n")

    oracle = {"kind": "oracle-rate", "rate_exponent": 0.25, "amplitude": 0.05,
              "shape": 2}
    jobs = {
        "estimate": {"data": "sample.csv", "estimand": "psi", "folds": 3,
                     "seed": 9, "include_eif": True},
        "verify-eif": {"distribution": "dist.json", "direction": "direction.json",
                       "functional": "both"},
        "decompose": {"distribution": "dist.json", "sample": "sample.csv",
                      "estimand": "theta"},
        "remainder": {"distribution": "dist.json", "mode": "sweep",
                      "n_grid": [256, 1024, 4096],
                      "learners": {"q": oracle, "g": oracle}},
        "simulate": {"study": "coverage", "n": 120, "reps": 8, "seed": 5,
                     "estimator": {"estimand": "psi"},
                     "replications_out": "reps.csv"},
    }
    for command, cfg in jobs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        artifacts = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{command}-{attempt}.json"
            assert main([command, "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            capsys.readouterr()
            blobs = [out.read_bytes()]
            if "replications_out" in cfg:
                blobs.append((tmp_path / cfg["replications_out"]).read_bytes())
            artifacts.append(blobs)
        assert artifacts[0] == artifacts[1], command
    _pass(12, "all five subcommands rerun byte-identical")
