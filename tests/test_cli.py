"""CSV ingestion taxonomy and end-to-end subcommand behavior."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eifkit import (
    DGPSpec,
    Dataset,
    EstimatorConfig,
    FoldPlan,
    LearnerSpec,
    ReplicationResult,
    crossfit,
    draw_dataset,
    estimate,
    fit_propensity,
    load_distribution,
    montecarlo,
    run_coverage,
    save_distribution,
)
from eifkit.cli import ingest_csv, main
from eifkit.distributions import FiniteDistribution, Observation
from eifkit.learners import _KINDS
from eifkit.errors import (
    ConfigError,
    EmptyDataset,
    MissingColumn,
    NonBinaryTreatment,
    UnexpectedColumn,
    UnparseableNumber,
)


SCRIPTS_DATA = Path(__file__).resolve().parent.parent / "scripts" / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def _csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _write_sample(path, data):
    d = data.w.shape[1]
    lines = [",".join([f"w{j}" for j in range(1, d + 1)] + ["a", "y"])]
    for row, a, y in zip(data.w, data.a, data.y):
        cells = [repr(float(v)) for v in row] + [str(int(a)), repr(float(y))]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# ingestion: happy paths


def test_ingest_round_trip(tmp_path, four_atom):
    data = draw_dataset(four_atom, 40, 9)
    path = tmp_path / "sample.csv"
    _write_sample(path, data)
    back = ingest_csv(path)
    assert np.array_equal(back.w, data.w)
    assert np.array_equal(back.a, data.a)
    assert np.array_equal(back.y, data.y)


def test_ingest_any_column_order_and_whitespace(tmp_path):
    path = _csv(tmp_path, " y , w2 ,a, w1 \n 3.5 , -1.0 ,0, 0.25 \n")
    data = ingest_csv(path)
    assert data.w.tolist() == [[0.25, -1.0]]
    assert data.a.tolist() == [0]
    assert data.y.tolist() == [3.5]


def test_ingest_skips_blank_lines(tmp_path):
    path = _csv(tmp_path, "w1,a,y\n\n0.0,0,1.0\n\n1.0,1,2.0\n\n")
    assert ingest_csv(path).n == 2


# ---------------------------------------------------------------------------
# ingestion: every failure mode


@pytest.mark.parametrize(
    "text, exc, fragment",
    [
        ("w1,y\n0.0,1.0\n", MissingColumn, "'a'"),
        ("w1,a\n0.0,0\n", MissingColumn, "'y'"),
        ("a,y\n0,1.0\n", MissingColumn, "covariate"),
        ("w1,w3,a,y\n0.0,0.0,0,1.0\n", MissingColumn, "'w2'"),
        ("w1,a,y,extra\n0.0,0,1.0,9\n", UnexpectedColumn, "'extra'"),
        ("w0,a,y\n0.0,0,1.0\n", UnexpectedColumn, "'w0'"),
        ("w,a,y\n0.0,0,1.0\n", UnexpectedColumn, "'w'"),
        ("w1,a,y,y\n0.0,0,1.0,1.0\n", UnexpectedColumn, "duplicate"),
        ("w1,w01,a,y\n0.0,0.0,0,1.0\n", UnexpectedColumn, "twice"),
        ("w1,a,y\n0.0,2,1.0\n", NonBinaryTreatment, "row 1"),
        ("w1,a,y\n0.0,0.5,1.0\n", NonBinaryTreatment, "0 or 1"),
        ("w1,a,y\n0.0,maybe,1.0\n", UnparseableNumber, "'a'"),
        ("w1,a,y\n0.0,0,huge\n", UnparseableNumber, "'huge'"),
        ("w1,a,y\nnan,0,1.0\n", UnparseableNumber, "non-finite"),
        ("w1,a,y\n0.0,0,inf\n", UnparseableNumber, "non-finite"),
        ("", EmptyDataset, "header"),
        ("w1,a,y\n", EmptyDataset, "no data rows"),
        ("w1,a,y\n0.0,0,1.0\n0.0,0\n", MissingColumn, "row 2"),
        ("w1,a,y\n0.0,0,1.0,extra\n", UnexpectedColumn, "row 1"),
    ],
)
def test_ingest_failures(tmp_path, text, exc, fragment):
    path = _csv(tmp_path, text)
    with pytest.raises(exc) as err:
        ingest_csv(path)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "body, exc, message",
    [
        ("0.0,0.0,0,1.0\n1.0,2.0,1,1.0\n1.0,oops,0,1.0\n", UnparseableNumber,
         "row 3, column 'w2': cannot parse 'oops'"),
        ("0.0,0.0,0,1.0\n1.0,2.0,1,1.0\n1.0,-inf,0,1.0\n", UnparseableNumber,
         "row 3, column 'w2': non-finite value '-inf'"),
        ("0.0,0.0,0,1.0\n1.0,2.0,2,1.0\n", NonBinaryTreatment,
         "row 2: treatment must be 0 or 1, got '2'"),
        ("0.0,0.0,0,1.0\n1.0,2.0,1\n", MissingColumn, "row 2: 3 fields, expected 4"),
        ("0.0,0.0,0,1.0\n0.0,0.0,0,1.0\n1.0,2.0,1,1.0,5\n", UnexpectedColumn,
         "row 3: 5 fields, expected 4"),
    ],
)
def test_ingest_refusal_names_path_row_and_column(tmp_path, body, exc, message):
    path = _csv(tmp_path, "w1,w2,a,y\n" + body)
    with pytest.raises(exc) as err:
        ingest_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_ingest_missing_file(tmp_path):
    from eifkit.errors import ConfigError

    with pytest.raises(ConfigError):
        ingest_csv(tmp_path / "nope.csv")


# ---------------------------------------------------------------------------
# subcommand fixtures


@pytest.fixture
def workspace(tmp_path, four_atom):
    """Distribution files, a sample CSV, and a helper to drop JSON configs."""
    save_distribution(four_atom, tmp_path / "dist.json")
    pointmass = FiniteDistribution(((Observation((0.0,), 0, 0.0), 1.0),))
    save_distribution(pointmass, tmp_path / "direction.json")
    _write_sample(tmp_path / "sample.csv", draw_dataset(four_atom, 80, 13))

    def config(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return tmp_path, config


# ---------------------------------------------------------------------------
# estimate


def test_estimate_subcommand(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("est.json", {
        "data": "sample.csv", "estimand": "theta", "folds": 4, "seed": 2,
        "learners": {"q": {"kind": "knn", "k": 10}},
        "include_eif": True,
    })
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    assert code == 0
    assert doc["estimand"] == "theta"
    assert doc["n"] == 80
    assert doc["folds"] == 4 and doc["fold_seed"] == 2
    assert doc["ci_low"] <= doc["point"] <= doc["ci_high"]
    assert len(doc["eif_values"]) == 80
    # influence-function values average to zero over the sample
    assert abs(sum(doc["eif_values"]) / 80) < 1e-10
    assert doc["nuisance_specs"]["q"]["kind"] == "knn"


def test_estimate_seed_flag_overrides_config(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("est.json", {"data": "sample.csv", "folds": 3, "seed": 1})
    code, doc = run_cli(capsys, ["estimate", "--config", cfg, "--seed", "42"])
    assert code == 0
    assert doc["fold_seed"] == 42


def test_estimate_rejects_oracle_learner(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("est.json", {
        "data": "sample.csv",
        "learners": {"q": {"kind": "oracle-rate", "rate_exponent": 0.25}},
    })
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    assert code == 2
    assert doc["error"]["code"] == "config/invalid"
    assert "oracle" in doc["error"]["message"]


def test_estimate_refuses_an_oracle_only_on_a_side_it_fits(tmp_path, capsys):
    # a complete oracle-rate spec passes the learner checks; plug-in fits
    # only q and IPW only g, so an oracle on the other side needs no truth
    demo = SCRIPTS_DATA / "demo.csv"
    oracle = {"kind": "oracle-rate", "rate_exponent": 0.25, "amplitude": 0.5}
    cfg = tmp_path / "est.json"
    for estimator, fitted, unread in (("plugin", "q", "g"), ("ipw", "g", "q")):
        cfg.write_text(json.dumps({"data": str(demo), "estimator": estimator,
                                   "learners": {unread: oracle}}))
        code, doc = run_cli(capsys, ["estimate", "--config", str(cfg)])
        assert code == 0
        report = estimate(ingest_csv(demo), EstimatorConfig(estimator=estimator))
        assert doc == json.loads(json.dumps(report.to_dict()))
        assert list(doc["nuisance_specs"]) == [fitted]
    # the one-step fits both sides, so either oracle meets the data-file refusal
    for side in ("q", "g"):
        cfg.write_text(json.dumps({"data": str(demo), "learners": {side: oracle}}))
        error = _only_error_document(capsys, main(["estimate", "--config", str(cfg)]), 2)
        assert error == {"code": "config/invalid",
                         "message": "estimate config: oracle-rate learners need a known truth "
                                    "and cannot run from a data file"}


def test_estimate_runtime_failure_exits_one(workspace, capsys):
    tmp_path, config = workspace
    # every row treated: the outcome learner has nothing to train on
    _csv(tmp_path, "w1,a,y\n0.0,1,1.0\n1.0,1,2.0\n", name="treated.csv")
    cfg = config("est.json", {"data": "treated.csv"})
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    assert code == 1
    assert doc["error"]["code"] == "learner/no-untreated-rows"


def _untreated_stratum_means(path):
    data = ingest_csv(path)
    untreated = data.a == 0
    return data, {w: float(np.mean(data.y[untreated & (data.w[:, 0] == w)]))
                  for w in (0.0, 1.0)}


@pytest.mark.parametrize("estimand", ["psi", "theta"])
def test_estimate_plugin_document(workspace, capsys, estimand):
    tmp_path, config = workspace
    cfg = config("est.json", {"data": "sample.csv", "estimator": "plugin",
                              "estimand": estimand})
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    assert code == 0
    assert set(doc) == {"estimand", "estimator", "point", "n", "nuisance_specs"}
    assert set(doc["nuisance_specs"]) == {"q"}
    assert (doc["estimand"], doc["estimator"], doc["n"]) == (estimand, "plugin", 80)
    # on the two-point covariate the least-squares line passes through the
    # untreated stratum means, so the plug-in averages those over the rows
    data, means = _untreated_stratum_means(tmp_path / "sample.csv")
    rows = data.w[:, 0] if estimand == "psi" else data.w[data.a == 1, 0]
    want = float(np.mean([means[w] for w in rows]))
    assert doc["point"] == pytest.approx(want, abs=1e-9)


def test_estimate_ipw_document(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("est.json", {"data": "sample.csv", "estimator": "ipw"})
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    assert code == 0
    assert set(doc) == {"estimand", "estimator", "point", "n", "nuisance_specs"}
    assert set(doc["nuisance_specs"]) == {"g"}
    assert (doc["estimand"], doc["estimator"], doc["n"]) == ("psi", "ipw", 80)
    # the logistic fit on a two-point covariate is saturated: ghat is each
    # stratum's untreated fraction, and IPW averages the stratum means
    data, means = _untreated_stratum_means(tmp_path / "sample.csv")
    want = float(np.mean([means[w] for w in data.w[:, 0]]))
    assert doc["point"] == pytest.approx(want, abs=1e-9)


def test_estimate_ipw_theta_exits_two(workspace, capsys):
    _, config = workspace
    cfg = config("est.json", {"data": "sample.csv", "estimator": "ipw",
                              "estimand": "theta"})
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    assert code == 2
    assert set(doc) == {"error"} and doc["error"]["code"] == "config/invalid"


@pytest.mark.parametrize("folds", [0, 5])
@pytest.mark.parametrize("estimand", ["psi", "theta"])
@pytest.mark.parametrize("estimator", ["onestep", "plugin", "ipw"])
def test_estimate_document_is_the_library_report(workspace, capsys, estimator, estimand, folds):
    tmp_path, config = workspace
    cfg = config("est.json", {"data": "sample.csv", "estimator": estimator,
                              "estimand": estimand, "folds": folds, "seed": 3})
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    if estimator == "ipw" and estimand == "theta":
        assert code == 2
        with pytest.raises(ConfigError):
            EstimatorConfig(estimator=estimator, estimand=estimand, folds=folds, fold_seed=3)
        return
    assert code == 0
    report = estimate(ingest_csv(tmp_path / "sample.csv"),
                      EstimatorConfig(estimator=estimator, estimand=estimand,
                                      folds=folds, fold_seed=3))
    assert doc == json.loads(json.dumps(report.to_dict()))


def test_more_folds_than_rows_gives_one_message_everywhere(tmp_path, capsys):
    data = Dataset(w=[[0.0], [0.5], [1.0]], a=[0, 1, 0], y=[1.0, 2.0, 3.0])
    _write_sample(tmp_path / "three.csv", data)
    (tmp_path / "est.json").write_text(json.dumps({"data": "three.csv", "folds": 5}))
    text = "5 folds need at least 5 rows, but a sample has only 3"
    for run in (lambda: estimate(data, EstimatorConfig(folds=5)),
                lambda: crossfit(data, LearnerSpec("linear-ols"), LearnerSpec("logistic-irls"), 5),
                lambda: FoldPlan.build(3, 5, 0),
                lambda: run_coverage(DGPSpec(), EstimatorConfig(folds=5), 3, 2, 0)):
        with pytest.raises(ConfigError) as err:
            run()
        assert str(err.value) == text
    code, doc = run_cli(capsys, ["estimate", "--config", str(tmp_path / "est.json")])
    assert code == 2
    assert doc["error"] == {"code": "config/invalid", "message": text}


def test_estimate_knn_on_a_continuous_outcome_equals_the_stable_argsort_reference(
        tmp_path, capsys):
    # scripts/data/demo.csv has y = w1, so its digest cannot see which
    # neighbours kNN keeps; here every q-hat is rebuilt on the same folds from
    # a stable argsort of the fitting rows' squared distances
    rng = np.random.default_rng(15)
    n, k, folds = 240, 15, 5
    w = rng.uniform(-1.0, 1.0, (n, 2))
    a = (rng.uniform(size=n) < 0.4).astype(int)
    y = np.sin(3.0 * w[:, 0]) + w[:, 1] ** 2 + 0.3 * rng.standard_normal(n)
    _write_sample(tmp_path / "sample.csv", Dataset(w, a, y))
    (tmp_path / "est.json").write_text(json.dumps({
        "data": "sample.csv", "folds": folds, "seed": 4, "include_eif": True,
        "learners": {"q": {"kind": "knn", "k": k}, "g": {"kind": "logistic-irls"}}}))
    code, doc = run_cli(capsys, ["estimate", "--config", str(tmp_path / "est.json")])
    assert code == 0

    data = ingest_csv(tmp_path / "sample.csv")
    plan = FoldPlan.build(n, folds, 4)
    qv, gv = np.empty(n), np.empty(n)
    for fold in range(folds):
        test = plan.assignment == fold
        fit = ~test & (data.a == 0)
        for i in np.flatnonzero(test):
            d2 = ((data.w[fit] - data.w[i]) ** 2).sum(axis=1)
            qv[i] = data.y[fit][np.argsort(d2, kind="stable")[:k]].mean()
        ghat = fit_propensity(data.subset(~test), LearnerSpec("logistic-irls"))
        gv[test] = ghat(data.w[test])
    contrib = np.where(data.a == 0, (data.y - qv) / gv, 0.0) + qv
    point = float(np.mean(contrib))
    # the centered values show a last-digit change in any row's q-hat, which
    # the mean of 240 terms can round away
    assert doc["point"] == point
    assert doc["eif_values"] == (contrib - point).tolist()


# ---------------------------------------------------------------------------
# verify-eif


def test_verify_eif_subcommand(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("ver.json", {
        "distribution": "dist.json", "direction": "direction.json",
        "functional": "both",
    })
    code, doc = run_cli(capsys, ["verify-eif", "--config", cfg])
    assert code == 0
    assert set(doc) == {"psi", "theta"}
    for block in doc.values():
        assert abs(block["eif_mean"]) < 1e-12
        assert block["check"]["discrepancy"] < 1e-8


def test_verify_eif_bad_step_grid(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("ver.json", {
        "distribution": "dist.json", "direction": "direction.json",
        "step_grid": [1e-3, "tiny"],
    })
    code, doc = run_cli(capsys, ["verify-eif", "--config", cfg])
    assert code == 2
    assert "step_grid" in doc["error"]["message"]


# ---------------------------------------------------------------------------
# decompose and remainder


def test_decompose_subcommand(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("dec.json", {
        "distribution": "dist.json", "sample": "sample.csv", "estimand": "psi",
    })
    code, doc = run_cli(capsys, ["decompose", "--config", cfg])
    assert code == 0
    assert abs(doc["closure_gap"]) < 1e-10
    assert doc["n"] == 80


def test_remainder_exact_subcommand(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("rem.json", {
        "distribution": "dist.json", "estimand": "theta", "mode": "exact",
        "sample": "sample.csv", "pn_a": 0.4,
    })
    code, doc = run_cli(capsys, ["remainder", "--config", cfg])
    assert code == 0
    assert doc["identity_gap"] < 1e-10
    assert set(doc["terms"]) == {"s1", "s2", "s3"}


def test_remainder_sweep_subcommand(workspace, capsys):
    tmp_path, config = workspace
    oracle = {"kind": "oracle-rate", "rate_exponent": 0.25, "amplitude": 0.05,
              "shape": 2}
    cfg = config("rem.json", {
        "distribution": "dist.json", "mode": "sweep",
        "n_grid": [256, 1024, 4096], "learners": {"q": oracle, "g": oracle},
    })
    code, doc = run_cli(capsys, ["remainder", "--config", cfg])
    assert code == 0
    assert doc["slope"] == pytest.approx(-0.5, abs=0.02)
    assert len(doc["rows"]) == 3


def test_remainder_psi_rejects_pn_a(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("rem.json", {
        "distribution": "dist.json", "estimand": "psi", "mode": "exact",
        "sample": "sample.csv", "pn_a": 0.4,
    })
    code, doc = run_cli(capsys, ["remainder", "--config", cfg])
    assert code == 2
    assert "pn_a" in doc["error"]["message"]


@pytest.mark.parametrize("mode, key, value", [
    ("sweep", "sample", "sample.csv"),
    ("sweep", "n", 100),
    ("sweep", "pn_a", 0.4),
    ("exact", "n_grid", [100, 1000]),
])
def test_remainder_refuses_a_key_its_mode_does_not_read(workspace, capsys, mode, key, value):
    _, config = workspace
    doc = {"distribution": "dist.json", "mode": mode, "learners": {"q": _ORACLE, "g": _ORACLE},
           **({"n_grid": [100, 1000]} if mode == "sweep" else {"n": 100}), key: value}
    error = _only_error_document(capsys, main(["remainder", "--config", config("r.json", doc)]), 2)
    assert error == {"code": "config/invalid",
                     "message": f"remainder config ({mode} mode): unknown keys ['{key}']"}


@pytest.mark.parametrize("given", [{"sample": "sample.csv", "n": 100}, {}])
def test_remainder_exact_takes_exactly_one_of_sample_and_n(workspace, capsys, given):
    _, config = workspace
    cfg = config("rem.json", {"distribution": "dist.json", "mode": "exact", **given})
    error = _only_error_document(capsys, main(["remainder", "--config", cfg]), 2)
    assert error["message"] == "remainder config: exact mode needs exactly one of 'sample' and 'n'"


@pytest.mark.parametrize("mode", ["exact", "sweep"])
def test_remainder_refuses_an_unknown_estimand_alike_in_both_modes(workspace, capsys, mode):
    _, config = workspace
    doc = {"distribution": "dist.json", "mode": mode, "estimand": "tau",
           "learners": {"q": _ORACLE, "g": _ORACLE},
           **({"n_grid": [100, 1000]} if mode == "sweep" else {"n": 100})}
    error = _only_error_document(capsys, main(["remainder", "--config", config("r.json", doc)]), 2)
    assert error == {"code": "config/invalid",
                     "message": "remainder config: unknown estimand 'tau'; use 'psi' or 'theta'"}


# ---------------------------------------------------------------------------
# simulate


def test_simulate_coverage_subcommand(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("sim.json", {
        "study": "coverage", "n": 150, "reps": 12, "seed": 6,
        "estimator": {"estimand": "psi"},
        "replications_out": "reps.csv",
    })
    code, doc = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 0
    assert doc["seed"] == 6 and doc["reps"] == 12
    assert 0.0 <= doc["coverage"] <= 1.0
    lines = (tmp_path / "reps.csv").read_text().strip().splitlines()
    assert lines[0] == "rep,n,point,variance,covered,scaled_error"
    assert len(lines) == 13


def test_simulate_on_a_law_file_is_run_coverage_on_the_loaded_law(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("sim.json", {
        "study": "coverage", "n": 60, "reps": 4, "seed": 3, "include_replications": True,
        "dgp": {"kind": "discrete-saturated", "distribution": "dist.json"},
        "estimator": {"estimand": "theta", "folds": 2},
    })
    code, doc = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 0
    dgp = DGPSpec(kind="discrete-saturated", table=load_distribution(tmp_path / "dist.json"))
    assert dgp.d == 1
    summary = run_coverage(dgp, EstimatorConfig(estimand="theta", folds=2), 60, 4, 3)
    want = dict(summary.to_dict(), seed=3, replications=[
        dict(zip(ReplicationResult.COLUMNS, r.to_row())) for r in summary.replications])
    assert doc == json.loads(json.dumps(want))


def test_simulate_dr_subcommand(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("sim.json", {
        "study": "dr", "arm": "q-wrong", "n_grid": [100, 200], "reps": 6,
        "seed": 3, "include_replications": True,
    })
    code, doc = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 0
    assert doc["arm"] == "q-wrong"
    assert len(doc["replications"]) == 12


def test_simulate_dr_rejects_estimator_block(workspace, capsys):
    tmp_path, config = workspace
    cfg = config("sim.json", {
        "study": "dr", "arm": "none", "n_grid": [100, 200], "reps": 4,
        "estimator": {"estimand": "psi"},
    })
    code, doc = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2


_STUDY_CONFIGS = {"coverage": {"study": "coverage", "n": 50, "reps": 4},
                  "rate": {"study": "rate", "n_grid": [50, 100], "reps": 4},
                  "dr": {"study": "dr", "arm": "none", "n_grid": [50, 100], "reps": 4}}


@pytest.mark.parametrize("study, key, value", [
    ("coverage", "n_grid", [50, 100]),
    ("coverage", "arm", "q-wrong"),
    ("coverage", "estimand", "theta"),
    ("rate", "n", 50),
    ("rate", "arm", "q-wrong"),
    ("rate", "estimand", "theta"),
    ("dr", "n", 50),
    ("dr", "estimator", {"estimand": "psi"}),
])
def test_simulate_refuses_a_key_its_study_does_not_read(workspace, capsys, monkeypatch,
                                                        study, key, value):
    _, config = workspace

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a key the study does not read")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    cfg = config("sim.json", dict(_STUDY_CONFIGS[study], **{key: value}))
    error = _only_error_document(capsys, main(["simulate", "--config", cfg]), 2)
    assert error == {"code": "config/invalid",
                     "message": f"simulate config ({study} study): unknown keys ['{key}']"}


@pytest.mark.parametrize("arm", [["none"], None, 3])
def test_simulate_dr_refuses_an_arm_that_is_not_one_of_the_four(workspace, capsys,
                                                                monkeypatch, arm):
    _, config = workspace

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a rejected arm")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    doc = dict(_STUDY_CONFIGS["dr"], arm=arm)
    if arm is None:  # no 'arm' key at all
        del doc["arm"]
    error = _only_error_document(capsys, main(["simulate", "--config", config("s.json", doc)]), 2)
    assert error["code"] == "config/invalid" and "misspecification arm" in error["message"]


def test_simulate_rate_subcommand(workspace, capsys):
    tmp_path, config = workspace
    oracle = {"kind": "oracle-rate", "rate_exponent": 0.25, "amplitude": 0.0}
    cfg = config("sim.json", {
        "study": "rate", "n_grid": [100, 400], "reps": 10, "seed": 2,
        "estimator": {"estimand": "psi", "learners": {"q": oracle, "g": oracle}},
    })
    code, doc = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 0
    assert doc["n_grid"] == [100, 400]
    assert doc["slope"] < -0.2


@pytest.mark.parametrize("overrides", [
    {"learners": {"q": {"kind": "knn", "k": "x"}}},
    {"learners": {"q": {"kind": "kernel-nw", "bandwidth": "x"}}},
    {"learners": {"q": {"kind": "kernel-nw", "bandwidth": 10**400}}},
    {"learners": {"g": {"kind": "knn", "k": True}}},
    {"learners": {"q": {"kind": "knn", "seed": 1}}},
    {"level": 1.5},
    {"level": 10**400},
    {"level": 0},
    {"folds": 500},
    {"include_eif": "yes"},
    {"data": "sample.csv\0"},
])
def test_estimate_bad_values_exit_two(workspace, capsys, overrides):
    _, config = workspace
    cfg = config("est.json", {"data": "sample.csv", "folds": 3, **overrides})
    code = main(["estimate", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 2
    assert set(json.loads(captured.out)) == {"error"}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("doc", [
    {"study": "coverage", "n": 30, "reps": 4, "estimator": {"folds": 40}},
    {"study": "rate", "n_grid": [30, 100], "reps": 4, "estimator": {"folds": 40}},
    {"study": "coverage", "n": 50, "reps": 4, "dgp": {"gamma": ["a", 1, 1]}},
    {"study": "coverage", "n": 50, "reps": 4, "dgp": {"beta": "abc"}},
    {"study": "coverage", "n": 50, "reps": 4, "dgp": {"beta": [10**400, 1, 1]}},
    {"study": "coverage", "n": 50, "reps": 4, "dgp": {"gamma": [True, 1, 1]}},
    {"study": "coverage", "n": 50, "reps": 4, "include_replications": "yes"},
])
def test_simulate_rejects_bad_config_before_replicating(workspace, capsys, monkeypatch, doc):
    _, config = workspace

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a config that should be rejected")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    code = main(["simulate", "--config", config("sim.json", doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert set(json.loads(captured.out)) == {"error"}
    assert "Traceback" not in captured.err


# the one wording of the side rule, which EstimatorConfig and the fits give too
_WRONG_SIDE = {
    "q": ("learner 'q' cannot be 'logistic-irls': the outcome regression takes one of "
          "['linear-ols', 'knn', 'kernel-nw', 'misspecified-omit', 'oracle-rate']"),
    "g": ("learner 'g' cannot be 'linear-ols': the propensity takes one of ['logistic-irls', "
          "'knn', 'kernel-nw', 'misspecified-omit', 'misspecified-wronglink', 'oracle-rate']"),
}


@pytest.mark.parametrize("learners", [{"q": {"kind": "logistic-irls"}},
                                      {"g": {"kind": "linear-ols"}}])
@pytest.mark.parametrize("command, doc", [
    ("estimate", {"data": "sample.csv"}),
    ("decompose", {"distribution": "dist.json", "sample": "sample.csv"}),
    ("remainder", {"distribution": "dist.json", "mode": "exact", "sample": "sample.csv"}),
    ("simulate", {"study": "coverage", "n": 50, "reps": 4}),
    ("estimate", {"data": "no_such_sample.csv"}),
    ("decompose", {"distribution": "no_such_law.json", "sample": "no_such_sample.csv"}),
    ("remainder", {"distribution": "no_such_law.json", "mode": "exact",
                   "sample": "no_such_sample.csv"}),
])
def test_learner_kind_on_the_wrong_side_exits_two(workspace, capsys, monkeypatch,
                                                  command, doc, learners):
    # one message after the prefix, before any file is read or replication runs
    _, config = workspace

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a learner on the wrong side")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    (side,) = learners
    if command == "simulate":
        doc, where = dict(doc, estimator={"learners": learners}), "simulate config.estimator"
    else:
        doc, where = dict(doc, learners=learners), f"{command} config"
    error = _only_error_document(capsys, main([command, "--config", config("cfg.json", doc)]), 2)
    assert error == {"code": "config/invalid",
                     "message": f"{where}.learners: {_WRONG_SIDE[side]}"}


@pytest.mark.parametrize("doc, message", [
    ({"study": "coverage", "n": 50, "reps": 4, "dgp": [0.0, 0.8]},
     "simulate config: 'dgp' must be an object"),
    ({"study": "coverage", "n": 50, "reps": 4, "estimator": "onestep"},
     "simulate config: 'estimator' must be an object"),
    ({"study": "rate", "n_grid": [50, 100], "reps": 4, "estimator": {"learners": ["knn"]}},
     "simulate config.estimator: 'learners' must be an object"),
    ({"data": "sample.csv", "learners": "knn"}, "estimate config: 'learners' must be an object"),
    ({"distribution": "dist.json", "sample": "sample.csv", "learners": None},
     "decompose config: 'learners' must be an object"),
    ({"distribution": "dist.json", "mode": "exact", "n": 10, "learners": 1},
     "remainder config: 'learners' must be an object"),
])
def test_a_block_that_is_no_object_has_one_phrasing(workspace, capsys, monkeypatch, doc,
                                                    message):
    _, config = workspace

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a block that is no object")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    command = message.split(" config")[0]
    error = _only_error_document(capsys, main([command, "--config", config("cfg.json", doc)]), 2)
    assert error == {"code": "config/invalid", "message": message}


def test_verify_eif_refuses_a_step_grid_beyond_the_mixture_range(workspace, capsys):
    _, config = workspace
    cfg = config("ver.json", {"distribution": "dist.json", "direction": "direction.json",
                              "step_grid": [2.0, 1.0]})
    error = _only_error_document(capsys, main(["verify-eif", "--config", cfg]), 2)
    assert error == {"code": "config/invalid", "message": "verify-eif config: 'step_grid' "
                                                          "must stay inside the mixture range (0, 1]"}


def test_a_law_file_whose_atom_is_no_object_exits_one(workspace, capsys):
    tmp_path, config = workspace
    (tmp_path / "bad.json").write_text(json.dumps({"atoms": [1]}))
    cfg = config("ver.json", {"distribution": "bad.json", "direction": "direction.json"})
    error = _only_error_document(capsys, main(["verify-eif", "--config", cfg]), 1)
    assert error == {"code": "distribution/invalid", "message": "atom 0 is not an object"}


@pytest.mark.parametrize("dgp", [{"gamma": [800.0, 0.0, 0.0]},
                                 {"kind": "discrete-saturated", "distribution": "untreated.json"}])
def test_a_theta_study_on_a_dgp_without_treated_mass_exits_one(workspace, capsys, monkeypatch,
                                                               dgp):
    # both kinds of DGP refuse theta's truth with the exact layer's error, before replicating
    tmp_path, config = workspace
    (tmp_path / "untreated.json").write_text(json.dumps({"atoms": [
        {"w": [0.0], "a": 0, "y": 1.0, "p": 0.5}, {"w": [1.0], "a": 0, "y": 2.0, "p": 0.5}]}))

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran without a truth")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    cfg = config("sim.json", {"study": "coverage", "n": 50, "reps": 4, "dgp": dgp,
                              "estimator": {"estimand": "theta"}})
    error = _only_error_document(capsys, main(["simulate", "--config", cfg]), 1)
    assert error == {"code": "distribution/no-treated-mass",
                     "message": "Pr(A=1) = 0; treated-conditional mean undefined"}


@pytest.mark.parametrize("learners, field", [
    ({"q": {"kind": "linear-ols", "k": 5, "bandwidth": 0.3, "shape": 2}}, "k"),
    ({"g": {"kind": "logistic-irls", "shape": 1}}, "shape"),
    ({"q": {"kind": "linear-ols", "truncation": 0.05}}, "truncation"),
])
@pytest.mark.parametrize("command, doc", [
    ("estimate", {"data": "sample.csv"}),
    ("decompose", {"distribution": "dist.json", "sample": "sample.csv"}),
    ("remainder", {"distribution": "dist.json", "mode": "exact", "sample": "sample.csv"}),
    ("simulate", {"study": "coverage", "n": 50, "reps": 4}),
])
def test_a_learner_field_its_kind_does_not_read_exits_two(workspace, capsys, monkeypatch,
                                                          command, doc, learners, field):
    _, config = workspace

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a learner field its kind does not read")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    if command == "simulate":
        doc = dict(doc, estimator={"learners": learners})
    else:
        doc = dict(doc, learners=learners)
    error = _only_error_document(capsys, main([command, "--config", config("cfg.json", doc)]), 2)
    assert error["code"] == "config/invalid"
    assert f"kind does not read '{field}'" in error["message"]


def test_a_collinear_design_exits_one_with_singular_design(tmp_path, capsys):
    # w2 = 2 * w1 exactly with |w| up to 1e6: least squares meets an exact zero pivot
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-1e6, 1e6, 50)
    a = (rng.uniform(size=50) < 0.5).astype(int)
    rows = [f"{v!r},{2.0 * v!r},{t},{y!r}"
            for v, t, y in zip(w1.tolist(), a.tolist(), rng.standard_normal(50).tolist())]
    _csv(tmp_path, "w1,w2,a,y\n" + "\n".join(rows) + "\n")
    (tmp_path / "cfg.json").write_text(json.dumps({"data": "data.csv"}))
    error = _only_error_document(capsys, main(["estimate", "--config",
                                               str(tmp_path / "cfg.json")]), 1)
    assert error["code"] == "learner/singular-design"
    assert "normal equations singular despite jitter" in error["message"]


_ORACLE = {"kind": "oracle-rate", "rate_exponent": 0.25, "amplitude": 0.05, "shape": 2}


@pytest.mark.parametrize("command, doc", [
    ("remainder", {"distribution": "four_atom.json", "mode": "sweep",
                   "n_grid": [1024, 256], "learners": {"q": _ORACLE, "g": _ORACLE}}),
    ("remainder", {"distribution": "four_atom.json", "mode": "sweep",
                   "n_grid": [256, 1024],
                   "learners": {"q": dict(_ORACLE, amplitude=0.0), "g": _ORACLE}}),
    ("remainder", {"distribution": "four_atom.json", "estimand": "theta", "n": 100,
                   "pn_a": 1.5, "learners": {"q": _ORACLE, "g": _ORACLE}}),
    ("verify-eif", {"distribution": "four_atom.json", "direction": "tilted_direction.json",
                    "step_grid": [1e-4, 1e-3]}),
    ("verify-eif", {"distribution": "no_such_law.json",
                    "direction": "tilted_direction.json"}),
])
def test_library_config_errors_exit_two(tmp_path, capsys, command, doc):
    for key in ("distribution", "direction"):
        if key in doc:
            doc = dict(doc, **{key: str(SCRIPTS_DATA / doc[key])})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    out = json.loads(captured.out)
    assert set(out) == {"error"} and set(out["error"]) == {"code", "message"}
    assert "Traceback" not in captured.err


# a valid law whose outcomes +-1.7e308 overflow the influence terms to +-inf
_OVERFLOW_LAW = {"atoms": [{"w": [0.0], "a": 0, "y": 1.7e308, "p": 0.25},
                           {"w": [0.0], "a": 0, "y": -1.7e308, "p": 0.25},
                           {"w": [0.0], "a": 1, "y": 0.0, "p": 0.5}]}


@pytest.mark.parametrize("command, doc", [
    ("verify-eif", {"direction": "law.json"}),
    ("decompose", {"sample": "sample.csv"}),
    ("remainder", {"mode": "exact", "n": 100, "learners": {"q": _ORACLE, "g": _ORACLE}}),
    ("remainder", {"mode": "sweep", "n_grid": [100, 1000],
                   "learners": {"q": _ORACLE, "g": _ORACLE}}),
])
def test_overflowing_exact_sums_exit_one(tmp_path, capsys, command, doc):
    (tmp_path / "law.json").write_text(json.dumps(_OVERFLOW_LAW))
    (tmp_path / "sample.csv").write_text("w1,a,y\n0.0,0,1.7e308\n0.0,0,-1.7e308\n0.0,1,0.0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(doc, distribution="law.json")))
    error = _only_error_document(capsys, main([command, "--config", str(cfg)]), 1)
    assert error["code"] == "numeric/non-finite"


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # concurrent.futures and multiprocessing cost about 20 ms of every CLI
    # call's import; only a study with workers > 1 imports them
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", "import sys, eifkit.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _cli_process(*argv):
    """``python -m eifkit.cli *argv`` in a fresh interpreter, importing the checkout's package."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "eifkit.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)


@pytest.mark.parametrize("mode_keys", [{"mode": "sweep", "n_grid": [100, 200]},
                                       {"mode": "exact", "n": 100}])
def test_theta_remainder_without_treated_mass_exits_one(tmp_path, mode_keys):
    # the default treated fraction is Pr(A=1) = 0: the law, not a config value, is at fault
    (tmp_path / "law.json").write_text(json.dumps({"atoms": [
        {"w": [0.0], "a": 0, "y": 1.0, "p": 0.5}, {"w": [1.0], "a": 0, "y": 2.0, "p": 0.5}]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distribution": "law.json", "estimand": "theta",
                               "learners": {"q": _ORACLE, "g": _ORACLE}, **mode_keys}))
    result = _cli_process("remainder", "--config", str(cfg))
    assert result.returncode == 1, result.stdout
    assert json.loads(result.stdout)["error"] == {
        "code": "distribution/no-treated-mass",
        "message": "Pr(A=1) = 0; treated-conditional mean undefined"}


def test_theta_remainder_of_a_sample_without_treated_rows_exits_one(workspace, capsys):
    # the default P_n(A) is the sample's treated share, refused as decompose refuses it
    tmp_path, config = workspace
    (tmp_path / "untreated.csv").write_text("w1,a,y\n0.0,0,0.0\n1.0,0,1.0\n0.0,0,0.0\n")
    keys = {"distribution": "dist.json", "estimand": "theta", "sample": "untreated.csv",
            "learners": {"q": _ORACLE, "g": _ORACLE}}
    remainder = _only_error_document(
        capsys, main(["remainder", "--config", config("r.json", dict(keys, mode="exact"))]), 1)
    decompose = _only_error_document(
        capsys, main(["decompose", "--config", config("d.json", keys)]), 1)
    assert remainder == decompose == {
        "code": "estimator/no-treated-rows",
        "message": "treated-mean estimand needs a treated row for P_n(A)"}
    # a config's own P_n(A) needs no treated row in the sample
    doc = run_cli(capsys, ["remainder", "--config",
                           config("p.json", dict(keys, mode="exact", pn_a=0.5))])[1]
    assert set(doc["terms"]) == {"s1", "s2", "s3"}


def test_overflowing_verify_eif_leaves_stderr_empty(tmp_path):
    # the error document is the whole output: the overflow in the arm that
    # np.where discards prints no RuntimeWarning
    (tmp_path / "law.json").write_text(json.dumps(_OVERFLOW_LAW))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distribution": "law.json", "direction": "law.json"}))
    result = _cli_process("verify-eif", "--config", str(cfg))
    assert result.returncode == 1
    assert json.loads(result.stdout)["error"]["code"] == "numeric/non-finite"
    assert result.stderr == ""


_EXACT = {"kind": "oracle-rate", "rate_exponent": 0.25, "amplitude": 0.0}


@pytest.mark.parametrize("command, doc, curve", [
    # exact oracles: the remainder is zero at every n
    ("remainder", {"distribution": "dist.json", "mode": "sweep", "n_grid": [100, 200],
                   "learners": {"q": _EXACT, "g": _EXACT}}, "remainder"),
    # the plug-in with the exact regression of an outcome mean that no
    # covariate moves: every point equals the truth
    ("simulate", {"study": "rate", "n_grid": [100, 200], "reps": 4,
                  "dgp": {"beta": [1.0, 0.0, 0.0]},
                  "estimator": {"estimator": "plugin",
                                "learners": {"q": _EXACT, "g": _EXACT}}}, "RMSE"),
])
def test_a_curve_that_vanishes_on_the_grid_has_no_slope(workspace, command, doc, curve):
    _, config = workspace
    result = _cli_process(command, "--config", config("cfg.json", doc))
    assert result.returncode == 2
    assert json.loads(result.stdout)["error"] == {
        "code": "config/invalid",
        "message": f"{command} config: {curve} vanished on the grid; slope undefined "
                   "(amplitude 0?)"}
    assert result.stderr == ""


def test_an_int_beyond_the_float_range_in_a_law_file_is_refused_like_any_bad_atom(tmp_path):
    # json reads a 401-digit literal as an int, which escaped the atom rule
    # as an OverflowError with a traceback; a law file's bad atom exits 1
    digits = "1" * 401
    (tmp_path / "law.json").write_text(
        '{"atoms": [{"w": [0.0], "a": 0, "y": 1.0, "p": 0.5}, '
        f'{{"w": [{digits}], "a": 1, "y": 1.0, "p": 0.5}}]}}')
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distribution": "law.json", "direction": "law.json"}))
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-m", "eifkit.cli", "verify-eif", "--config",
                             str(cfg)], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == 1
    assert json.loads(result.stdout) == {"error": {
        "code": "distribution/invalid",
        "message": f"atom 1: 'w' must be a finite number or a non-empty list of them, "
                   f"got [{digits}]"}}
    assert result.stderr == ""


def test_an_int_literal_past_the_digit_limit_exits_with_an_error_document(workspace, capsys):
    # json.load raises a bare ValueError on an int literal of more than 4300
    # digits; the config exits 2 and the law file 1, as other bad JSON does
    tmp_path, _ = workspace
    digits = "1" * 5000
    (tmp_path / "cfg.json").write_text('{"distribution": "dist.json", "direction": '
                                       f'"direction.json", "step_grid": [{digits}]}}')
    error = _only_error_document(
        capsys, main(["verify-eif", "--config", str(tmp_path / "cfg.json")]), 2)
    assert error["code"] == "config/invalid" and "invalid JSON" in error["message"]
    (tmp_path / "law.json").write_text(f'{{"atoms": [{{"w": [{digits}], "a": 0, "y": 1.0, '
                                       '"p": 1.0}]}')
    (tmp_path / "cfg.json").write_text('{"distribution": "law.json", "direction": "law.json"}')
    error = _only_error_document(
        capsys, main(["verify-eif", "--config", str(tmp_path / "cfg.json")]), 1)
    assert error["code"] == "distribution/invalid" and "not valid JSON" in error["message"]


def _estimate_on_overflowing_covariates(tmp_path, estimator, learners):
    """``eifkit estimate`` in a subprocess on 60 rows whose covariates are near +-1e200."""
    rng = np.random.default_rng(8)
    w = rng.uniform(-1.0, 1.0, (60, 2)) * 1e200
    rows = [f"{float(w1)!r},{float(w2)!r},{i % 2},{float(y)!r}"
            for i, (w1, w2, y) in enumerate(zip(w[:, 0], w[:, 1], rng.standard_normal(60)))]
    (tmp_path / "big.csv").write_text("w1,w2,a,y\n" + "\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": "big.csv", "estimator": estimator, "learners": learners}))
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "eifkit.cli", "estimate", "--config",
                           str(cfg)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


@pytest.mark.parametrize("q_kind", ["linear-ols", "misspecified-omit"])
def test_overflowing_covariates_exit_one_with_empty_stderr(tmp_path, q_kind):
    # covariates near +-1e200 overflow the normal equations; the fit refuses
    # them at once, with no RuntimeWarning on stderr
    result = _estimate_on_overflowing_covariates(tmp_path, "plugin", {"q": {"kind": q_kind}})
    assert result.returncode == 1
    assert json.loads(result.stdout) == {"error": {
        "code": "numeric/non-finite",
        "message": "the Gram matrix is not finite: the data overflow it"}}
    assert result.stderr == ""


@pytest.mark.parametrize("estimator, learners, what", [
    ("plugin", {"q": {"kind": "knn"}}, "the kNN squared-distance bound"),
    ("onestep", {"q": {"kind": "knn"}, "g": {"kind": "knn"}}, "the kNN squared-distance bound"),
    ("plugin", {"q": {"kind": "kernel-nw"}}, "the covariates' standard deviation"),
    ("plugin", {"q": {"kind": "kernel-nw", "bandwidth": 1.0}}, "the kernel matrix")])
def test_overflowing_covariates_are_refused_by_the_smoothers(tmp_path, estimator, learners, what):
    # the smoothers used to answer with a point estimate from inf distances
    # or an inf bandwidth, with a RuntimeWarning on stderr
    result = _estimate_on_overflowing_covariates(tmp_path, estimator, learners)
    assert result.returncode == 1
    assert json.loads(result.stdout) == {"error": {
        "code": "numeric/non-finite", "message": f"{what} is not finite: the data overflow it"}}
    assert result.stderr == ""


def test_overflow_in_the_other_arm_is_no_nan(tmp_path, capsys):
    # each treated atom's y - q overflows, but its psi influence value is
    # q - psi = +-1.7e308: selecting the arm, not multiplying by I(a=0),
    # keeps 0 * inf out of the sum
    law = {"atoms": [{"w": [0.0], "a": 0, "y": 1.7e308, "p": 0.25},
                     {"w": [0.0], "a": 1, "y": -1.7e308, "p": 0.25},
                     {"w": [1.0], "a": 0, "y": -1.7e308, "p": 0.25},
                     {"w": [1.0], "a": 1, "y": 1.7e308, "p": 0.25}]}
    (tmp_path / "law.json").write_text(json.dumps(law))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distribution": "law.json", "direction": "law.json",
                               "functional": "psi"}))
    code, doc = run_cli(capsys, ["verify-eif", "--config", str(cfg)])
    assert code == 0
    assert math.isfinite(doc["psi"]["eif_mean"])


@pytest.mark.parametrize("grid", ["[NaN]", "[1e-3, NaN]", "[Infinity]", "[1e-3, -Infinity]"])
def test_non_finite_config_constants_exit_two(workspace, capsys, grid):
    tmp_path, _ = workspace
    cfg = tmp_path / "ver.json"
    cfg.write_text('{"distribution": "dist.json", "direction": "direction.json", '
                   f'"step_grid": {grid}}}')
    error = _only_error_document(capsys, main(["verify-eif", "--config", str(cfg)]), 2)
    assert error["code"] == "config/invalid" and "not a finite number" in error["message"]


@pytest.mark.parametrize("doc, undefined", [
    # one replication survives: no variance, skewness or kurtosis
    ({}, {"var_scaled_error", "skewness", "excess_kurtosis"}),
    # a plug-in study has no influence-based variance
    ({"estimator": {"estimator": "plugin"}, "include_replications": True},
     {"mean_scaled_variance", "ks_distance"}),
])
def test_simulate_writes_undefined_statistics_as_null(tmp_path, capsys, doc, undefined):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict({"study": "coverage", "reps": 2, "seed": 124, "n": 4}, **doc)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(cfg)])
    out = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert code == 0
    assert {key for key, value in out.items() if value is None} == undefined
    for row in out.get("replications", []):
        assert row["variance"] is None


def test_non_finite_result_is_a_runtime_error(workspace, capsys, monkeypatch):
    # a value that still is not finite when the document is written
    _, config = workspace
    monkeypatch.setattr("eifkit.cli._cmd_estimate", lambda args: {"point": float("inf")})
    cfg = config("est.json", {"data": "sample.csv"})
    error = _only_error_document(capsys, main(["estimate", "--config", cfg]), 1)
    assert error["code"] == "numeric/non-finite"


# ---------------------------------------------------------------------------
# shared plumbing


def test_output_files_are_byte_identical_across_reruns(workspace, capsys, tmp_path):
    _, config = workspace
    cfg = config("est.json", {"data": "sample.csv", "folds": 3, "seed": 1})
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["estimate", "--config", cfg, "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--config", cfg, "--out", str(out2)]) == 0
    stdout = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    # stdout carries the same document as the file
    assert stdout == out1.read_text()


def _only_error_document(capsys, code, want_code):
    captured = capsys.readouterr()
    assert code == want_code
    doc, end = json.JSONDecoder().raw_decode(captured.out)
    assert captured.out[end:] == "\n"
    assert set(doc) == {"error"}
    assert "Traceback" not in captured.err
    return doc["error"]


@pytest.mark.parametrize("target", ["nodir/o.json", ".", "a\0b"])
def test_estimate_out_path_checked_before_any_work(workspace, capsys, monkeypatch, target):
    tmp_path, config = workspace
    cfg = config("est.json", {"data": "sample.csv"})

    def no_estimate(*args, **kwargs):
        raise AssertionError("estimated for a rejected --out")

    monkeypatch.setattr("eifkit.cli.estimate", no_estimate)
    monkeypatch.chdir(tmp_path)
    code = main(["estimate", "--config", cfg, "--out", target])
    error = _only_error_document(capsys, code, 2)
    assert error["code"] == "config/invalid" and "--out" in error["message"]


def test_estimate_out_write_failure_exits_one(workspace, capsys, monkeypatch):
    # the directory passes the up-front check, then goes away during the work
    tmp_path, config = workspace
    cfg = config("est.json", {"data": "sample.csv"})
    target = tmp_path / "gone"
    target.mkdir()
    original = main.__globals__["estimate"]

    def estimate_then_remove(*args, **kwargs):
        target.rmdir()
        return original(*args, **kwargs)

    monkeypatch.setattr("eifkit.cli.estimate", estimate_then_remove)
    code = main(["estimate", "--config", cfg, "--out", str(target / "o.json")])
    error = _only_error_document(capsys, code, 1)
    assert error["code"] == "output/write-failed"


@pytest.mark.parametrize("target", ["nodir/x.csv", ".", 5])
def test_simulate_replications_out_checked_before_any_work(workspace, capsys, monkeypatch,
                                                            target):
    _, config = workspace

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a rejected replications_out")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    cfg = config("sim.json", {"study": "coverage", "n": 50, "reps": 3,
                              "replications_out": target})
    code = main(["simulate", "--config", cfg])
    error = _only_error_document(capsys, code, 2)
    assert error["code"] == "config/invalid"


def test_simulate_replications_out_write_failure_exits_one(workspace, capsys, monkeypatch):
    tmp_path, config = workspace
    target = tmp_path / "gone"
    target.mkdir()
    original = montecarlo._run_tasks

    def run_then_remove(*args, **kwargs):
        target.rmdir()
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_run_tasks", run_then_remove)
    cfg = config("sim.json", {"study": "coverage", "n": 50, "reps": 3,
                              "replications_out": "gone/x.csv"})
    code = main(["simulate", "--config", cfg])
    error = _only_error_document(capsys, code, 1)
    assert error["code"] == "output/write-failed" and "x.csv" in error["message"]


@pytest.mark.parametrize("value", ["", False, 0, []])
def test_simulate_refuses_a_replications_out_that_is_no_path(workspace, capsys, monkeypatch,
                                                             value):
    # a falsy value is refused like any other, not taken as "no output file"
    _, config = workspace

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a rejected replications_out")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    cfg = config("sim.json", {"study": "coverage", "n": 50, "reps": 3,
                              "replications_out": value})
    error = _only_error_document(capsys, main(["simulate", "--config", cfg]), 2)
    assert error == {"code": "config/invalid",
                     "message": f"simulate config: 'replications_out': expected a file path "
                                f"string, got {value!r}"}


@pytest.mark.parametrize("command, doc, where, key", [
    ("estimate", {"data": 0}, "estimate config", "data"),
    ("verify-eif", {"distribution": 0, "direction": "direction.json"},
     "verify-eif config", "distribution"),
    ("verify-eif", {"distribution": "dist.json", "direction": 0}, "verify-eif config",
     "direction"),
    ("decompose", {"distribution": "dist.json", "sample": 0}, "decompose config", "sample"),
    ("remainder", {"distribution": 0}, "remainder config", "distribution"),
    ("remainder", {"distribution": "dist.json", "sample": 0}, "remainder config", "sample"),
    ("simulate", {"study": "coverage", "n": 50, "reps": 3,
                  "dgp": {"kind": "discrete-saturated", "distribution": 0}},
     "simulate config.dgp", "distribution"),
])
def test_a_path_that_is_no_string_names_its_key(workspace, capsys, command, doc, where, key):
    _, config = workspace
    error = _only_error_document(capsys, main([command, "--config", config("c.json", doc)]), 2)
    assert error == {"code": "config/invalid",
                     "message": f"{where}: {key!r}: expected a file path string, got 0"}


def test_stdout_is_sorted_pretty_json(workspace, capsys):
    _, config = workspace
    cfg = config("est.json", {"data": "sample.csv"})
    code = main(["estimate", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("\n")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_config_file_errors_exit_two(workspace, capsys, tmp_path):
    _, config = workspace
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    code, doc = run_cli(capsys, ["estimate", "--config", str(bad_json)])
    assert code == 2 and doc["error"]["code"] == "config/invalid"

    code, doc = run_cli(capsys, ["estimate", "--config", str(tmp_path / "missing.json")])
    assert code == 2

    cfg = config("est.json", {"data": "sample.csv", "bogus": 1})
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    assert code == 2 and "bogus" in doc["error"]["message"]

    cfg = config("est.json", {"estimand": "psi"})
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    assert code == 2 and "data" in doc["error"]["message"]

    for command in ("estimate", "simulate"):
        for doc in ([], ["data", "sample.csv"], "x", 3, None):
            cfg = config("list.json", doc)
            error = _only_error_document(capsys, main([command, "--config", cfg]), 2)
            assert error == {"code": "config/invalid",
                             "message": f"{cfg}: config must be a JSON object"}


def test_config_relative_paths(workspace, capsys, tmp_path, monkeypatch):
    # paths inside a config resolve against the config file, not the cwd
    _, config = workspace
    cfg = config("est.json", {"data": "sample.csv"})
    monkeypatch.chdir(tmp_path / "..")
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    pytest.param(["estimate"],
                 "eifkit estimate: the following arguments are required: --config",
                 id="no-config"),
    pytest.param(["frobnicate", "--config", "x.json"],
                 "eifkit: argument command: invalid choice: 'frobnicate' (choose from "
                 "'estimate', 'verify-eif', 'decompose', 'remainder', 'simulate')",
                 id="unknown-subcommand"),
    pytest.param(["estimate", "--config", "x.json", "--seed", "abc"],
                 "eifkit estimate: argument --seed: invalid int value: 'abc'", id="seed-abc"),
    pytest.param(["simulate", "--config", "x.json", "--workers", "x"],
                 "eifkit simulate: argument --workers: invalid int value: 'x'", id="workers-x"),
    pytest.param([], "eifkit: the following arguments are required: command", id="no-command"),
])
def test_argparse_failures_exit_two(capsys, argv, message):
    # a usage error is a config problem: the error document, then exit 2
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"error": {"code": "config/invalid", "message": message}}
    assert captured.err == ""


@pytest.mark.parametrize("argv", [["-h"], ["estimate", "-h"], ["simulate", "--help"]])
def test_help_still_prints_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: eifkit")


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_negative_seed_flag_exits_two(workspace, capsys, monkeypatch, command):
    _, config = workspace

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a rejected seed")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    doc = ({"data": "sample.csv", "folds": 0} if command == "estimate"
           else {"study": "coverage", "n": 50, "reps": 4})
    code = main([command, "--config", config("cfg.json", doc), "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    out = json.loads(captured.out)
    assert set(out) == {"error"} and "--seed" in out["error"]["message"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, doc", [
    (["--workers", "0"], {}),
    (["--workers", "-3"], {}),
    ([], {"workers": 0}),
    ([], {"workers": -3}),
    ([], {"workers": 1.5}),
    ([], {"workers": "2"}),
    ([], {"workers": True}),
    ([], {"workers": None}),
])
def test_workers_below_one_or_not_an_integer_exit_two(workspace, capsys, monkeypatch,
                                                      argv, doc):
    _, config = workspace

    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran for a rejected worker count")

    monkeypatch.setattr(montecarlo, "_run_tasks", no_replications)
    cfg = config("cfg.json", {"study": "coverage", "n": 50, "reps": 4, **doc})
    code = main(["simulate", "--config", cfg, *argv])
    captured = capsys.readouterr()
    assert code == 2
    out = json.loads(captured.out)
    assert set(out) == {"error"} and "workers" in out["error"]["message"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("target", ["config", "csv", "distribution"])
def test_files_that_are_not_utf8_exit_two(workspace, capsys, target):
    tmp_path, config = workspace
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b'{"atoms": [\xff]}\n' if target != "csv" else b"w1,a,y\n0.0,0,\xff\n")
    if target == "config":
        argv = ["estimate", "--config", str(bad)]
    elif target == "csv":
        argv = ["estimate", "--config", config("est.json", {"data": "bad.bin"})]
    else:
        argv = ["verify-eif", "--config",
                config("v.json", {"distribution": "bad.bin", "direction": "direction.json"})]
    code, doc = run_cli(capsys, argv)
    assert code == 2
    assert doc["error"]["code"] == "config/invalid" and "UTF-8" in doc["error"]["message"]


@pytest.mark.parametrize("target", ["config", "csv", "distribution"])
def test_a_utf8_byte_order_mark_is_dropped(workspace, capsys, target):
    # editors on Windows save UTF-8 with a leading BOM; each reader drops it
    tmp_path, config = workspace
    name = {"config": "est.json", "csv": "sample.csv", "distribution": "dist.json"}[target]
    argv = (["estimate", "--config", config("est.json", {"data": "sample.csv"})]
            if target != "distribution" else
            ["verify-eif", "--config",
             config("v.json", {"distribution": "dist.json", "direction": "direction.json"})])
    code, plain = run_cli(capsys, argv)
    assert code == 0
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run_cli(capsys, argv) == (0, plain)


# ---------------------------------------------------------------------------
# the error contract under random input

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


_LEARNER_FIELDS = {"k": st.integers(1, 15), "bandwidth": st.floats(0.05, 2.0),
                   "truncation": st.floats(0.001, 0.2)}


def _learner(kinds):
    """A spec of one of ``kinds`` holding some of the fields its kind reads."""
    def spec(kind):
        reads = [name for name in _KINDS[kind][1] if name in _LEARNER_FIELDS]
        return st.fixed_dictionaries({"kind": st.just(kind)},
                                     optional={name: _LEARNER_FIELDS[name] for name in reads})

    return st.sampled_from(kinds).flatmap(spec)


_ESTIMATE_FIELDS = {
    "estimand": st.sampled_from(["psi", "theta"]),
    "estimator": st.sampled_from(["onestep", "plugin", "ipw"]),
    "learners": st.fixed_dictionaries({}, optional={
        "q": _learner(["linear-ols", "knn", "kernel-nw", "misspecified-omit"]),
        "g": _learner(["logistic-irls", "knn", "kernel-nw", "misspecified-omit",
                       "misspecified-wronglink"]),
    }),
    "folds": st.integers(0, 4),
    "level": st.floats(0.5, 0.99),
    "seed": st.integers(0, 2**40),
    "include_eif": st.booleans(),
}


@st.composite
def _estimate_config(draw):
    """A valid estimate config, one with a single key replaced by random JSON, or random bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64))
    doc = draw(st.fixed_dictionaries({"data": st.just("data.csv")}, optional=_ESTIMATE_FIELDS))
    key = draw(st.sampled_from([None] * 9 + ["data", "extra", *_ESTIMATE_FIELDS]))
    if key is not None:
        doc[key] = draw(_json_values)
    return json.dumps(doc).encode()


@st.composite
def _csv_text(draw):
    """A valid sample of at most 12 rows, one with a single defect, or random bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64))
    d = draw(st.integers(1, 2))
    header = draw(st.permutations([f"w{j}" for j in range(1, d + 1)] + ["a", "y"]))
    rows = [[draw(st.sampled_from(["0", "1"])) if name == "a" else repr(draw(st.floats(-3, 3)))
             for name in header] for _ in range(draw(st.integers(0, 12)))]
    table = [header] + rows
    defect = draw(st.sampled_from([None] * 6 + ["cell", "short", "long"]))
    if defect is not None:
        row = table[draw(st.integers(0, len(table) - 1))]
        junk = st.sampled_from(["", "x", "nan", "inf", "2", "w0", "w3", "z", "a", "y"])
        if defect == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(junk)
        elif defect == "short":
            row.pop()
        else:
            row.append(draw(junk))
    return ("\n".join(",".join(row) for row in table) + "\n").encode()


def _refuse_constant(token):
    raise AssertionError(f"stdout holds {token}, which is not JSON")


def _assert_contract(command, files):
    """Run ``command`` on a config and its files in a fresh directory; check the contract."""
    # in process, a traceback is an exception escaping main(), which fails the example
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            (Path(tmp) / name).write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(Path(tmp) / "cfg.json")])
    assert code in (0, 1, 2)
    decoder = json.JSONDecoder(parse_constant=_refuse_constant)
    text = out.getvalue()
    doc, end = decoder.raw_decode(text)
    assert text[end:] == "\n"
    assert isinstance(doc, dict) and (code == 0) != ("error" in doc)
    assert "Traceback" not in err.getvalue()


@given(config=_estimate_config(), data=_csv_text())
@settings(max_examples=200)
def test_estimate_keeps_the_error_contract_on_random_input(config, data):
    _assert_contract("estimate", {"cfg.json": config, "data.csv": data})


# the exact-layer subcommands: random laws of at most 12 atoms (treated-only
# strata, signed zeros and all), samples on or off their support, and
# configs with one key replaced by random JSON

_W_VALUES = (-1.0, -0.0, 0.0, 0.5, 1.0)


@st.composite
def _law_keys(draw):
    d = draw(st.integers(1, 2))
    w = st.tuples(*[st.sampled_from(_W_VALUES)] * d)
    return draw(st.lists(st.tuples(w, st.integers(0, 1), st.sampled_from([-1.0, 0.0, 0.5, 2.0])),
                         min_size=1, max_size=12, unique=True))


@st.composite
def _law_file(draw, keys):
    """The atom table of ``keys`` with random masses, one with a single defect, or random bytes."""
    if draw(st.integers(0, 6)) == 0:
        return draw(st.binary(max_size=64))
    counts = draw(st.lists(st.integers(1, 9), min_size=len(keys), max_size=len(keys)))
    total = sum(counts)
    atoms = [{"w": list(w), "a": a, "y": y, "p": c / total} for (w, a, y), c in zip(keys, counts)]
    defect = draw(st.sampled_from([None] * 6 + ["field", "drop", "duplicate"]))
    atom = atoms[draw(st.integers(0, len(atoms) - 1))]
    if defect == "field":
        atom[draw(st.sampled_from(["w", "a", "y", "p"]))] = draw(_json_values)
    elif defect == "drop":
        del atom[draw(st.sampled_from(["w", "a", "y", "p"]))]
    elif defect == "duplicate":
        atoms.append(dict(atom))
    return json.dumps({"atoms": atoms}).encode()


@st.composite
def _support_sample(draw, keys):
    rows = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=12))
    d = len(keys[0][0])
    lines = [",".join([f"w{j}" for j in range(1, d + 1)] + ["a", "y"])]
    lines += [",".join([repr(v) for v in w] + [str(a), repr(y)]) for w, a, y in rows]
    return ("\n".join(lines) + "\n").encode()


def _oracle():
    return st.fixed_dictionaries(
        {"kind": st.just("oracle-rate"), "rate_exponent": st.floats(0.05, 0.5),
         "amplitude": st.floats(0.0, 0.5)},
        optional={"shape": st.integers(0, 2), "truncation": st.floats(0.001, 0.2)})


_EXACT_LEARNERS = st.fixed_dictionaries({}, optional={
    "q": _learner(["linear-ols", "knn", "kernel-nw"]) | _oracle(),
    "g": _learner(["logistic-irls", "knn", "kernel-nw"]) | _oracle(),
})


def _exact_config(command):
    estimand = st.sampled_from(["psi", "theta"])
    if command == "decompose":
        return st.fixed_dictionaries(
            {"distribution": st.just("dist.json"), "sample": st.just("sample.csv")},
            optional={"estimand": estimand, "learners": _EXACT_LEARNERS})
    if command == "verify-eif":
        return st.fixed_dictionaries(
            {"distribution": st.just("dist.json"), "direction": st.just("direction.json")},
            optional={"functional": st.sampled_from(["psi", "theta", "both"]),
                      "step_grid": st.sampled_from([[1e-3, 5e-4], [1e-2], [0.5, 0.25, 0.125]])})
    if command == "remainder-sweep":
        return st.fixed_dictionaries(
            {"distribution": st.just("dist.json"), "mode": st.just("sweep"),
             "n_grid": st.sampled_from([[16, 64, 256], [100, 1000]]),
             "learners": st.fixed_dictionaries({"q": _oracle(), "g": _oracle()})},
            optional={"estimand": estimand})
    with_sample = st.fixed_dictionaries(
        {"distribution": st.just("dist.json"), "sample": st.just("sample.csv")},
        optional={"learners": _EXACT_LEARNERS})
    with_n = st.fixed_dictionaries(
        {"distribution": st.just("dist.json"), "n": st.integers(1, 10**4),
         "learners": st.fixed_dictionaries({"q": _oracle(), "g": _oracle()})})
    return st.tuples(with_sample | with_n, estimand, st.floats(0.05, 1.0)).map(
        lambda t: dict(t[0], estimand=t[1], **({"pn_a": t[2]} if t[1] == "theta" else {})))


@pytest.mark.parametrize("command", ["decompose", "remainder-exact", "remainder-sweep",
                                     "verify-eif"])
@given(data=st.data())
@settings(max_examples=60)
def test_exact_subcommands_keep_the_error_contract_on_random_input(command, data):
    keys = data.draw(_law_keys())
    doc = data.draw(_exact_config(command))
    key = data.draw(st.sampled_from([None] * 5 + ["extra", *doc]))
    if key is not None:
        doc[key] = data.draw(_json_values)
    files = {"cfg.json": json.dumps(doc).encode(), "dist.json": data.draw(_law_file(keys))}
    if command == "verify-eif":
        subset = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        files["direction.json"] = data.draw(_law_file(subset))
    else:
        files["sample.csv"] = data.draw(_support_sample(keys) | _csv_text())
    _assert_contract(command.split("-")[0] if command != "verify-eif" else command, files)


# simulate: small valid studies (n <= 60, reps <= 4, workers <= 2), one key
# replaced by random JSON whose integers stay as small, or random bytes

_small_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)

_STUDY_FIELDS = {
    "seed": st.integers(0, 2**40),
    "workers": st.integers(1, 2),
    "include_replications": st.booleans(),
    "replications_out": st.just("reps.csv"),
    "dgp": st.fixed_dictionaries({"kind": st.just("logistic-linear")}, optional={
        "noise_sd": st.floats(0.0, 2.0), "treated_shift": st.floats(-1.0, 1.0)}),
}


@st.composite
def _simulate_config(draw):
    if draw(st.integers(0, 6)) == 0:
        return draw(st.binary(max_size=64))
    study = draw(st.sampled_from(["coverage", "rate", "dr"]))
    doc = draw(st.fixed_dictionaries({"study": st.just(study), "reps": st.integers(2, 4)},
                                     optional=_STUDY_FIELDS))
    if study == "coverage":
        doc["n"] = draw(st.integers(2, 60))
    else:
        doc["n_grid"] = sorted(draw(st.sets(st.integers(2, 60), min_size=2, max_size=3)))
    if study == "dr":
        doc["arm"] = draw(st.sampled_from(["none", "q-wrong", "g-wrong", "both-wrong"]))
        doc.update(draw(st.fixed_dictionaries({}, optional={
            "estimand": st.sampled_from(["psi", "theta"])})))
    else:
        fields = {k: v for k, v in _ESTIMATE_FIELDS.items() if k not in ("seed", "include_eif")}
        doc.update(draw(st.fixed_dictionaries({}, optional={
            "estimator": st.fixed_dictionaries({}, optional={
                **fields, "fold_seed": st.integers(0, 2**40)})})))
    key = draw(st.sampled_from([None] * 9 + ["extra", *doc]))
    if key is not None:
        doc[key] = draw(_small_json_values)
    return json.dumps(doc).encode()


@given(config=_simulate_config())
@settings(max_examples=60)
def test_simulate_keeps_the_error_contract_on_random_input(config):
    _assert_contract("simulate", {"cfg.json": config})


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; a cold `eifkit` call must not pay its import
    code = ("import sys, eifkit, eifkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    assert result.stdout.strip() == "[]"
