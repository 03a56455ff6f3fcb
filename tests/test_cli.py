"""CSV ingestion taxonomy and end-to-end subcommand behavior."""

import json
from pathlib import Path

import numpy as np
import pytest

from eifkit import EstimatorConfig, draw_dataset, estimate, montecarlo, save_distribution
from eifkit.cli import ingest_csv, main
from eifkit.distributions import FiniteDistribution, Observation
from eifkit.errors import (
    ConfigError,
    EmptyDataset,
    MissingColumn,
    NonBinaryTreatment,
    UnexpectedColumn,
    UnparseableNumber,
)


SCRIPTS_DATA = Path(__file__).resolve().parent.parent / "scripts" / "data"


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
    {"learners": {"g": {"kind": "knn", "k": True}}},
    {"level": 1.5},
    {"level": 0},
    {"folds": 500},
    {"include_eif": "yes"},
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


def test_config_relative_paths(workspace, capsys, tmp_path, monkeypatch):
    # paths inside a config resolve against the config file, not the cwd
    _, config = workspace
    cfg = config("est.json", {"data": "sample.csv"})
    monkeypatch.chdir(tmp_path / "..")
    code, doc = run_cli(capsys, ["estimate", "--config", cfg])
    assert code == 0


def test_argparse_failures_exit_two(workspace):
    with pytest.raises(SystemExit) as err:
        main(["estimate"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "--config", "x.json"])
    assert err.value.code == 2
