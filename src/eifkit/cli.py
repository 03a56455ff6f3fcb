"""Command-line front end.

Subcommands
-----------
estimate
    Point estimate with influence-based interval from a CSV data file.
verify-eif
    Richardson-extrapolated pathwise derivative check on serialized laws.
decompose
    Four-term error split for a sample drawn from a serialized truth.
remainder
    Exact second-order remainder, or a deterministic rate sweep.
simulate
    Seeded coverage, convergence-rate, or double-robustness studies.

Every subcommand reads a JSON config (``--config``), prints one JSON
document to stdout, and mirrors the same bytes to ``--out`` when given.
Output is deterministic: keys are sorted, floats use shortest-repr
formatting, and all randomness flows from config seeds, so reruns are
byte-identical.  Relative paths inside a config resolve against the
config file's directory.

Failures print ``{"error": {"code", "message"}}`` to stdout and exit
with 2 for config problems and 1 for runtime ones.

CSV data files carry covariate columns ``w1..wd`` (contiguous indices,
any column order), a binary treatment column ``a``, and an outcome
column ``y``.  Row numbers in error messages count data rows from 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .decomposition import (
    decompose_error,
    remainder_exact_psi,
    remainder_exact_theta,
    remainder_rate_sweep,
    truth_functions,
)
from .distributions import (
    eif_psi,
    eif_theta,
    load_distribution,
    pathwise_derivative_check,
)
from .errors import (
    ConfigError,
    EifkitError,
    EmptyDataset,
    InvalidLearnerSpec,
    MissingColumn,
    NonBinaryTreatment,
    UnexpectedColumn,
    UnparseableNumber,
)
from .estimators import EstimatorConfig, estimate
from .learners import (
    Dataset,
    LearnerSpec,
    fit_nuisance,
    oracle_rate_nuisance,
)
from .montecarlo import (
    DGPSpec,
    run_coverage,
    run_dr_consistency,
    run_rate_experiment,
)

__all__ = ["main", "entrypoint", "ingest_csv"]

REPLICATION_HEADER = ("rep", "n", "point", "variance", "covered", "scaled_error")


# ---------------------------------------------------------------------------
# deterministic output helpers


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(doc: dict, out_path) -> None:
    text = _dumps(doc)
    sys.stdout.write(text)
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


# ---------------------------------------------------------------------------
# CSV ingestion


def ingest_csv(path) -> Dataset:
    """Load a (W, A, Y) sample from a CSV file, validating the schema."""
    try:
        with open(path, newline="") as fh:
            raw = [row for row in csv.reader(fh) if row]
    except OSError as err:
        raise ConfigError(f"cannot read data file {path}: {err}") from None
    if not raw:
        raise EmptyDataset(f"{path}: file has no header row")
    header = [c.strip() for c in raw[0]]
    if len(set(header)) != len(header):
        dupes = sorted({c for c in header if header.count(c) > 1})
        raise UnexpectedColumn(f"{path}: duplicate column names {dupes}")
    w_index: dict = {}
    a_col = y_col = None
    for i, name in enumerate(header):
        if name == "a":
            a_col = i
        elif name == "y":
            y_col = i
        elif len(name) > 1 and name[0] == "w" and name[1:].isdigit() and int(name[1:]) >= 1:
            j = int(name[1:])
            if j in w_index:
                raise UnexpectedColumn(f"{path}: covariate index {j} appears twice")
            w_index[j] = i
        else:
            raise UnexpectedColumn(
                f"{path}: unexpected column {name!r} (expected w1..wd, a, y)"
            )
    if a_col is None:
        raise MissingColumn(f"{path}: missing treatment column 'a'")
    if y_col is None:
        raise MissingColumn(f"{path}: missing outcome column 'y'")
    if not w_index:
        raise MissingColumn(f"{path}: no covariate columns (need w1, w2, ...)")
    d = max(w_index)
    for j in range(1, d + 1):
        if j not in w_index:
            raise MissingColumn(f"{path}: covariate columns have a gap; missing 'w{j}'")

    body = raw[1:]
    if not body:
        raise EmptyDataset(f"{path}: no data rows")
    n = len(body)
    w = np.empty((n, d))
    a = np.empty(n, dtype=np.int64)
    y = np.empty(n)
    width = len(header)
    for r, row in enumerate(body):
        label = f"{path}: row {r + 1}"
        if len(row) > width:
            raise UnexpectedColumn(f"{label}: {len(row)} fields, expected {width}")
        if len(row) < width:
            raise MissingColumn(f"{label}: {len(row)} fields, expected {width}")
        a[r] = _parse_treatment(row[a_col], label)
        y[r] = _parse_number(row[y_col], "y", label)
        for j in range(1, d + 1):
            w[r, j - 1] = _parse_number(row[w_index[j]], f"w{j}", label)
    return Dataset(w=w, a=a, y=y)


def _parse_number(text: str, column: str, label: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise UnparseableNumber(
            f"{label}, column {column!r}: cannot parse {text!r}"
        ) from None
    if not math.isfinite(value):
        raise UnparseableNumber(f"{label}, column {column!r}: non-finite value {text!r}")
    return value


def _parse_treatment(text: str, label: str) -> int:
    value = _parse_number(text, "a", label)
    if value not in (0.0, 1.0):
        raise NonBinaryTreatment(f"{label}: treatment must be 0 or 1, got {text!r}")
    return int(value)


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _check_keys(cfg: dict, allowed, required, where: str) -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")


def _resolve(config_path, value) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"expected a file path string, got {value!r}")
    p = Path(value)
    return str(p if p.is_absolute() else Path(config_path).parent / p)


def _learner_pair(cfg: dict, where: str):
    """Parse the optional learners block; defaults are OLS and IRLS."""
    block = cfg.get("learners", {})
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: 'learners' must be an object")
    _check_keys(block, ("q", "g"), (), f"{where}.learners")
    try:
        spec_q = (LearnerSpec.from_dict(block["q"]) if "q" in block
                  else LearnerSpec("linear-ols"))
        spec_g = (LearnerSpec.from_dict(block["g"]) if "g" in block
                  else LearnerSpec("logistic-irls"))
    except InvalidLearnerSpec as err:
        raise ConfigError(f"{where}.learners: {err}") from None
    return spec_q, spec_g


def _str_field(cfg, key, default, choices, where):
    value = cfg.get(key, default)
    if value not in choices:
        raise ConfigError(f"{where}: {key!r} must be one of {list(choices)}, got {value!r}")
    return value


def _int_field(cfg, key, default, where, minimum=0):
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where}: {key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _float_field(cfg, key, default, where):
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: {key!r} must be a number, got {value!r}")
    return float(value)


def _bool_field(cfg, key, default, where):
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: {key!r} must be true or false, got {value!r}")
    return value


def _float_list(cfg, key, default, where):
    value = cfg.get(key, default)
    if (not isinstance(value, (list, tuple))
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ConfigError(f"{where}: {key!r} must be a list of numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _int_grid(cfg, key, where):
    value = cfg.get(key)
    if (not isinstance(value, list) or len(value) < 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in value)):
        raise ConfigError(f"{where}: {key!r} must be a list of at least two integers")
    return [int(v) for v in value]


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the JSON document to emit)


def _cmd_estimate(args) -> dict:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        ("data", "estimand", "estimator", "learners", "folds", "level",
         "seed", "include_eif"),
        ("data",),
        "estimate config",
    )
    seed = args.seed if args.seed is not None else _int_field(cfg, "seed", 0, "estimate config")
    config = _estimator_config(cfg, seed, "estimate config")
    if "oracle-rate" in (config.spec_q.kind, config.spec_g.kind):
        raise ConfigError(
            "estimate config: oracle-rate learners need a known truth and "
            "cannot run from a data file"
        )
    include_eif = _bool_field(cfg, "include_eif", False, "estimate config")
    data = ingest_csv(_resolve(args.config, cfg["data"]))
    config.check_folds(data.n)
    return estimate(data, config).to_dict(include_eif=include_eif)


def _cmd_verify_eif(args) -> dict:
    cfg = _load_config(args.config)
    _check_keys(cfg, ("distribution", "direction", "functional", "step_grid"),
                ("distribution", "direction"), "verify-eif config")
    functional = _str_field(cfg, "functional", "both",
                            ("psi", "theta", "both"), "verify-eif config")
    base = load_distribution(_resolve(args.config, cfg["distribution"]))
    direction = load_distribution(_resolve(args.config, cfg["direction"]))
    step_grid = (None if cfg.get("step_grid") is None
                 else _float_list(cfg, "step_grid", None, "verify-eif config"))
    names = ("psi", "theta") if functional == "both" else (functional,)
    out = {}
    for name in names:
        check = pathwise_derivative_check(name, base, direction, step_grid=step_grid)
        eif = eif_psi if name == "psi" else eif_theta
        eif_mean = math.fsum(p * eif(obs, base) for obs, p in base.atoms)
        out[name] = {"check": check.to_dict(), "eif_mean": eif_mean}
    return out


def _cmd_decompose(args) -> dict:
    cfg = _load_config(args.config)
    _check_keys(cfg, ("distribution", "sample", "estimand", "learners"),
                ("distribution", "sample"), "decompose config")
    estimand = _str_field(cfg, "estimand", "psi", ("psi", "theta"), "decompose config")
    spec_q, spec_g = _learner_pair(cfg, "decompose config")
    dist = load_distribution(_resolve(args.config, cfg["distribution"]))
    data = ingest_csv(_resolve(args.config, cfg["sample"]))
    truth = truth_functions(dist) if "oracle-rate" in (spec_q.kind, spec_g.kind) else None
    nuis = fit_nuisance(data, spec_q, spec_g, truth=truth)
    return decompose_error(dist, nuis, data, estimand=estimand).to_dict()


def _cmd_remainder(args) -> dict:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        ("distribution", "estimand", "mode", "learners", "sample", "n",
         "n_grid", "pn_a"),
        ("distribution",),
        "remainder config",
    )
    estimand = _str_field(cfg, "estimand", "psi", ("psi", "theta"), "remainder config")
    mode = _str_field(cfg, "mode", "exact", ("exact", "sweep"), "remainder config")
    spec_q, spec_g = _learner_pair(cfg, "remainder config")
    dist = load_distribution(_resolve(args.config, cfg["distribution"]))

    if mode == "sweep":
        if "sample" in cfg or "n" in cfg or "pn_a" in cfg:
            raise ConfigError("remainder config: sweep mode takes only 'n_grid' and learners")
        grid = _int_grid(cfg, "n_grid", "remainder config")
        for side, spec in (("q", spec_q), ("g", spec_g)):
            if spec.kind != "oracle-rate":
                raise ConfigError(
                    f"remainder config: sweep mode needs oracle-rate learners, "
                    f"but {side!r} is {spec.kind!r}"
                )
        report = remainder_rate_sweep(dist, truth_functions(dist), spec_q, spec_g,
                                      grid, estimand=estimand)
        return report.to_dict()

    if "n_grid" in cfg:
        raise ConfigError("remainder config: 'n_grid' only applies to sweep mode")
    if "sample" in cfg:
        data = ingest_csv(_resolve(args.config, cfg["sample"]))
        truth = (truth_functions(dist)
                 if "oracle-rate" in (spec_q.kind, spec_g.kind) else None)
        nuis = fit_nuisance(data, spec_q, spec_g, truth=truth)
        default_pn_a = float(np.mean(data.a))
    elif "n" in cfg:
        n = _int_field(cfg, "n", None, "remainder config", minimum=1)
        if spec_q.kind != "oracle-rate" or spec_g.kind != "oracle-rate":
            raise ConfigError(
                "remainder config: without a sample, both learners must be oracle-rate"
            )
        truth_q, truth_g = truth_functions(dist)
        nuis = oracle_rate_nuisance(truth_q, truth_g, n, spec_q, spec_g)
        default_pn_a = dist.pr_a1
    else:
        raise ConfigError("remainder config: exact mode needs either 'sample' or 'n'")

    if estimand == "psi":
        if "pn_a" in cfg:
            raise ConfigError("remainder config: 'pn_a' only applies to the theta estimand")
        report = remainder_exact_psi(dist, nuis)
    else:
        pn_a = _float_field(cfg, "pn_a", default_pn_a, "remainder config")
        report = remainder_exact_theta(dist, nuis, pn_a)
    return report.to_dict()


def _parse_dgp(cfg: dict, config_path) -> DGPSpec:
    block = cfg.get("dgp", {"kind": "logistic-linear"})
    if not isinstance(block, dict):
        raise ConfigError("simulate config: 'dgp' must be an object")
    kind = _str_field(block, "kind", "logistic-linear",
                      ("logistic-linear", "discrete-saturated"), "simulate config.dgp")
    if kind == "discrete-saturated":
        _check_keys(block, ("kind", "distribution"), ("distribution",),
                    "simulate config.dgp")
        table = load_distribution(_resolve(config_path, block["distribution"]))
        return DGPSpec(kind=kind, table=table)
    _check_keys(block, ("kind", "gamma", "beta", "noise_sd", "treated_shift"),
                (), "simulate config.dgp")
    defaults = DGPSpec()
    return DGPSpec(
        kind=kind,
        gamma=_float_list(block, "gamma", defaults.gamma, "simulate config.dgp"),
        beta=_float_list(block, "beta", defaults.beta, "simulate config.dgp"),
        noise_sd=_float_field(block, "noise_sd", defaults.noise_sd, "simulate config.dgp"),
        treated_shift=_float_field(block, "treated_shift", defaults.treated_shift,
                                   "simulate config.dgp"),
    )


def _estimator_config(block: dict, fold_seed: int, where: str) -> EstimatorConfig:
    """The estimator an estimate config, or a simulate config's estimator block, names."""
    spec_q, spec_g = _learner_pair(block, where)
    return EstimatorConfig(
        estimand=_str_field(block, "estimand", "psi", ("psi", "theta"), where),
        estimator=_str_field(block, "estimator", "onestep", ("onestep", "plugin", "ipw"), where),
        spec_q=spec_q,
        spec_g=spec_g,
        folds=_int_field(block, "folds", 0, where),
        level=_float_field(block, "level", 0.95, where),
        fold_seed=fold_seed,
    )


def _parse_estimator(cfg: dict) -> EstimatorConfig:
    block = cfg.get("estimator", {})
    if not isinstance(block, dict):
        raise ConfigError("simulate config: 'estimator' must be an object")
    where = "simulate config.estimator"
    _check_keys(block, ("estimand", "estimator", "learners", "folds", "level",
                        "fold_seed"), (), where)
    return _estimator_config(block, _int_field(block, "fold_seed", 0, where), where)


def _cmd_simulate(args) -> dict:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        ("study", "dgp", "estimator", "n", "n_grid", "reps", "seed",
         "workers", "arm", "estimand", "include_replications", "replications_out"),
        ("study", "reps"),
        "simulate config",
    )
    study = _str_field(cfg, "study", None, ("coverage", "rate", "dr"), "simulate config")
    reps = _int_field(cfg, "reps", None, "simulate config", minimum=2)
    seed = args.seed if args.seed is not None else _int_field(cfg, "seed", 0, "simulate config")
    workers = (args.workers if args.workers is not None
               else _int_field(cfg, "workers", 1, "simulate config"))
    include_replications = _bool_field(cfg, "include_replications", False, "simulate config")
    dgp = _parse_dgp(cfg, args.config)

    if study == "coverage":
        if "n" not in cfg:
            raise ConfigError("simulate config: coverage study needs 'n'")
        n = _int_field(cfg, "n", None, "simulate config", minimum=2)
        summary = run_coverage(dgp, _parse_estimator(cfg), n, reps, seed, workers=workers)
    elif study == "rate":
        grid = _int_grid(cfg, "n_grid", "simulate config")
        summary = run_rate_experiment(dgp, _parse_estimator(cfg), grid, reps, seed,
                                      workers=workers)
    else:
        if "estimator" in cfg:
            raise ConfigError(
                "simulate config: the dr study builds its own estimator; "
                "use 'arm' and 'estimand' instead"
            )
        grid = _int_grid(cfg, "n_grid", "simulate config")
        arm = cfg.get("arm")
        if not isinstance(arm, str):
            raise ConfigError("simulate config: dr study needs a string 'arm'")
        estimand = _str_field(cfg, "estimand", "psi", ("psi", "theta"), "simulate config")
        summary = run_dr_consistency(dgp, arm, grid, reps, seed, workers=workers,
                                     estimand=estimand)

    doc = summary.to_dict()
    doc["seed"] = seed
    if cfg.get("replications_out"):
        _write_csv(
            _resolve(args.config, cfg["replications_out"]),
            REPLICATION_HEADER,
            [r.to_row() for r in summary.replications],
        )
    if include_replications:
        doc["replications"] = [
            dict(zip(REPLICATION_HEADER, r.to_row())) for r in summary.replications
        ]
    return doc


# ---------------------------------------------------------------------------
# parser and entry points


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eifkit",
        description="Influence-function estimation and verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "estimate": (_cmd_estimate, "Estimate from a CSV data file."),
        "verify-eif": (_cmd_verify_eif, "Check the pathwise derivative property."),
        "decompose": (_cmd_decompose, "Four-term error decomposition."),
        "remainder": (_cmd_remainder, "Exact remainder or deterministic sweep."),
        "simulate": (_cmd_simulate, "Run a seeded Monte Carlo study."),
    }
    for name, (handler, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="mirror the JSON output to this file")
        p.set_defaults(handler=handler)
        if name in ("estimate", "simulate"):
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        if name == "simulate":
            p.add_argument("--workers", type=int, default=None,
                           help="override the config worker count")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = args.handler(args)
    except ConfigError as err:
        _emit({"error": {"code": err.code, "message": str(err)}}, None)
        return 2
    except EifkitError as err:
        _emit({"error": {"code": err.code, "message": str(err)}}, None)
        return 1
    _emit(doc, args.out)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
