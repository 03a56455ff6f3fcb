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

Each config value is checked once, by the library type or function that
uses it; the CLI checks the JSON, the keys, the paths and its own fields
(``study``, ``mode``, ``functional``, ``include_*``, ``--seed``,
``--workers``), and reports a value the library refuses as a config
problem, prefixed with where the config holds it.  Each simulate study and
remainder mode reads one declared set of keys, and any other key is a
config problem.

Failures print ``{"error": {"code", "message"}}`` to stdout and exit
with 2 for config problems and 1 for runtime ones.  A usage error (a
missing ``--config``, an unknown subcommand, a ``--seed`` that is no
integer) is a config problem; ``-h`` prints help and exits 0.  A path
field must be a non-empty string whenever it is present.  Output paths
(``--out``, a simulate config's ``replications_out``) are checked before
any work: a missing directory or a path that is a directory is a config
problem.  A write that still fails is a runtime one, and stdout then
carries the error document only.

CSV data files carry covariate columns ``w1..wd`` (contiguous indices,
any column order), a binary treatment column ``a``, and an outcome
column ``y``.  Row numbers in error messages count data rows from 1.
"""

from __future__ import annotations

import argparse
import contextlib
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
    _ESTIMANDS,
    _estimand,
    _reading,
    eif_integral,
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
    NonFiniteNumber,
    OutputError,
    UnexpectedColumn,
    UnparseableNumber,
)
from .estimators import EstimatorConfig, estimate
from .learners import (
    Dataset,
    LearnerSpec,
    _int_at_least,
    fit_nuisance,
    oracle_rate_nuisance,
)
from .montecarlo import (
    DGPSpec,
    ReplicationResult,
    _DGP_READS,
    run_coverage,
    run_dr_consistency,
    run_rate_experiment,
)

__all__ = ["main", "entrypoint", "ingest_csv"]

# the keys each simulate study and remainder mode reads beyond those every
# study or mode reads; any other key is a config error
SIMULATE_KEYS = {"coverage": ("n", "estimator"), "rate": ("n_grid", "estimator"),
                 "dr": ("n_grid", "arm", "estimand")}
REMAINDER_KEYS = {"exact": ("sample", "n", "pn_a"), "sweep": ("n_grid",)}
# the fields an estimate config and a simulate config's 'estimator' block both set
ESTIMATOR_FIELDS = ("estimand", "estimator", "folds", "level")


# ---------------------------------------------------------------------------
# deterministic output helpers


def _dumps(doc: dict) -> str:
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NonFiniteNumber("the result holds NaN or infinity, which JSON cannot carry") from None


def _null_nan(value):
    """NaN, a statistic undefined on the replications that survived, as None (JSON null)."""
    if isinstance(value, list):
        return [_null_nan(v) for v in value]
    return None if isinstance(value, float) and math.isnan(value) else value


def _emit(doc: dict, out_path) -> None:
    # the file first: if it cannot be written, stdout gets the error only
    text = _dumps(doc)
    if out_path is not None:
        _write_output(out_path, lambda fh: fh.write(text))
    sys.stdout.write(text)


def _check_output_path(path, where: str) -> None:
    """Reject, before any work, a path in a missing directory or naming a directory."""
    if "\0" in str(path):
        raise ConfigError(f"{where}: path {str(path)!r} holds a NUL character")
    p = Path(path)
    if not p.parent.is_dir():
        raise ConfigError(f"{where}: directory of {str(path)!r} does not exist")
    if p.is_dir():
        raise ConfigError(f"{where}: {str(path)!r} is a directory")


def _write_output(path, write) -> None:
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as err:
        raise OutputError(f"cannot write {path}: {err}") from None


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])

    _write_output(path, write)


# ---------------------------------------------------------------------------
# CSV ingestion


def ingest_csv(path) -> Dataset:
    """Load a (W, A, Y) sample from a CSV file, validating the schema."""
    with _reading(path, "data file", newline="") as fh:
        raw = [row for row in csv.reader(fh) if row]
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
    w_cols = [(w_index[j], f"w{j}") for j in range(1, d + 1)]
    # a row's label, "<path>: row <r>", is formatted only for a refusal
    for r, row in enumerate(body):
        if len(row) != width:
            error = UnexpectedColumn if len(row) > width else MissingColumn
            raise error(f"{path}: row {r + 1}: {len(row)} fields, expected {width}")
        treated = _parse_number(row[a_col], "a", path, r)
        if treated not in (0.0, 1.0):
            raise NonBinaryTreatment(
                f"{path}: row {r + 1}: treatment must be 0 or 1, got {row[a_col]!r}")
        a[r] = treated
        y[r] = _parse_number(row[y_col], "y", path, r)
        for j, (col, name) in enumerate(w_cols):
            w[r, j] = _parse_number(row[col], name, path, r)
    return Dataset._owning(w, a, y)  # every cell is checked above


def _parse_number(text: str, column: str, path, r: int) -> float:
    """The finite number in cell ``text`` of data row ``r`` (0-based) of ``path``."""
    try:
        value = float(text.strip())
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        problem = "cannot parse" if value is None else "non-finite value"
        raise UnparseableNumber(f"{path}: row {r + 1}, column {column!r}: {problem} {text!r}")
    return value


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path) -> dict:
    def refuse(token):  # json.load would read NaN, Infinity and -Infinity as floats
        raise ConfigError(f"{path}: {token} is not a finite number")

    with _reading(path, "config") as fh:
        text = fh.read()
    try:
        doc = json.loads(text, parse_constant=refuse)
    except ConfigError:
        raise
    except ValueError as err:  # bad JSON, or an int literal past Python's digit limit
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


def _resolve(config_path, cfg: dict, key: str, where: str) -> str:
    """The path ``cfg[key]`` names, relative to the config file's directory."""
    value = cfg[key]
    if not isinstance(value, str) or not value or "\0" in value:
        raise ConfigError(f"{where}: {key!r}: expected a file path string, got {value!r}")
    p = Path(value)
    return str(p if p.is_absolute() else Path(config_path).parent / p)


@contextlib.contextmanager
def _refused(where: str):
    """Report a config value that the library refuses as a config error under ``where``."""
    try:
        yield
    except (ConfigError, InvalidLearnerSpec) as err:
        raise ConfigError(f"{where}: {err}") from None


def _object(cfg: dict, key: str, where: str) -> dict:
    """The optional block ``cfg[key]``, empty when absent; it must be an object."""
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: {key!r} must be an object")
    return block


def _learner_pair(cfg: dict, where: str):
    """Parse the optional learners block: EstimatorConfig checks each side's kind
    and gives a missing side its default."""
    block = _object(cfg, "learners", where)
    _check_keys(block, ("q", "g"), (), f"{where}.learners")
    with _refused(f"{where}.learners"):
        config = EstimatorConfig(**{f"spec_{side}": LearnerSpec.from_dict(block[side])
                                    for side in "qg" if side in block})
    return config.spec_q, config.spec_g


def _str_field(cfg, key, default, choices, where):
    value = cfg.get(key, default)
    if value not in choices:
        raise ConfigError(f"{where}: {key!r} must be one of {list(choices)}, got {value!r}")
    return value


def _flag_or_field(args, cfg: dict, key: str, default: int, where: str, minimum=0) -> int:
    """The --<key> flag when given, else the config's key; both must be integers >= ``minimum``."""
    value = cfg.get(key, default)
    if getattr(args, key) is not None:
        value, where = getattr(args, key), f"--{key}"
    with _refused(where):
        return _int_at_least(value, minimum, key)


def _bool_field(cfg, key, default, where):
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: {key!r} must be true or false, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the JSON document to emit)


def _cmd_estimate(args) -> dict:
    cfg = _load_config(args.config)
    seed = _flag_or_field(args, cfg, "seed", 0, "estimate config")
    config = _estimator_config(cfg, "estimate config", ("data", "seed", "include_eif"),
                               ("data",), fold_seed=seed)
    if any(spec.kind == "oracle-rate" for spec in config.nuisance_specs.values()):
        raise ConfigError(
            "estimate config: oracle-rate learners need a known truth and "
            "cannot run from a data file"
        )
    include_eif = _bool_field(cfg, "include_eif", False, "estimate config")
    data = ingest_csv(_resolve(args.config, cfg, "data", "estimate config"))
    return estimate(data, config).to_dict(include_eif=include_eif)


def _cmd_verify_eif(args) -> dict:
    cfg = _load_config(args.config)
    _check_keys(cfg, ("distribution", "direction", "functional", "step_grid"),
                ("distribution", "direction"), "verify-eif config")
    functional = _str_field(cfg, "functional", "both", (*_ESTIMANDS, "both"),
                            "verify-eif config")
    base = load_distribution(_resolve(args.config, cfg, "distribution", "verify-eif config"))
    direction = load_distribution(_resolve(args.config, cfg, "direction", "verify-eif config"))
    names = tuple(_ESTIMANDS) if functional == "both" else (functional,)
    out = {}
    for name in names:
        with _refused("verify-eif config"):
            check = pathwise_derivative_check(name, base, direction,
                                              step_grid=cfg.get("step_grid"))
        out[name] = {"check": check.to_dict(), "eif_mean": eif_integral(name, base, base)}
    return out


def _sample_from(dist, config_path, cfg: dict, where: str) -> Dataset:
    """The sample CSV a config names; its covariates must match the law's dimension."""
    data = ingest_csv(_resolve(config_path, cfg, "sample", where))
    d = dist.support_table.w.shape[1]
    if data.d != d:
        raise ConfigError(
            f"{where}: the sample has {data.d} covariate columns, the distribution {d}"
        )
    return data


def _cmd_decompose(args) -> dict:
    cfg = _load_config(args.config)
    _check_keys(cfg, ("distribution", "sample", "estimand", "learners"),
                ("distribution", "sample"), "decompose config")
    spec_q, spec_g = _learner_pair(cfg, "decompose config")
    dist = load_distribution(_resolve(args.config, cfg, "distribution", "decompose config"))
    data = _sample_from(dist, args.config, cfg, "decompose config")
    with _refused("decompose config"):
        nuis = fit_nuisance(data, spec_q, spec_g, truth=truth_functions(dist))
        return decompose_error(dist, nuis, data, estimand=cfg.get("estimand", "psi")).to_dict()


def _cmd_remainder(args) -> dict:
    cfg = _load_config(args.config)
    mode = _str_field(cfg, "mode", "exact", tuple(REMAINDER_KEYS), "remainder config")
    _check_keys(cfg, ("distribution", "estimand", "mode", "learners", *REMAINDER_KEYS[mode]),
                ("distribution",), f"remainder config ({mode} mode)")
    spec_q, spec_g = _learner_pair(cfg, "remainder config")
    dist = load_distribution(_resolve(args.config, cfg, "distribution", "remainder config"))
    truth = truth_functions(dist)
    estimand = cfg.get("estimand", "psi")
    with _refused("remainder config"):
        row = _estimand(estimand)
        if mode == "sweep":
            return remainder_rate_sweep(dist, truth, spec_q, spec_g, cfg.get("n_grid"),
                                        estimand=estimand).to_dict()
    # exact mode: one remainder, of a sample's fits or of the oracle at n
    if not row.treated and "pn_a" in cfg:
        raise ConfigError("remainder config: 'pn_a' only applies to the theta estimand")
    if ("sample" in cfg) == ("n" in cfg):
        raise ConfigError("remainder config: exact mode needs exactly one of 'sample' and 'n'")
    data = (_sample_from(dist, args.config, cfg, "remainder config")
            if "sample" in cfg else None)
    with _refused("remainder config"):
        if data is not None:
            nuis = fit_nuisance(data, spec_q, spec_g, truth=truth)
        else:
            nuis = oracle_rate_nuisance(*truth, cfg["n"], spec_q, spec_g)
        pn_a = ()
        if row.treated:  # P_n(A): the config's, else the sample's share or the law's Pr(A=1)
            pn_a = (cfg["pn_a"] if "pn_a" in cfg else dist.pr_a1 if data is None else
                    row.share(data.a),)
        # each estimand's wrapper, read from the module when called: a tracer may rebind it
        remainder = {"psi": remainder_exact_psi, "theta": remainder_exact_theta}[estimand]
        return remainder(dist, nuis, *pn_a).to_dict()


def _parse_dgp(cfg: dict, config_path) -> DGPSpec:
    block = _object(cfg, "dgp", "simulate config")
    where = "simulate config.dgp"
    if block.get("kind") == "discrete-saturated":
        _check_keys(block, ("kind", "distribution"), ("distribution",), where)
        table = load_distribution(_resolve(config_path, block, "distribution", where))
        block = {"kind": "discrete-saturated", "table": table}
    else:
        _check_keys(block, ("kind", *_DGP_READS["logistic-linear"]), (), where)
    with _refused(where):
        return DGPSpec(**block)


def _estimator_config(block, where: str, keys=("fold_seed",), required=(),
                      **fixed) -> EstimatorConfig:
    """The estimator a block of config keys names: 'learners', ESTIMATOR_FIELDS and ``keys``.
    By default it is a simulate config's 'estimator' block; an estimate config
    passes its own keys, its ``required`` 'data' and, in ``fixed``, its fold seed."""
    _check_keys(block, ("learners", *ESTIMATOR_FIELDS, *keys), required, where)
    spec_q, spec_g = _learner_pair(block, where)
    fields = {key: block[key] for key in (*ESTIMATOR_FIELDS, "fold_seed") if key in block}
    with _refused(where):
        return EstimatorConfig(spec_q=spec_q, spec_g=spec_g, **fields, **fixed)


def _cmd_simulate(args) -> dict:
    cfg = _load_config(args.config)
    study = _str_field(cfg, "study", None, tuple(SIMULATE_KEYS), "simulate config")
    _check_keys(cfg, ("study", "dgp", "reps", "seed", "workers", "include_replications",
                      "replications_out", *SIMULATE_KEYS[study]),
                ("reps",), f"simulate config ({study} study)")
    seed = _flag_or_field(args, cfg, "seed", 0, "simulate config")
    workers = _flag_or_field(args, cfg, "workers", 1, "simulate config", minimum=1)
    include_replications = _bool_field(cfg, "include_replications", False, "simulate config")
    replications_out = None
    if "replications_out" in cfg:
        replications_out = _resolve(args.config, cfg, "replications_out", "simulate config")
        _check_output_path(replications_out, "simulate config: 'replications_out'")
    dgp = _parse_dgp(cfg, args.config)
    config = (None if study == "dr"  # dr builds its own
              else _estimator_config(_object(cfg, "estimator", "simulate config"),
                                     "simulate config.estimator"))
    with _refused("simulate config"):
        if study == "coverage":
            summary = run_coverage(dgp, config, cfg.get("n"), cfg["reps"], seed,
                                   workers=workers)
        elif study == "rate":
            summary = run_rate_experiment(dgp, config, cfg.get("n_grid"), cfg["reps"], seed,
                                          workers=workers)
        else:
            summary = run_dr_consistency(dgp, cfg.get("arm"), cfg.get("n_grid"), cfg["reps"],
                                         seed, workers=workers,
                                         estimand=cfg.get("estimand", "psi"))

    doc = {key: _null_nan(value) for key, value in summary.to_dict().items()}
    doc["seed"] = seed
    columns = ReplicationResult.COLUMNS
    if replications_out is not None:
        _write_csv(replications_out, columns, [r.to_row() for r in summary.replications])
    if include_replications:
        doc["replications"] = [
            dict(zip(columns, map(_null_nan, r.to_row()))) for r in summary.replications
        ]
    return doc


# ---------------------------------------------------------------------------
# parser and entry points


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are config problems, not exits."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                           help="override the config worker count (an integer >= 1)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.out is not None:
            _check_output_path(args.out, "--out")
        _emit(args.handler(args), args.out)
    except ConfigError as err:
        _emit({"error": {"code": err.code, "message": str(err)}}, None)
        return 2
    except EifkitError as err:
        _emit({"error": {"code": err.code, "message": str(err)}}, None)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
