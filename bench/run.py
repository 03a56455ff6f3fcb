"""eifkit benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke          # every workload, minimal size, both modes

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with nothing wrapped; with
``--trace 1`` they are the per-layer ones, taken from spans recorded
around eifkit's functions over a fixed number of rounds, plus the
tracing overhead against the same rounds run untraced.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: the machine's cores are shared, and the workloads are
# measured single-process with workers = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 4  # set-ups per run; setup_s is the median

Q_KINDS = ("linear-ols", "knn", "kernel-nw", "misspecified-omit", "oracle-rate")
G_KINDS = ("logistic-irls", "knn", "kernel-nw", "misspecified-omit", "misspecified-wronglink",
           "oracle-rate")

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"), ("reps_per_s", "1/s"))


def per_layer_names():
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    names = [("montecarlo.generate_ms", "ms"), ("montecarlo.generate_rows", "count"),
             ("montecarlo.truth_ms", "ms"),
             ("estimators.foldplan_ms", "ms"), ("estimators.crossfit_self_ms", "ms"),
             ("estimators.report_ms", "ms")]
    for side, kinds in (("q", Q_KINDS), ("g", G_KINDS)):
        for kind in kinds:
            names += [(f"learners.fit_ms.{side}.{kind}", "ms"), (f"learners.fits.{side}.{kind}", "count"),
                      (f"learners.predict_ms.{side}.{kind}", "ms"),
                      (f"learners.predict_rows.{side}.{kind}", "count")]
    names += [("learners.kernel_pairs", "count"), ("learners.kernel_pairs_per_s", "1/s"),
              ("decomposition.remainder_ms", "ms"), ("decomposition.decompose_ms", "ms"),
              ("decomposition.sweep_ms", "ms"), ("decomposition.truth_functions_ms", "ms"),
              ("decomposition.atoms_per_s", "1/s"),
              ("distributions.build_ms", "ms"), ("distributions.pathwise_ms", "ms"),
              ("distributions.atoms_built", "count"),
              ("cli.import_ms", "ms"), ("cli.ingest_ms", "ms"), ("cli.ingest_rows_per_s", "1/s"),
              ("cli.handler_ms", "ms"), ("cli.emit_ms", "ms"),
              ("trace.overhead_pct", "%")]
    return names


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes; without --workload, run every workload in both modes")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload is None and not args.smoke:
        parser.error("--workload is required (or --smoke)")
    return args


def import_eifkit():
    """Import eifkit from this checkout's src/, never from anywhere else."""
    if not (SRC / "eifkit" / "__init__.py").is_file():
        sys.exit(f"bench: no eifkit sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import eifkit
    import eifkit.cli  # noqa: F401  (the cli-configs workload calls it in process)

    if Path(eifkit.__file__).resolve().parent != (SRC / "eifkit").resolve():
        sys.exit(f"bench: imported eifkit from {eifkit.__file__}, not from {SRC}")
    return eifkit


def run_timed(wl, clock, seconds):
    """Whole rounds until half a round of average length more would pass ``seconds``."""
    start = time.perf_counter()
    rounds = 0
    clock.probe()
    while True:
        wl.run_round(rounds, clock)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            clock.probe()
            return rounds


def cold_import():
    """``import eifkit, eifkit.cli`` in a fresh interpreter; the wall seconds of the import inside it."""
    code = ("import time; t = time.perf_counter(); import eifkit, eifkit.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120, check=True)
    return float(proc.stdout.strip())


def measure_setup(wl, repeats):
    """Set up ``repeats`` times: a cold import in a fresh interpreter, then one build.

    Each import and each build is timed in CPU seconds (the child's whole
    CPU time, start-up included) and rescaled by the import probe taken
    before and after it.  Returns the Clock and the import walls.
    """
    from workloads import IMPORT_PROBE_REFERENCE_S, Clock, probe_import_cpu

    clock = Clock(probe=probe_import_cpu, reference=IMPORT_PROBE_REFERENCE_S)
    walls = []
    for _ in range(repeats):
        clock.probe()
        with clock.time("import"):
            walls.append(cold_import())
        with clock.time("build"):
            wl.build()
    clock.probe()
    return clock, walls


def layer_metrics(tracer, overhead_pct, import_ms):
    totals = tracer.totals()

    def ms(*keys):
        return sum(totals.get(k, {}).get("self_s", 0.0) for k in keys) * 1000.0

    def field(key, name):
        return totals.get(key, {}).get(name, 0)

    out = {
        "montecarlo.generate_ms": ms("montecarlo.generate"),
        "montecarlo.generate_rows": field("montecarlo.generate", "rows"),
        "montecarlo.truth_ms": ms("montecarlo.truth"),
        "estimators.foldplan_ms": ms("estimators.foldplan"),
        "estimators.crossfit_self_ms": ms("estimators.crossfit"),
        "estimators.report_ms": ms("estimators.report"),
    }
    pairs = 0
    smoother_s = 0.0
    for side, kinds in (("q", Q_KINDS), ("g", G_KINDS)):
        for kind in kinds:
            fit, pred = f"learners.fit.{side}.{kind}", f"learners.predict.{side}.{kind}"
            out[f"learners.fit_ms.{side}.{kind}"] = ms(fit)
            out[f"learners.fits.{side}.{kind}"] = field(fit, "calls")
            out[f"learners.predict_ms.{side}.{kind}"] = ms(pred)
            out[f"learners.predict_rows.{side}.{kind}"] = field(pred, "rows")
            pairs += field(pred, "pairs")
            if kind in ("knn", "kernel-nw"):
                smoother_s += ms(pred) / 1000.0
    out["learners.kernel_pairs"] = pairs
    out["learners.kernel_pairs_per_s"] = pairs / smoother_s if smoother_s > 0 else 0.0
    exact_s = ms("decomposition.remainder", "decomposition.decompose") / 1000.0
    atoms = field("decomposition.remainder", "atoms") + field("decomposition.decompose", "atoms")
    ingest_s = ms("cli.ingest") / 1000.0
    out.update({
        "decomposition.remainder_ms": ms("decomposition.remainder"),
        "decomposition.decompose_ms": ms("decomposition.decompose"),
        "decomposition.sweep_ms": ms("decomposition.sweep"),
        "decomposition.truth_functions_ms": ms("decomposition.truth_functions"),
        "decomposition.atoms_per_s": atoms / exact_s if exact_s > 0 else 0.0,
        "distributions.build_ms": ms("distributions.build"),
        "distributions.pathwise_ms": ms("distributions.pathwise"),
        "distributions.atoms_built": field("distributions.build", "atoms"),
        "cli.import_ms": import_ms,
        "cli.ingest_ms": ingest_s * 1000.0,
        "cli.ingest_rows_per_s": field("cli.ingest", "rows") / ingest_s if ingest_s > 0 else 0.0,
        "cli.handler_ms": ms("cli.handler"),
        "cli.emit_ms": ms("cli.emit"),
        "trace.overhead_pct": overhead_pct,
    })
    return out


def run_workload(args):
    ek = import_eifkit()
    from tracer import Tracer
    from workloads import WORKLOADS, Clock

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](ek, args.seed, args.smoke, ROOT, OUT)
    try:
        setup, import_walls = measure_setup(wl, 1 if args.smoke else SETUP_REPEATS)
        imports, builds = setup.scaled_each("import"), setup.scaled_each("build")
        setup_s = statistics.median(imports) + statistics.median(builds)

        if args.trace:
            if hasattr(wl, "in_process_mode"):
                wl.in_process_mode = True  # spans need the calls in this process
            rounds = 1 if args.smoke else wl.trace_rounds
            # each round untraced, then traced, so host drift falls on both alike;
            # every call runs in this process here, so the in-process probe fits
            plain, traced = Clock(calibrate=True), Clock(calibrate=True)
            tracer = Tracer()
            for r in range(rounds):
                plain.probe()
                wl.run_round(r, plain)
                plain.probe()
                tracer.install_eifkit()
                try:
                    tracer.op = f"round{r}"
                    traced.probe()
                    wl.run_round(r, traced)
                    traced.probe()
                finally:
                    tracer.uninstall()
            overhead = (traced.scaled() / plain.scaled() - 1.0) * 100.0
            metrics = layer_metrics(tracer, overhead, statistics.median(import_walls) * 1000.0)
            tracer.write_jsonl(OUT / f"{wl.name}-seed{args.seed}.spans.jsonl")
            units = dict(per_layer_names())
            summary = f"rounds={rounds} (untraced and traced) overhead={overhead:.1f}%"
        else:
            clock = Clock(calibrate=True, probe=wl.probe, reference=wl.probe_reference)
            rounds = run_timed(wl, clock, args.seconds)
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mb": wl.peak_rss_mb(),
                "ops_per_s": wl.attempted / clock.scaled(),
                "reps_per_s": wl.reps / clock.scaled(wl.rep_category),
            }
            units = dict(END_TO_END)
            categories = sorted({op[0] for op in clock.ops})
            summary = (f"rounds={rounds} " + " ".join(
                f"{c}: cpu={clock.seconds(c):.2f}s wall={clock.seconds(c, wall=True):.2f}s"
                f" scaled={clock.scaled(c):.2f}s" for c in categories)
                + f" probes={len(clock.probes)} median={statistics.median(clock.probes) * 1000:.2f}ms"
                + f" unscaled ops_per_s={wl.attempted / clock.seconds():.4f}"
                + f" reps_per_s={wl.reps / clock.seconds(wl.rep_category):.4f}")
        wl.check()
    finally:
        wl.close()

    print(f"# {wl.name} seed={args.seed} {summary}")
    print("# setup scaled cpu: imports=" + ",".join(f"{i:.3f}" for i in imports) + " builds="
          + ",".join(f"{b:.3f}" for b in builds) + " unscaled imports="
          + ",".join(f"{i:.3f}" for i in setup.cpu_each("import")))
    print(f"# checks={wl.checked} violations={len(wl.errors)} failed_ops={wl.failed}")
    for note in sorted(set(wl.notes))[:5]:
        print(f"# failed op: {note}")
    for err in wl.errors[:20]:
        print(f"# VIOLATION: {err}")
    result = {
        "correct": not wl.errors,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))


def smoke(args):
    """Every workload at minimal size in both modes; checks the output contract."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]] if args.workload is None else [args.workload]
    ok = True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                   str(args.seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
            t = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            problems = []
            try:
                doc = json.loads(lines[-1])
            except (IndexError, ValueError):
                doc = None
                problems.append(f"exit {proc.returncode}, no result line: {proc.stderr[-400:]}")
            if doc is not None:
                if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"keys {sorted(doc)}")
                if doc.get("correct") is not True:
                    problems.append("correct is not true: " + " | ".join(l for l in lines if "VIOLATION" in l))
                got = {k: v["unit"] for k, v in doc.get("metrics", {}).items()}
                if got != wanted[trace]:
                    problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted[trace]))}")
                if trace == 0 and any(v["value"] <= 0 for v in doc["metrics"].values()):
                    problems.append("an end-to-end metric is not positive")
            ok &= not problems and proc.returncode == 0
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{name} trace={trace} {time.perf_counter() - t:.1f}s {status}")
            if doc is not None:
                print(f"  attempted={doc['attempted']} failed={doc['failed']}")
    return 0 if ok else 1


def main():
    args = parse_args()
    if args.smoke and args.workload is None:
        sys.exit(smoke(args))
    run_workload(args)


if __name__ == "__main__":
    main()
