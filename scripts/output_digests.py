"""SHA-256 digests of the CLI's outputs on every shipped config.

Runs ``python -m eifkit.cli <cmd> --config scripts/configs/<name>.json``
for each config in ``scripts/configs`` (the subcommand follows from the
config's keys) and prints one JSON document mapping each config name to
the SHA-256 of its stdout, plus the digest of the replication CSV the
coverage config writes.  Two checkouts with equal documents produce
byte-identical outputs.

    python3 scripts/output_digests.py                    # every config, about a minute
    python3 scripts/output_digests.py decompose verify_eif
    python3 scripts/output_digests.py --against before.json

``--against FILE`` compares the document with one saved earlier: it
names each entry whose digest differs (or that only one side has) on
stderr and exits 1 on any difference.  With config names given, only
the entries those configs produce are compared.  On a difference it
also prints the running platform on stderr, as one line: the numpy
version, the SIMD targets numpy found on this machine and the BLAS it
was built with, which the last bits of the floating-point outputs
depend on (README.md names the platform of ``scripts/digests.json``).

``scripts/digests.json`` is the tracked baseline, the document this
script prints for the current outputs; the test suite compares the
configs that read law files with it.  A change to that file goes with a
CHANGES.md line saying which outputs changed and why:

    python3 scripts/output_digests.py --against scripts/digests.json

The configs and their data run from a temporary copy, so the checkout
(including ``scripts/configs/coverage_replications.csv``) is left as it
is, and the package is imported from this checkout's ``src/``: nothing
needs to be installed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# the first key a config holds decides its subcommand
COMMAND_BY_KEY = (("study", "simulate"), ("direction", "verify-eif"), ("mode", "remainder"),
                  ("sample", "decompose"), ("data", "estimate"))


def command_for(config: dict) -> str:
    for key, command in COMMAND_BY_KEY:
        if key in config:
            return command
    raise SystemExit(f"output_digests: no subcommand takes a config with keys {sorted(config)}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def platform() -> str:
    """numpy's version, the SIMD targets it found and the BLAS it was built with."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    found = config.get("SIMD Extensions", {}).get("found", "unknown")
    return (f"numpy {np.__version__}, SIMD found {found}, "
            f"BLAS {blas.get('name', 'unknown')} {blas.get('version', 'unknown')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="config names (default: every config)")
    parser.add_argument("--against", metavar="FILE", type=Path,
                        help="saved digest document to compare with; exit 1 on any difference")
    args = parser.parse_args(argv)
    saved = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None
    shipped = sorted(p.stem for p in (SCRIPTS / "configs").glob("*.json"))
    unknown = sorted(set(args.names) - set(shipped))
    if unknown:
        parser.error(f"no such configs: {unknown}; shipped: {shipped}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("configs", "data"):
            shutil.copytree(SCRIPTS / sub, Path(tmp) / sub)
        configs = Path(tmp) / "configs"
        for name in args.names or shipped:
            path = configs / f"{name}.json"
            config = json.loads(path.read_text(encoding="utf-8"))
            command = [sys.executable, "-m", "eifkit.cli", command_for(config), "--config", str(path)]
            proc = subprocess.run(command, capture_output=True, env=env, cwd=tmp)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                raise SystemExit(f"output_digests: {name} exited {proc.returncode}")
            digests[name] = sha256(proc.stdout)
            if "replications_out" in config:
                csv_path = configs / config["replications_out"]
                digests[config["replications_out"]] = sha256(csv_path.read_bytes())
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    if saved is None:
        return 0
    if args.names:
        saved = {name: saved.get(name) for name in digests}
    differ = sorted(name for name in set(digests) | set(saved)
                    if digests.get(name) != saved.get(name))
    for name in differ:
        sys.stderr.write(f"output_digests: {name} differs from {args.against}\n")
    if differ:
        sys.stderr.write(f"output_digests: running platform: {platform()}\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
