"""The scripts under ``scripts/`` run from the checkout and report what they should."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from eifkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"


def _script(*argv):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


def _run_script(*argv):
    result = _script(*argv)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_verify_identities_script():
    doc = _run_script("scripts/verify_identities.py", "--nodes", "4", "--n", "500")
    for name in ("psi", "theta"):
        assert doc[f"remainder_identity_gap_{name}"] < 1e-10
        assert abs(doc[f"decomposition_closure_gap_{name}"]) < 1e-10
        # criterion 01's bound on the derivative check
        assert doc[f"derivative_gap_{name}"] < 1e-6
        assert doc[f"remainder_within_bound_{name}"] is True
    assert abs(doc["sweep_slope"] + 0.5) < 0.02


def test_output_digests_script_hashes_the_cli_output():
    doc = _run_script("scripts/output_digests.py", "decompose", "verify_eif")
    assert sorted(doc) == ["decompose", "verify_eif"]
    for name, command in (("decompose", "decompose"), ("verify_eif", "verify-eif")):
        assert re.fullmatch("[0-9a-f]{64}", doc[name])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, "--config", str(CONFIGS / f"{name}.json")]) == 0
        assert doc[name] == hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_law_file_configs_match_the_tracked_digests():
    # the configs that read law files, and estimate (five-fold kNN with k = 15
    # on demo.csv), run in-process; scripts/digests.json changes only with a
    # CHANGES.md note on the outputs that changed.  demo.csv has y = w1 on
    # every row, so no choice among tied kNN neighbours moves the estimate
    # digest: test_learners.py pins the tie rule itself
    tracked = json.loads((ROOT / "scripts" / "digests.json").read_text(encoding="utf-8"))
    for name, command in (("verify_eif", "verify-eif"), ("decompose", "decompose"),
                          ("remainder_sweep", "remainder"), ("estimate", "estimate")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, "--config", str(CONFIGS / f"{name}.json")]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == tracked[name], name


def test_output_digests_against_a_saved_document_names_each_difference(tmp_path):
    saved = {}
    for name, command in (("decompose", "decompose"), ("verify_eif", "verify-eif")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, "--config", str(CONFIGS / f"{name}.json")]) == 0
        saved[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    saved["verify_eif"] = "0" * 64
    path = tmp_path / "saved.json"
    path.write_text(json.dumps(saved))
    result = _script("scripts/output_digests.py", "decompose", "verify_eif",
                     "--against", str(path))
    assert result.returncode == 1
    difference, platform = result.stderr.splitlines()
    assert difference == f"output_digests: verify_eif differs from {path}"
    assert platform.startswith(f"output_digests: running platform: numpy {np.__version__}, ")
    assert json.loads(result.stdout)["decompose"] == saved["decompose"]


def test_code_lines_script_counts_each_module():
    doc = _run_script("scripts/code_lines.py")
    modules = sorted(path.name for path in (ROOT / "src" / "eifkit").glob("*.py"))
    assert sorted(doc) == sorted([*modules, "total"])
    for name in modules:
        text = (ROOT / "src" / "eifkit" / name).read_text(encoding="utf-8")
        counts = doc[name]
        # wc -l counts newlines; a code line holds no docstring but may hold both
        assert counts["lines"] == text.count("\n")
        assert 0 < counts["code"] <= counts["lines"]
        assert 0 <= counts["docstring"] <= counts["lines"] - counts["code"]
    assert doc["total"] == {key: sum(doc[name][key] for name in modules)
                            for key in ("lines", "code", "docstring")}


def test_code_lines_script_leaves_out_comments_blanks_and_docstrings():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    text = ('"""Module\n\ndocstring."""\n\n# a comment\nX = """not a\ndocstring"""\n\n\n'
            'def f(x):\n    """One line."""\n    return x  # a comment\n\n\n'
            'class C:\n    """Two\n    lines."""\n\n    y = 1\n')
    assert code_lines.counts(text) == {"lines": 19, "code": 6, "docstring": 6}
