"""The benchmark's tracer (bench/tracer.py) wraps names the package keeps.

The tracer patches eifkit's functions and methods by name; a wrapped name
that the package deletes or renames would break only a traced benchmark
run, so this loads the tracer read-only, installs it and uninstalls it.
"""

import importlib.util
import sys
from pathlib import Path

import eifkit.cli  # noqa: F401  (the tracer patches every eifkit module it finds)
from eifkit import distributions, estimators, montecarlo

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    owners = [module for name, module in sorted(sys.modules.items())
              if name == "eifkit" or name.startswith("eifkit.")]
    owners += [estimators.FoldPlan, montecarlo.DGPSpec, distributions.FiniteDistribution]
    before = [dict(vars(owner)) for owner in owners]
    tracer = _tracer_module().Tracer()
    try:
        tracer.install_eifkit()  # a wrapped name the package lacks raises here
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    for owner, names in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == names.keys()
        assert all(after[key] is value for key, value in names.items())
