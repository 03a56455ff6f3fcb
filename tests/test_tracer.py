"""The benchmark's tracer (bench/tracer.py) wraps names the package keeps.

The tracer patches eifkit's functions and methods by name; a wrapped name
that the package deletes or renames would break only a traced benchmark
run, so this loads the tracer read-only, installs it and uninstalls it.
A name the package still defines but no longer calls through its module
global (a table holding the function object, say) loses its span without
breaking the install, so the spans of a few calls are pinned too.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import eifkit.cli  # noqa: F401  (the tracer patches every eifkit module it finds)
from eifkit import (EstimatorConfig, LearnerSpec, decomposition, default_logistic_linear,
                    distributions, estimators, montecarlo, oracle_rate_nuisance,
                    truth_functions)

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


def _spans(tracer):
    """The recorded spans as a count of (name, parent's name) pairs."""
    spans = tracer.spans
    return Counter((s["name"], None if s["parent"] is None else spans[s["parent"]]["name"])
                   for s in spans)


def test_a_traced_study_and_remainder_open_the_layer_spans(treated_law):
    oracle = LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.3, shape=2)
    tracer = _tracer_module().Tracer()
    counts = {}
    try:
        tracer.install_eifkit()
        for estimand in ("psi", "theta"):
            tracer.spans.clear()
            # called through the module, whose names the tracer rebinds
            montecarlo.run_coverage(default_logistic_linear(),
                                    EstimatorConfig(estimand=estimand, folds=2), 100, 2, 5)
            counts[estimand] = _spans(tracer)
        tracer.spans.clear()
        nuis = oracle_rate_nuisance(*truth_functions(treated_law), 50, oracle, oracle)
        decomposition.remainder_exact_theta(treated_law, nuis, 0.55)
        counts["remainder"] = _spans(tracer)
    finally:
        tracer.uninstall()
    # the study's truth and fold-plan check, then per replication a draw, a
    # fold plan, two folds of a q and a g fit and prediction, and the
    # one-step report around its variance_and_ci span
    study = Counter({("montecarlo.truth", None): 1, ("montecarlo.generate", None): 2,
                     ("estimators.foldplan", None): 3, ("learners.fit", None): 8,
                     ("learners.predict", None): 8, ("estimators.report", None): 2,
                     ("estimators.report", "estimators.report"): 2})
    assert counts == {"psi": study, "theta": study, "remainder": Counter(
        {("learners.fit", None): 2, ("decomposition.remainder", None): 1,
         ("learners.predict", "decomposition.remainder"): 2})}
