"""The package's export list, the private code that ``src/eifkit`` keeps,
and the shape of a finite law.

``eifkit`` exports the names its modules list in ``__all__``, plus
``errors`` and ``__version__``; each name has one owner module.  A
top-level private function or class that nothing in the package uses is
dead code and should be deleted, not kept.  A finite law is its support
table's arrays, with no Python copy of its strata beside them.  The
learner kinds, the sides each fits and the spec fields each reads are
one table, which README's "Learner specs" table restates; so are the
sides each estimator fits, which README's estimator paragraph restates.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np

import eifkit
from eifkit.distributions import SupportTable
from eifkit.estimators import _SIDES
from eifkit.learners import _KINDS, OUTCOME_KINDS, PROPENSITY_KINDS

SRC = Path(eifkit.__file__).resolve().parent
README = SRC.parent.parent / "README.md"

# each exported name, under the one module that defines and exports it
OWNERS = {
    "distributions": (
        "CheckReport", "FiniteDistribution", "Observation", "distribution_from_dict",
        "distribution_to_dict", "eif_integral", "eif_psi", "eif_theta", "g_of",
        "load_distribution", "mix", "pathwise_derivative_check", "psi_of", "q_of",
        "save_distribution", "theta_of",
    ),
    "learners": (
        "Dataset", "FittedNuisance", "LearnerSpec", "fit_nuisance", "fit_outcome",
        "fit_propensity", "oracle_rate_nuisance", "truncate_propensity",
    ),
    "estimators": (
        "EstimateReport", "EstimatorConfig", "FoldPlan", "crossfit", "empirical_distribution",
        "estimate", "ipw_psi", "onestep_psi", "onestep_theta", "plugin_psi",
        "saturated_nuisance", "variance_and_ci",
    ),
    "decomposition": (
        "DecompositionReport", "RateSweepReport", "RemainderReport", "decompose_error",
        "remainder_exact_psi", "remainder_exact_theta", "remainder_rate_sweep",
        "truth_functions",
    ),
    "montecarlo": (
        "CoverageSummary", "DR_ARMS", "DGPSpec", "DrConsistencyReport", "RateExperimentReport",
        "ReplicationResult", "default_logistic_linear", "draw_dataset", "dr_arm_specs",
        "generate", "generate_with_counterfactual", "ks_critical_value",
        "quadrature_distribution", "run_coverage", "run_dr_consistency", "run_rate_experiment",
    ),
}


def test_package_exports_the_pinned_names():
    pinned = [name for names in OWNERS.values() for name in names] + ["errors", "__version__"]
    assert len(pinned) == len(set(pinned)) == 62
    assert len(eifkit.__all__) == len(set(eifkit.__all__))
    assert set(eifkit.__all__) == set(pinned)


def test_each_exported_name_is_its_owner_modules_object():
    for module_name, names in OWNERS.items():
        module = importlib.import_module(f"eifkit.{module_name}")
        for name in names:
            assert getattr(eifkit, name) is getattr(module, name), (module_name, name)
    assert eifkit.errors is importlib.import_module("eifkit.errors")


def test_no_name_is_listed_by_two_modules():
    listed = [name for module_name in OWNERS
              for name in importlib.import_module(f"eifkit.{module_name}").__all__]
    assert sorted({name for name in listed if listed.count(name) > 1}) == []


def test_every_private_top_level_name_has_a_use():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined
    assert {name: where for name, where in defined.items() if name not in used} == {}


def test_a_support_table_is_read_only_arrays_and_one_float():
    law = eifkit.FiniteDistribution([((0.0, 0, 1.0), 0.5), ((-0.0, 1, 2.0), 0.25),
                                     ((1.0, 0, 0.0), 0.25)])
    point = eifkit.FiniteDistribution([((1.0, 0, 0.0), 1.0)])
    laws = (law, eifkit.mix(law, law, 0.5), eifkit.mix(law, point, 1.0),
            eifkit.quadrature_distribution(eifkit.default_logistic_linear(), 4),
            eifkit.empirical_distribution(eifkit.draw_dataset(law, 20, 0)))
    assert len(SupportTable._fields) == 12
    for dist in laws:
        for name, value in zip(SupportTable._fields, dist.support_table):
            if name == "pr_a1":
                assert type(value) is float
            else:
                assert type(value) is np.ndarray and not value.flags.writeable, name


def test_the_side_kind_lists_keep_their_order():
    # error messages list them
    assert OUTCOME_KINDS == ("linear-ols", "knn", "kernel-nw", "misspecified-omit", "oracle-rate")
    assert PROPENSITY_KINDS == ("logistic-irls", "knn", "kernel-nw", "misspecified-omit",
                                "misspecified-wronglink", "oracle-rate")


def _readme_learner_fields():
    """README's "Learner specs" table as {field: kinds that read it}.  A row's
    "read by" cell names, before any colon, kinds and sides in backticks; a
    side (`q` or `g`) stands for every kind that fits it."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Learner specs"):]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section.split("\n\n")[2], re.M)
    sides = {"q": OUTCOME_KINDS, "g": PROPENSITY_KINDS}
    return {field: {kind for name in re.findall(r"`([^`]+)`", cell.split(":")[0])
                    for kind in sides.get(name, (name,))} for field, cell in rows}


def test_readme_learner_table_matches_the_kind_table():
    documented = _readme_learner_fields()
    fields = [f.name for f in dataclasses.fields(eifkit.LearnerSpec)][1:]
    assert sorted(documented) == sorted(fields)
    assert documented == {field: {kind for kind, (_, reads) in _KINDS.items() if field in reads}
                          for field in fields}
    # truncation is read by exactly the kinds that fit a propensity
    assert documented["truncation"] == set(PROPENSITY_KINDS)


def _readme_estimator_sides():
    """README's "fits only the nuisances it reads (...)" list as {estimator:
    sides}; each item is an estimator's name and its side, or "both"."""
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"fits only the\s+nuisances it reads \(([^)]*)\)", text).group(1)
    names = {"one-step": "onestep", "plug-in": "plugin", "IPW": "ipw"}
    return {names[name]: "qg" if side == "both" else side
            for name, side in (item.split() for item in listed.split(","))}


def test_readme_estimator_sides_match_the_side_table():
    assert _readme_estimator_sides() == _SIDES
