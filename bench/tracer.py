"""Per-layer spans recorded from outside the program.

The tracer wraps eifkit's public functions and the module-level names the
package calls through, in every eifkit module namespace that holds them,
so a call made anywhere in the package (or by the benchmark) opens a
span.  A span records its name, start, end, parent span and the
operation it belongs to, plus a few attributes (learner side and kind,
row counts).  Spans stay in memory and are written as JSON lines when
the run ends.  ``uninstall`` puts every original back.

A layer's self time is a span's duration minus the time its child spans
cover; the per-layer metrics are sums of self times, so nothing is
counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = None

    # -- span recording ------------------------------------------------------

    def _wrap(self, fn, name, attrs=None, post=None):
        """Callable that runs ``fn`` inside a span; ``attrs(args, kwargs)`` adds fields,
        ``post(span, result, args, kwargs)`` may replace the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": tracer.op,
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                    "id": len(tracer.spans), "child_s": 0.0}
            if attrs is not None:
                span.update(attrs(args, kwargs))
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1]["child_s"] += span["end"] - span["start"]
            return post(span, result, args, kwargs) if post is not None else result

        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, attrs=None, post=None):
        """Wrap ``module.attr`` wherever an eifkit module namespace holds that object."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, attrs, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "eifkit" or mod_name.startswith("eifkit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def patch_method(self, cls, attr, name, attrs=None, post=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrap(raw.__func__, name, attrs, post)))
        else:
            self._set(cls, attr, self._wrap(raw, name, attrs, post))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- eifkit layer map ----------------------------------------------------

    def install_eifkit(self):
        from eifkit import cli, decomposition, distributions, estimators, learners, montecarlo

        tracer = self

        def rows(args, kwargs):
            return {"rows": int(args[1] if len(args) > 1 else kwargs["n"])}

        def spec_attrs(side):
            def attrs(args, kwargs):
                data, spec = args[0], args[1] if len(args) > 1 else kwargs["spec"]
                fit_rows = int((data.a == 0).sum()) if side == "q" else data.n
                return {"side": side, "kind": spec.kind, "fit_rows": fit_rows}
            return attrs

        def predictor(span, fn, args, kwargs):
            # predictions are timed as their own spans, tagged like the fit
            meta = {"side": span["side"], "kind": span["kind"], "fit_rows": span.get("fit_rows", 0)}

            def predict_attrs(p_args, p_kwargs):
                w = np.asarray(p_args[0])
                return dict(meta, rows=1 if w.ndim == 1 else int(w.shape[0]))

            return tracer._wrap(fn, "learners.predict", predict_attrs)

        self.patch_function(learners, "fit_outcome", "learners.fit", spec_attrs("q"), predictor)
        self.patch_function(learners, "fit_propensity", "learners.fit", spec_attrs("g"), predictor)

        def oracle_attrs(args, kwargs):
            clip = args[3] if len(args) > 3 else kwargs.get("clip_eps")
            return {"side": "q" if clip is None else "g", "kind": "oracle-rate", "fit_rows": 0}

        self.patch_function(learners, "_oracle_side", "learners.fit", oracle_attrs, predictor)

        self.patch_function(montecarlo, "generate_with_counterfactual", "montecarlo.generate", rows)
        self.patch_function(montecarlo, "draw_dataset", "montecarlo.generate", rows)
        self.patch_method(montecarlo.DGPSpec, "truth", "montecarlo.truth")

        self.patch_method(estimators.FoldPlan, "build", "estimators.foldplan")
        self.patch_function(estimators, "crossfit", "estimators.crossfit")
        for attr in ("onestep_psi", "onestep_theta", "_psi_report", "_theta_report",
                     "variance_and_ci", "plugin_psi", "ipw_psi"):
            self.patch_function(estimators, attr, "estimators.report")

        def atoms_of_first(args, kwargs):
            return {"atoms": len(args[0].atoms)}

        for attr in ("remainder_exact_psi", "remainder_exact_theta"):
            self.patch_function(decomposition, attr, "decomposition.remainder", atoms_of_first)
        self.patch_function(decomposition, "decompose_error", "decomposition.decompose", atoms_of_first)
        self.patch_function(decomposition, "remainder_rate_sweep", "decomposition.sweep")

        def lookups(span, pair, args, kwargs):
            return tuple(tracer._wrap(fn, "decomposition.truth_functions") for fn in pair)

        self.patch_function(decomposition, "truth_functions", "decomposition.truth_functions",
                            post=lookups)

        def init_post(span, result, args, kwargs):
            span["atoms"] = len(args[0].atoms)
            return result

        self.patch_method(distributions.FiniteDistribution, "__init__", "distributions.build",
                          post=init_post)
        self.patch_function(distributions, "mix", "distributions.build")
        self.patch_function(distributions, "load_distribution", "distributions.build")
        self.patch_function(estimators, "empirical_distribution", "distributions.build")
        self.patch_function(montecarlo, "quadrature_distribution", "distributions.build")
        self.patch_function(distributions, "pathwise_derivative_check", "distributions.pathwise")

        def ingest_post(span, data, args, kwargs):
            span["rows"] = data.n
            return data

        self.patch_function(cli, "ingest_csv", "cli.ingest", post=ingest_post)
        for attr in ("_cmd_estimate", "_cmd_verify_eif", "_cmd_decompose", "_cmd_remainder",
                     "_cmd_simulate"):
            self.patch_function(cli, attr, "cli.handler")
        self.patch_function(cli, "_emit", "cli.emit")

    # -- summaries -------------------------------------------------------------

    def self_seconds(self, span):
        return span["end"] - span["start"] - span["child_s"]

    def totals(self):
        """Per-layer sums: self seconds and counts, keyed by span name and tags."""
        out = {}
        for s in self.spans:
            if "end" not in s:
                continue
            key = s["name"]
            if key in ("learners.fit", "learners.predict"):
                key = f"{key}.{s['side']}.{s['kind']}"
            entry = out.setdefault(key, {"self_s": 0.0, "calls": 0, "rows": 0, "atoms": 0,
                                         "pairs": 0})
            entry["self_s"] += self.self_seconds(s)
            entry["calls"] += 1
            entry["rows"] += s.get("rows", 0)
            entry["atoms"] += s.get("atoms", 0)
            if s["name"] == "learners.predict" and s["kind"] in ("knn", "kernel-nw"):
                entry["pairs"] += s["rows"] * s["fit_rows"]
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                if "end" in s:
                    fh.write(json.dumps({k: v for k, v in s.items() if k != "child_s"},
                                        sort_keys=True) + "\n")
