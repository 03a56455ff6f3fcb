"""The four benchmark workloads.

Each workload builds its inputs from the run's seed (``build``), runs
whole rounds of a fixed list of operations (``run_round``), and checks
the outputs afterwards (``check``) against ``reference`` or against
properties the method must have.  Only the operations are timed; the
checks run after the timed loop.  Rounds differ only in their seeds, so
the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import numpy as np

import reference as ref

DENSE_STEP_GRID = tuple(1e-3 * 0.5**j for j in range(6))
WARMUP = 1 << 20  # seed tag of the warm-up calls, apart from every round number


def cpu_seconds():
    """CPU seconds (user + system) of this process and of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


PROBE_INTERVAL_S = 1.0     # wall seconds between speed probes in a timed loop
PROBE_REFERENCE_S = 0.020  # probe CPU seconds that count as speed 1
_PROBE_POINTS = np.random.default_rng(0).standard_normal((300, 2))
_PROBE_DESIGN = np.random.default_rng(1).standard_normal((10000, 3))


def probe_cpu():
    """CPU seconds of a fixed mix of interpreter, array and BLAS work (about 20 ms)."""
    start = time.process_time()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    for _ in range(3):
        np.exp(-0.5 * ((_PROBE_POINTS[:, None, :] - _PROBE_POINTS[None, :, :]) ** 2).sum(axis=2))
    for _ in range(5):
        np.linalg.solve(_PROBE_DESIGN.T @ _PROBE_DESIGN, _PROBE_DESIGN.T @ _PROBE_DESIGN[:, 0])
    return time.process_time() - start


ATOMS_PROBE_REFERENCE_S = 0.040  # probe_atoms_cpu seconds that count as speed 1


def probe_atoms_cpu():
    """``probe_cpu`` plus interpreter work like the finite-table atom loops (about 40 ms).

    Float-tuple dict keys, ``math.fsum`` and three-element arrays: this
    work slows down more than ``probe_cpu`` when the host does.
    """
    start = time.process_time()
    table = {}
    for i in range(20000):
        key = (i * 0.25, float(i % 17), i % 2)
        table[key] = table.get(key, 0.0) + math.fsum((key[0], key[1], 0.5))
    total = 0.0
    for key, value in table.items():
        total += value * key[0] if key[2] else -value
    for j in range(750):
        row = np.asarray([float(j), 1.0, 2.0])
        total += float(row @ row)
    return time.process_time() - start + probe_cpu()


# a fresh interpreter importing modules eifkit does not own: the probe for
# timing cold imports, which the in-process probe does not track (README.md)
IMPORT_PROBE = ("import argparse, asyncio, decimal, email.parser, http.client, inspect, json, logging, "
                "typing, unittest, xml.dom.minidom, numpy")
IMPORT_PROBE_REFERENCE_S = 0.30  # import probe CPU seconds that count as speed 1


def probe_import_cpu():
    """CPU seconds of a fresh interpreter running IMPORT_PROBE (about 0.3 s)."""
    start = cpu_seconds()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], timeout=120, check=True)
    return cpu_seconds() - start


class Clock:
    """Time of the timed operations, per category.

    Each operation is timed twice: CPU seconds (user + system) of this
    process and its children, and wall seconds.  The program runs
    single-threaded here (workers = 1, one BLAS thread), so the two agree
    on an idle machine; on a shared one the CPU time leaves out the time
    spent waiting for a core.

    The host's speed also drifts by tens of percent over minutes, which no
    amount of repetition inside a 20 s run removes.  With ``calibrate``,
    a fixed probe (``probe_cpu``, or ``probe_import_cpu`` for work that is
    mostly cold imports) runs between operations about once per second,
    and ``scaled`` rescales each operation's CPU time by ``reference``
    over the mean of the probes taken just before and after it: CPU
    seconds at the probe's reference speed.
    """

    def __init__(self, calibrate=False, probe=probe_cpu, reference=PROBE_REFERENCE_S):
        self.calibrate = calibrate
        self.probe_fn, self.reference = probe, reference
        self.ops = []      # (category, cpu seconds, wall seconds, index of the probe before)
        self.probes = []
        self._last_probe = -math.inf
        if calibrate:
            probe()  # the first probe in a process runs cold; it is not used

    def probe(self):
        self.probes.append(self.probe_fn())
        self._last_probe = time.perf_counter()

    @contextlib.contextmanager
    def time(self, category):
        cpu, wall = cpu_seconds(), time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.ops.append((category, cpu_seconds() - cpu, end - wall, len(self.probes) - 1))
            if self.calibrate and end - self._last_probe >= PROBE_INTERVAL_S:
                self.probe()

    def seconds(self, *categories, wall=False):
        """Total timed seconds, over all categories when none is named."""
        return sum(w if wall else c for cat, c, w, _ in self.ops if not categories or cat in categories)

    def scaled(self, *categories):
        """CPU seconds at the probe's reference speed (needs a probe before and after)."""
        return sum(self.scaled_each(*categories))

    def scaled_each(self, *categories):
        """Each operation's CPU seconds at the probe's reference speed."""
        return [cpu * self.reference / ((self.probes[before] + self.probes[before + 1]) / 2)
                for cat, cpu, _, before in self.ops if not categories or cat in categories]

    def cpu_each(self, *categories):
        return [cpu for cat, cpu, _, _ in self.ops if not categories or cat in categories]


class Workload:
    """Common bookkeeping: operation counts, failures and check results."""

    name = ""
    ident = 0
    trace_rounds = 1
    rep_category = "study"  # the timed category whose replications reps_per_s counts
    probe = staticmethod(probe_cpu)  # the speed probe of the timed loop
    probe_reference = PROBE_REFERENCE_S

    def __init__(self, ek, seed, smoke, root, workdir):
        self.ek = ek
        self.seed = seed
        self.smoke = smoke
        self.root = root
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reps = 0
        self.notes = []      # why counted operations failed
        self.errors = []     # correctness violations
        self.checked = 0
        self.outputs = []

    def stream(self, *tag) -> int:
        """A 63-bit seed derived from the run seed, the workload and ``tag``."""
        state = np.random.SeedSequence([self.seed, self.ident, *tag]).generate_state(2)
        return int(state[0]) << 31 ^ int(state[1])

    def op(self, clock, category, fn, *args, weight=1, reps=0, **kwargs):
        """Run one timed operation; an exception counts ``weight`` failed operations."""
        self.attempted += weight
        try:
            with clock.time(category):
                out = fn(*args, **kwargs)
        except Exception as err:  # counted and reported, the run goes on
            self.failed += weight
            self.notes.append(f"{category}: {type(err).__name__}: {err}")
            return None
        self.reps += reps
        return out

    def expect(self, ok, message):
        self.checked += 1
        if not ok:
            self.errors.append(message)

    def close(self):
        pass

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_replication(wl, label, got, want, rtol):
    point, variance, lo, hi = want
    wl.expect(ref.rel_gap(got.point, point) <= rtol,
              f"{label}: point {got.point!r} vs reference {point!r}")
    if math.isfinite(got.variance) or math.isfinite(variance):
        wl.expect(ref.rel_gap(got.variance, variance) <= rtol,
                  f"{label}: variance {got.variance!r} vs reference {variance!r}")
        wl.expect(ref.rel_gap(got.ci_low, lo) <= rtol and ref.rel_gap(got.ci_high, hi) <= rtol,
                  f"{label}: interval ({got.ci_low!r}, {got.ci_high!r}) vs ({lo!r}, {hi!r})")


# ---------------------------------------------------------------------------


class SmootherStudies(Workload):
    """Kernel-NW and kNN outcome regressions: cross-fit studies and in-sample fits."""

    name = "smoother-studies"
    ident = 1
    trace_rounds = 3

    def build(self):
        ek = self.ek
        self.dgp = ek.default_logistic_linear()
        self.irls = ek.LearnerSpec("logistic-irls")
        cross_n, inner_n = (300, 400) if self.smoke else (2000, 5000)
        # label, estimand, q kind, folds, n, replications per round; the
        # cross-fit arms run as coverage studies (criterion 09's shape), the
        # in-sample arms as one replication each, fit on all n rows
        self.arms = [
            ("nw-psi", "psi", "kernel-nw", 5, cross_n, 2),
            ("nw-theta", "theta", "kernel-nw", 5, cross_n, 2),
            ("knn-psi", "psi", "knn", 5, cross_n, 2),
            ("nw-insample", "psi", "kernel-nw", 0, inner_n, 1),
            ("knn-insample", "psi", "knn", 0, inner_n, 1),
        ]
        self.configs = {
            label: ek.EstimatorConfig(estimand=estimand, spec_q=ek.LearnerSpec(kind),
                                      spec_g=self.irls, folds=folds)
            for label, estimand, kind, folds, _, _ in self.arms
        }
        self.truth = {"psi": self.dgp.psi(), "theta": self.dgp.theta()}
        for label in ("nw-theta", "knn-psi"):  # warm-up through both smoother paths
            ek.run_coverage(self.dgp, self.configs[label], 200, 2, self.stream(WARMUP))
        self._in_sample(self.configs["nw-insample"], 200, self.stream(WARMUP, 1))

    def _in_sample(self, config, n, seed):
        """One folds = 0 replication: the study's draw for replication 0, fit on all rows."""
        ek = self.ek
        data = ek.generate(self.dgp, n, np.random.SeedSequence([seed, 0]))
        nuis = ek.fit_nuisance(data, config.spec_q, config.spec_g)
        return [(0, ek.onestep_psi(data, nuis, level=config.level))]

    def run_round(self, r, clock):
        for i, (label, _, _, folds, n, reps) in enumerate(self.arms):
            seed = self.stream(r, i)
            config = self.configs[label]
            if folds:
                out = self.op(clock, "study", self.ek.run_coverage, self.dgp, config, n, reps,
                              seed, weight=reps, reps=reps)
                reps_out = None if out is None else [(rep.rep, rep) for rep in out.replications]
                if out is not None:
                    self.expect(out.failures == 0 and out.truth == self.truth[config.estimand],
                                f"{label}: {out.failures} failed replications, truth {out.truth!r}")
            else:
                reps_out = self.op(clock, "study", self._in_sample, config, n, seed, reps=1)
            if reps_out is not None:
                self.outputs.append((r, label, seed, reps_out))

    def check(self):
        dgp = self.dgp
        self.expect(dgp.psi() == dgp.beta[0], f"psi truth {dgp.psi()!r} != beta0 {dgp.beta[0]!r}")
        theta_ref = ref.theta_quadrature(dgp.gamma, dgp.beta)
        self.expect(abs(dgp.theta() - theta_ref) < 1e-10,
                    f"theta truth {dgp.theta()!r} vs quadrature {theta_ref!r}")
        arms = {a[0]: a for a in self.arms}
        sampled = set()
        for r, label, seed, reps in self.outputs:
            _, estimand, kind, folds, n, _ = arms[label]
            truth = self.truth[estimand]
            for rep_id, rep in reps:
                self.expect(rep.ci_low <= rep.point <= rep.ci_high,
                            f"{label} rep {rep_id}: point outside its interval")
                self.expect(abs(rep.point - truth) <= 6.0 * math.sqrt(rep.variance),
                            f"{label} rep {rep_id}: {rep.point!r} more than 6 SE from {truth!r}")
            if label in sampled:
                continue
            sampled.add(label)  # recompute one replication of each arm
            rep_id, rep = reps[self.stream(r, 100 + len(sampled)) % len(reps)]
            w, a, y = ref.logistic_linear_draw(dgp.gamma, dgp.beta, dgp.noise_sd,
                                               dgp.treated_shift, n,
                                               np.random.SeedSequence([seed, rep_id]))
            qv, gv = ref.crossfit_predictions(kind, "logistic-irls", w, a, y, folds, 0)
            _check_replication(self, f"{label} rep {rep_id}", rep, ref.aipw(estimand, a, y, qv, gv), 1e-9)


# ---------------------------------------------------------------------------


class ParametricGrid(Workload):
    """Oracle-rate grids, the four DR arms and OLS/IRLS cross-fitting at n = 20 000."""

    name = "parametric-grid"
    ident = 2
    trace_rounds = 10

    def build(self):
        ek = self.ek
        self.dgp = ek.default_logistic_linear()
        oracle = ek.LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.5, shape=2)
        self.oracle = oracle
        if self.smoke:
            self.rate_grid, self.dr_grid, self.cross_n = [100, 400], [200, 800], 800
        else:
            self.rate_grid, self.dr_grid, self.cross_n = [500, 2000, 8000, 32000], [2000, 20000], 20000
        self.per_cell = 2  # replications per grid point and study
        self.rate_configs = {
            est: ek.EstimatorConfig(estimator=est, spec_q=oracle, spec_g=oracle)
            for est in ("onestep", "plugin")
        }
        self.cross_config = ek.EstimatorConfig(spec_q=ek.LearnerSpec("linear-ols"),
                                               spec_g=ek.LearnerSpec("logistic-irls"), folds=5)
        self.truth = self.dgp.psi()
        ek.run_dr_consistency(self.dgp, "both-wrong", [100, 200], 2, self.stream(WARMUP))
        ek.run_coverage(self.dgp, self.cross_config, 200, 2, self.stream(WARMUP, 1))

    def run_round(self, r, clock):
        ek, dgp, reps = self.ek, self.dgp, self.per_cell
        for i, (est, config) in enumerate(self.rate_configs.items()):
            seed = self.stream(r, 0, i)
            out = self.op(clock, "study", ek.run_rate_experiment, dgp, config, self.rate_grid,
                          reps, seed, weight=reps * len(self.rate_grid),
                          reps=reps * len(self.rate_grid))
            if out is not None:
                self.outputs.append((r, "rate-" + est, seed, out))
        for i, arm in enumerate(ek.DR_ARMS):
            seed = self.stream(r, 1, i)
            out = self.op(clock, "study", ek.run_dr_consistency, dgp, arm, self.dr_grid, reps,
                          seed, weight=reps * len(self.dr_grid), reps=reps * len(self.dr_grid))
            if out is not None:
                self.outputs.append((r, "dr-" + arm, seed, out))
        seed = self.stream(r, 2)
        out = self.op(clock, "study", ek.run_coverage, dgp, self.cross_config, self.cross_n,
                      reps, seed, weight=reps, reps=reps)
        if out is not None:
            self.outputs.append((r, "crossfit", seed, out))

    def _draw(self, seed, rep, n):
        dgp = self.dgp
        return ref.logistic_linear_draw(dgp.gamma, dgp.beta, dgp.noise_sd, dgp.treated_shift, n,
                                        np.random.SeedSequence([seed, rep]))

    def check(self):
        dgp = self.dgp
        arm_kinds = {"none": ("linear-ols", "logistic-irls"),
                     "q-wrong": ("misspecified-omit", "logistic-irls"),
                     "g-wrong": ("linear-ols", "misspecified-omit"),
                     "both-wrong": ("misspecified-omit", "misspecified-omit")}
        spec = self.oracle
        for r, label, seed, out in self.outputs:
            self.expect(out.failures == 0, f"{label}: {out.failures} failed replications")
            self.expect(out.truth == self.truth, f"{label}: truth {out.truth!r}")
            if r != 0:
                continue
            if label.startswith("rate-"):
                # every replication of the first round: closed-form q, g plus c n^-a
                for rep in out.replications:
                    w, a, y = self._draw(seed, rep.rep, rep.n)
                    q = dgp.beta[0] + w @ np.asarray(dgp.beta[1:])
                    g = 1.0 / (1.0 + np.exp(-(dgp.gamma[0] + w @ np.asarray(dgp.gamma[1:]))))
                    qv, gv = ref.oracle_values(q, g, rep.n, spec.amplitude, spec.rate_exponent,
                                               spec.amplitude, spec.rate_exponent)
                    want = (ref.aipw("psi", a, y, qv, gv)[0] if label == "rate-onestep"
                            else ref.plugin("psi", a, qv))
                    self.expect(abs(rep.point - want) <= 1e-12 * max(1.0, abs(want)),
                                f"{label} rep {rep.rep}: {rep.point!r} vs oracle reference {want!r}")
            elif label.startswith("dr-"):
                kind_q, kind_g = arm_kinds[label[3:]]
                for rep in out.replications[:: self.per_cell]:  # first replication at each n
                    w, a, y = self._draw(seed, rep.rep, rep.n)
                    qv, gv = ref.crossfit_predictions(kind_q, kind_g, w, a, y, 0, 0)
                    _check_replication(self, f"{label} rep {rep.rep}", rep,
                                       ref.aipw("psi", a, y, qv, gv), 1e-7)
            else:
                rep = out.replications[0]
                w, a, y = self._draw(seed, rep.rep, rep.n)
                qv, gv = ref.crossfit_predictions("linear-ols", "logistic-irls", w, a, y, 5, 0)
                _check_replication(self, f"{label} rep {rep.rep}", rep,
                                   ref.aipw("psi", a, y, qv, gv), 1e-7)


# ---------------------------------------------------------------------------


def _lookup(table):
    """Exact-key predictor over a covariate table (the benchmark's own nuisance)."""
    def predict(w):
        arr = np.atleast_2d(np.asarray(w, dtype=float))
        out = np.array([table[tuple(float(x) for x in row)] for row in arr])
        return float(out[0]) if np.ndim(w) == 1 else out
    return predict


class FiniteExact(Workload):
    """Exact identities on Gauss-Legendre tables and random laws, plus a table-DGP study."""

    name = "finite-exact"
    ident = 3
    trace_rounds = 3
    # the atom loops follow the host's speed more closely than probe_cpu does:
    # over five minutes of rounds they slowed 1.68x, probe_cpu 1.49x and the
    # tuple and dict work of probe_atoms_cpu 2.0x
    probe = staticmethod(probe_atoms_cpu)
    probe_reference = ATOMS_PROBE_REFERENCE_S

    W_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
    Y_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

    def build(self):
        ek = self.ek
        rng = np.random.default_rng(self.stream(WARMUP))
        gamma = (rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.0), -rng.uniform(0.5, 1.0))
        beta = (rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
        self.dgp = ek.DGPSpec(gamma=gamma, beta=beta)
        if self.smoke:
            self.nodes, self.draw_nodes, self.draw_n, self.study_n, self.study_reps = (6, 8), 8, 2000, 300, 2
        else:
            self.nodes, self.draw_nodes, self.draw_n, self.study_n, self.study_reps = (12, 24, 31), 24, 10000, 2000, 4
        table = ek.quadrature_distribution(self.dgp, nodes=self.nodes[0])
        self.table_dgp = ek.DGPSpec(kind="discrete-saturated", table=table)
        self.table_truth = {"psi": self.table_dgp.truth("psi"), "theta": self.table_dgp.truth("theta")}
        self.ref_truth = ref.table_psi_theta([(o.key, p) for o, p in table.atoms])
        self.study_configs = {
            "ols-irls-crossfit": ek.EstimatorConfig(estimand="psi", spec_q=ek.LearnerSpec("linear-ols"),
                                                    spec_g=ek.LearnerSpec("logistic-irls"), folds=5),
            "oracle-theta": ek.EstimatorConfig(
                estimand="theta",
                spec_q=ek.LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.5, shape=2),
                spec_g=ek.LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.2, shape=0)),
        }
        ek.run_coverage(self.table_dgp, self.study_configs["oracle-theta"], 100, 2, self.stream(WARMUP, 1))

    # -- inputs ------------------------------------------------------------------

    def _random_law(self, rng, d):
        atoms = []
        strata = rng.choice(len(self.W_GRID), size=int(rng.integers(2, 5)), replace=False)
        for s in strata:
            w = tuple(self.W_GRID[s] + 0.25 * j for j in range(d))
            for yi in rng.choice(len(self.Y_GRID), size=int(rng.integers(1, 3)), replace=False):
                atoms.append((w, 0, self.Y_GRID[yi]))
            atoms.append((w, 1, self.Y_GRID[int(rng.integers(len(self.Y_GRID)))]))
        counts = rng.integers(5, 16, size=len(atoms))
        total = float(counts.sum())
        return [(key, int(c) / total) for key, c in zip(atoms, counts)]

    def _perturbed(self, dist, rng, exact_q=False, exact_g=False):
        ek = self.ek
        qmap, gmap = {}, {}
        for w in dist.w_support:
            q, g = ek.q_of(dist, w), ek.g_of(dist, w)
            qmap[w] = q if exact_q else q + 0.5 * float(rng.standard_normal())
            gmap[w] = g if exact_g else float(np.clip(g + 0.2 * rng.uniform(-1, 1), 0.05, 0.95))
        return ek.FittedNuisance(_lookup(qmap), _lookup(gmap))

    # -- rounds ------------------------------------------------------------------

    def run_round(self, r, clock):
        ek = self.ek
        rng = np.random.default_rng(self.stream(r))
        laws = []
        for nodes in self.nodes:
            table = self.op(clock, "exact", ek.quadrature_distribution, self.dgp, nodes=nodes)
            if table is not None:
                laws.append(("table%d" % nodes, table, None))
        for d in (1, 2):
            atoms = self._random_law(rng, d)
            law = self.op(clock, "exact", ek.FiniteDistribution, atoms)
            if law is not None:
                laws.append(("law-d%d" % d, law, atoms))
        for label, dist, atoms in laws:
            self._exact_checks(clock, r, label, dist, atoms, rng)
        self._draw_and_decompose(clock, r, rng)
        for i, (label, config) in enumerate(self.study_configs.items()):
            seed = self.stream(r, 8, i)
            out = self.op(clock, "study", ek.run_coverage, self.table_dgp, config, self.study_n,
                          self.study_reps, seed, weight=self.study_reps, reps=self.study_reps)
            if out is not None:
                self.outputs.append(("study", r, label, seed, out))

    def _exact_checks(self, clock, r, label, dist, atoms, rng):
        ek, out = self.ek, self.outputs
        tag = f"r{r} {label}"
        psi = self.op(clock, "exact", ek.psi_of, dist)
        theta = self.op(clock, "exact", ek.theta_of, dist)
        # the reference sums are taken now, so no round keeps its tables alive
        sums = ref.table_psi_theta(atoms or [(o.key, p) for o, p in dist.atoms])
        out.append(("values", tag, atoms is None, sums, psi, theta))
        if atoms is None:
            truth = self.op(clock, "exact", ek.truth_functions, dist)
            if truth is None:
                return
            perturbed = ek.oracle_rate_nuisance(
                truth[0], truth[1], 1000,
                ek.LearnerSpec("oracle-rate", rate_exponent=0.3, amplitude=0.4, shape=0),
                ek.LearnerSpec("oracle-rate", rate_exponent=0.2, amplitude=0.3, shape=1))
            zero = ek.LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.0)
            bent = ek.LearnerSpec("oracle-rate", rate_exponent=0.25, amplitude=0.3, shape=0)
            exact_q = ek.oracle_rate_nuisance(truth[0], truth[1], 1000, zero, bent)
            exact_g = ek.oracle_rate_nuisance(truth[0], truth[1], 1000, bent, zero)
        else:
            perturbed = self._perturbed(dist, rng)
            exact_q = self._perturbed(dist, rng, exact_q=True)
            exact_g = self._perturbed(dist, rng, exact_g=True)
        pn_a = float(rng.uniform(0.2, 0.9))
        for name, fn, extra in (("psi", ek.remainder_exact_psi, ()),
                                ("theta", ek.remainder_exact_theta, (pn_a,))):
            rep = self.op(clock, "exact", fn, dist, perturbed, *extra)
            out.append(("routes", f"{tag} {name}", rep))
            for side, nuis in (("q", exact_q), ("g", exact_g)):
                extra1 = (dist.pr_a1,) if name == "theta" else ()
                rep = self.op(clock, "exact", fn, dist, nuis, *extra1)
                out.append(("vanish", f"{tag} {name} exact-{side}", rep))
        if atoms is None:
            for a_q, a_g in ((0.25, 0.25), (0.125, 0.375)):
                spec_q = ek.LearnerSpec("oracle-rate", rate_exponent=a_q, amplitude=0.05, shape=2)
                spec_g = ek.LearnerSpec("oracle-rate", rate_exponent=a_g, amplitude=0.05, shape=2)
                for estimand in ("psi", "theta"):
                    rep = self.op(clock, "exact", ek.remainder_rate_sweep, dist, truth, spec_q,
                                  spec_g, [256, 1024, 4096, 16384, 65536], estimand=estimand)
                    out.append(("sweep", f"{tag} {estimand} ({a_q}, {a_g})", rep, -(a_q + a_g)))
            phase = float(rng.uniform(0, math.pi))
            tilt = [(obs, p * (1.0 + 0.5 * math.sin(math.pi * obs.w[0] + phase))) for obs, p in dist.atoms]
            z = math.fsum(p for _, p in tilt)
            direction = self.op(clock, "exact", ek.FiniteDistribution, [(o, p / z) for o, p in tilt])
            grid = None
        else:
            k = int(rng.integers(1, min(6, len(dist.atoms)) + 1))
            picks = rng.choice(len(dist.atoms), size=k, replace=False)
            counts = rng.integers(5, 16, size=k)
            direction = self.op(clock, "exact", ek.FiniteDistribution,
                                [(dist.atoms[i][0], int(c) / float(counts.sum()))
                                 for i, c in zip(picks, counts)])
            grid = DENSE_STEP_GRID
        if direction is not None:
            for name in ("psi", "theta"):
                rep = self.op(clock, "exact", ek.pathwise_derivative_check, name, dist, direction,
                              step_grid=grid)
                out.append(("pathwise", f"{tag} {name}", rep))
        if atoms is not None:
            seed = self.stream(r, 7, len(atoms))
            data = self.op(clock, "exact", ek.draw_dataset, dist, 2000, seed)
            if data is not None:
                emp = self.op(clock, "exact", ek.empirical_distribution, data)
                sat = self.op(clock, "exact", ek.saturated_nuisance, data)
                if emp is not None and sat is not None:
                    for name, onestep, exact in (("psi", ek.onestep_psi, ek.psi_of),
                                                 ("theta", ek.onestep_theta, ek.theta_of)):
                        rep = self.op(clock, "exact", onestep, data, sat)
                        value = self.op(clock, "exact", exact, emp)
                        out.append(("collapse", f"{tag} {name}", rep, value))

    def _draw_and_decompose(self, clock, r, rng):
        ek = self.ek
        table = self.op(clock, "exact", ek.quadrature_distribution, self.dgp, nodes=self.draw_nodes)
        if table is None:
            return
        seed = self.stream(r, 9)
        data = self.op(clock, "exact", ek.draw_dataset, table, self.draw_n, seed)
        if data is None:
            return
        if r == 0:  # later draws are not kept, so memory does not grow with the round count
            self.outputs.append(("draw", f"r{r}", table, seed, data))
        nuis = self.op(clock, "exact", ek.fit_nuisance, data, ek.LearnerSpec("linear-ols"),
                       ek.LearnerSpec("logistic-irls"))
        if nuis is None:
            return
        for estimand in ("psi", "theta"):
            rep = self.op(clock, "exact", ek.decompose_error, table, nuis, data, estimand=estimand)
            self.outputs.append(("closure", f"r{r} {estimand}", rep))

    # -- checks ------------------------------------------------------------------

    def check(self):
        t_psi, t_theta = self.ref_truth
        self.expect(abs(self.table_truth["psi"] - t_psi) < 1e-12 and
                    abs(self.table_truth["theta"] - t_theta) < 1e-12,
                    f"table DGP truths {self.table_truth} vs reference {self.ref_truth}")
        beta0 = self.dgp.beta[0]
        for item in self.outputs:
            kind, tag = item[0], item[1]
            if kind == "values":
                is_table, (want_psi, want_theta), psi, theta = item[2:]
                if is_table:
                    self.expect(psi is not None and abs(psi - beta0) < 1e-12,
                                f"{tag}: psi_of {psi!r} vs beta0 {beta0!r}")
                self.expect(psi is not None and abs(psi - want_psi) < 1e-12,
                            f"{tag}: psi_of {psi!r} vs sum {want_psi!r}")
                self.expect(theta is not None and abs(theta - want_theta) < 1e-12,
                            f"{tag}: theta_of {theta!r} vs sum {want_theta!r}")
            elif kind == "routes":
                rep = item[2]
                if rep is None:
                    continue
                self.expect(rep.identity_gap < 1e-10, f"{tag}: remainder routes differ by {rep.identity_gap!r}")
                self.expect(abs(rep.remainder_closed_form) <= rep.cs_bound * (1 + 1e-12) + 1e-15
                            and abs(rep.remainder_direct) <= rep.cs_bound + 1e-10,
                            f"{tag}: remainder above its Cauchy-Schwarz bound {rep.cs_bound!r}")
            elif kind == "vanish":
                rep = item[2]
                if rep is None:
                    continue
                self.expect(abs(rep.remainder_direct) < 1e-12 and abs(rep.remainder_closed_form) < 1e-12,
                            f"{tag}: remainder {rep.remainder_direct!r} with one exact nuisance")
            elif kind == "sweep":
                rep, slope = item[2], item[3]
                if rep is not None:
                    self.expect(abs(rep.slope - slope) <= 0.02, f"{tag}: sweep slope {rep.slope!r}")
            elif kind == "pathwise":
                rep = item[2]
                if rep is not None:
                    self.expect(rep.discrepancy < 1e-6, f"{tag}: pathwise discrepancy {rep.discrepancy!r}")
            elif kind == "collapse":
                rep, value = item[2], item[3]
                if rep is not None and value is not None:
                    self.expect(abs(rep.point - value) < 1e-12,
                                f"{tag}: saturated one-step {rep.point!r} vs exact {value!r}")
            elif kind == "closure":
                rep = item[2]
                self.expect(rep is not None and abs(rep.closure_gap) < 1e-10,
                            f"{tag}: closure gap {getattr(rep, 'closure_gap', None)!r}")
            elif kind == "draw":
                table, seed, data = item[2], item[3], item[4]
                w, a, y = ref.table_draw([(o.key, p) for o, p in table.atoms], len(data.y), seed)
                self.expect(np.array_equal(w, data.w) and np.array_equal(a, data.a)
                            and np.array_equal(y, data.y), f"{tag}: table draw differs from reference")
            elif kind == "study":
                self._check_study(*item[1:])

    def _check_study(self, r, label, seed, out):
        config = self.study_configs[label]
        truth = self.table_truth[config.estimand]
        self.expect(out.failures == 0 and out.truth == truth, f"study {label}: {out.failures} failures")
        for rep in out.replications:
            self.expect(rep.ci_low <= rep.point <= rep.ci_high, f"study {label} rep {rep.rep}: point outside interval")
        if r != 0:
            return
        table = self.table_dgp.table
        atoms = [(o.key, p) for o, p in table.atoms]
        qmap, gmap = {}, {}
        for (w, a, y), p in atoms:
            m = gmap.setdefault(w, [0.0, 0.0, 0.0])
            m[0] += p
            if a == 0:
                m[1] += p
                m[2] += p * y
        for rep in out.replications:
            w, a, y = ref.table_draw(atoms, rep.n, np.random.SeedSequence([seed, rep.rep]))
            if label == "oracle-theta":
                keys = [tuple(row) for row in w]
                q = np.array([gmap[k][2] / gmap[k][1] for k in keys])
                g = np.array([gmap[k][1] / gmap[k][0] for k in keys])
                sq, sg = config.spec_q, config.spec_g
                qv = q + sq.amplitude * rep.n ** (-sq.rate_exponent)
                gv = np.clip(g + sg.amplitude * rep.n ** (-sg.rate_exponent) * np.sin(math.pi * w[:, 0]),
                             ref.TRUNCATION, 1 - ref.TRUNCATION)
            else:
                qv, gv = ref.crossfit_predictions("linear-ols", "logistic-irls", w, a, y, 5, 0)
            _check_replication(self, f"study {label} rep {rep.rep}", rep,
                               ref.aipw(config.estimand, a, y, qv, gv), 1e-7)


# ---------------------------------------------------------------------------


SHIPPED_COMMANDS = (  # first key that identifies a shipped config's subcommand
    ("study", "simulate"), ("direction", "verify-eif"), ("mode", "remainder"),
    ("sample", "decompose"), ("data", "estimate"),
)


class CliConfigs(Workload):
    """``eifkit`` subprocesses on every shipped config, a 20 000-row estimate and two bad configs."""

    name = "cli-configs"
    ident = 4
    trace_rounds = 1
    rep_category = "simulate"
    # every call is mostly a cold import, so the timed loop is probed like set-up
    probe = staticmethod(probe_import_cpu)
    probe_reference = IMPORT_PROBE_REFERENCE_S

    def build(self):
        root = self.root
        shipped = root / "scripts" / "configs"
        if not shipped.is_dir():
            raise FileNotFoundError(f"no shipped configs at {shipped}")
        work = self.workdir / "cli"
        if work.exists():
            shutil.rmtree(work)
        (work / "configs").mkdir(parents=True)
        shutil.copytree(root / "scripts" / "data", work / "data")
        self.calls = []  # (label, subcommand, config path, expect_error, simulated reps)
        for path in sorted(shipped.glob("*.json")):
            cfg = json.loads(path.read_text())
            command = next((cmd for key, cmd in SHIPPED_COMMANDS if key in cfg), None)
            if command is None:
                raise ValueError(f"cannot tell the subcommand of shipped config {path.name}")
            reps = 0
            if command == "simulate":
                cfg["reps"] = 2
                reps = cfg["reps"] * len(cfg.get("n_grid", [0]))
            target = work / "configs" / path.name
            target.write_text(json.dumps(cfg, indent=2))
            self.calls.append((path.stem, command, target, False, reps, cfg))
        n = 300 if self.smoke else 20000
        dgp = self.ek.default_logistic_linear()
        w, a, y = ref.logistic_linear_draw(dgp.gamma, dgp.beta, dgp.noise_sd, dgp.treated_shift, n,
                                           np.random.SeedSequence([self.seed, self.ident]))
        lines = ["w1,w2,a,y"] + [f"{float(r[0])!r},{float(r[1])!r},{int(t)},{float(v)!r}"
                                 for r, t, v in zip(w, a, y)]
        (work / "data" / "large.csv").write_text("\n".join(lines) + "\n")
        self.large = (w, a, y)
        large = {"data": "../data/large.csv", "estimand": "psi", "estimator": "onestep", "folds": 5,
                 "seed": 7, "include_eif": True,
                 "learners": {"q": {"kind": "linear-ols"}, "g": {"kind": "logistic-irls"}}}
        bad = {"folds-above-n": {"data": "../data/demo.csv", "folds": 500},
               "level-above-one": {"data": "../data/demo.csv", "level": 1.5}}
        for label, cfg, expect_error in [("estimate-large", large, False)] + [
                (k, v, True) for k, v in bad.items()]:
            target = work / "configs" / f"{label}.json"
            target.write_text(json.dumps(cfg, indent=2))
            self.calls.append((label, "estimate", target, expect_error, 0, cfg))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.results = {}   # label -> list of (returncode, stdout)
        self.inprocess = {}  # label -> list of (returncode, stdout)
        self.in_process_mode = False

    def _subprocess(self, command, path):
        proc = subprocess.run([sys.executable, "-m", "eifkit.cli", command, "--config", str(path)],
                              capture_output=True, text=True, env=self.env, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr

    def _in_process(self, command, path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.ek.cli.main([command, "--config", str(path)])
        return code, buf.getvalue(), ""

    def run_round(self, r, clock):
        runner = self._in_process if self.in_process_mode else self._subprocess
        store = self.inprocess if self.in_process_mode else self.results
        for label, command, path, expect_error, reps, _ in self.calls:
            # the large estimate is timed apart, so its ingest and cross-fit show
            category = "simulate" if command == "simulate" else label if label == "estimate-large" else "cli"
            out = self.op(clock, category, runner, command, path, reps=reps)
            if out is None:  # e.g. an uncaught error inside main()
                continue
            code, stdout, stderr = out
            store.setdefault(label, []).append((code, stdout))
            if expect_error and not (code == 2 and self._error_doc(stdout)):
                self.failed += 1
                self.notes.append(f"{label}: exit {code}, {stderr.strip().splitlines()[-1:] or stdout[:80]}")

    @staticmethod
    def _error_doc(stdout):
        try:
            doc = json.loads(stdout)
        except ValueError:
            return False
        return isinstance(doc, dict) and set(doc) == {"error"}

    def check(self):
        # compare every recorded call with an in-process call on the same config
        if not self.inprocess:
            for label, command, path, expect_error, _, _ in self.calls:
                if not expect_error:
                    self.inprocess[label] = [self._in_process(command, path)[:2]]
        for label, command, path, expect_error, _, cfg in self.calls:
            if expect_error:
                continue
            runs = self.results.get(label, []) + self.inprocess.get(label, [])
            self.expect(bool(runs), f"{label}: no completed call")
            if not runs:
                continue
            for code, stdout in runs:
                self.expect(code == 0, f"{label}: exit {code}")
            self.expect(len({stdout for _, stdout in runs}) == 1, f"{label}: output bytes differ between calls")
            try:
                doc = json.loads(runs[0][1])
            except ValueError:
                self.expect(False, f"{label}: stdout is not one JSON document")
                continue
            try:
                self._check_doc(label, command, cfg, doc)
            except (KeyError, TypeError, AttributeError) as err:
                self.expect(False, f"{label}: unexpected output document ({type(err).__name__}: {err})")

    def _check_doc(self, label, command, cfg, doc):
        if command == "verify-eif":
            for name, entry in doc.items():
                self.expect(entry["check"]["discrepancy"] < 1e-6, f"{label} {name}: discrepancy")
                self.expect(abs(entry["eif_mean"]) < 1e-10, f"{label} {name}: eif_mean {entry['eif_mean']!r}")
        elif command == "decompose":
            self.expect(abs(doc["closure_gap"]) < 1e-10, f"{label}: closure gap {doc['closure_gap']!r}")
        elif command == "remainder" and "slope" in doc:
            learners = cfg["learners"]
            want = -(learners["q"]["rate_exponent"] + learners["g"]["rate_exponent"])
            self.expect(abs(doc["slope"] - want) <= 0.02, f"{label}: sweep slope {doc['slope']!r}")
        elif command == "simulate":
            self.expect(doc["failures"] == 0 and doc["reps"] == cfg["reps"], f"{label}: {doc.get('failures')} failures")
        elif command == "estimate":
            if "ci_low" in doc:
                self.expect(doc["ci_low"] <= doc["point"] <= doc["ci_high"], f"{label}: point outside interval")
            if label == "estimate-large":
                self._check_large(doc)

    def _check_large(self, doc):
        w, a, y = self.large
        qv, gv = ref.crossfit_predictions("linear-ols", "logistic-irls", w, a, y, 5, 7)
        point, variance, lo, hi = ref.aipw("psi", a, y, qv, gv)
        self.expect(ref.rel_gap(doc["point"], point) <= 1e-7 and ref.rel_gap(doc["variance"], variance) <= 1e-7,
                    f"estimate-large: ({doc['point']!r}, {doc['variance']!r}) vs reference ({point!r}, {variance!r})")
        eif = np.asarray(doc.get("eif_values", []), dtype=float)
        self.expect(len(eif) == len(y), f"estimate-large: {len(eif)} eif values for {len(y)} rows")
        if len(eif) == len(y):
            self.expect(ref.rel_gap(math.fsum(eif * eif) / len(y) ** 2, doc["variance"]) <= 1e-12,
                        "estimate-large: eif_values do not reproduce the variance")

    def peak_rss_mb(self):
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return max(super().peak_rss_mb(), children)

    def close(self):
        shutil.rmtree(self.workdir / "cli", ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (SmootherStudies, ParametricGrid, FiniteExact, CliConfigs)}
