"""Shared generators and fixtures.

``random_distribution`` builds small finite laws with guard rails: every
covariate stratum keeps untreated mass (so conditional means and
propensities exist), at least one atom is treated, and atom masses are
floored away from zero so mixture paths stay well inside the simplex.
Hypothesis tests drive it through drawn seeds, which keeps the cases
replayable from a single integer.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from eifkit import FiniteDistribution, FittedNuisance, Observation, g_of, q_of
from eifkit.errors import (
    InvalidDistribution,
    NoTreatedMass,
    PositivityViolation,
    ZeroMassConditioning,
)

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")

W_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
Y_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def random_distribution(rng, max_strata=4, d=1, max_y_per_stratum=2,
                        treated=True, min_count=5, max_count=15):
    """Small random finite law; masses are ratios of bounded integers.

    Integer weights in [min_count, max_count] keep every atom mass above
    roughly 1/(3 * n_atoms), which the derivative check needs so that the
    mixture path stays far from the simplex boundary.
    """
    n_strata = int(rng.integers(1, max_strata + 1))
    strata = rng.choice(len(W_GRID), size=n_strata, replace=False)
    atoms = []
    treated_added = False
    for s in strata:
        w = tuple(W_GRID[s] + 0.25 * j for j in range(d))
        n_y = int(rng.integers(1, max_y_per_stratum + 1))
        ys = rng.choice(len(Y_GRID), size=n_y, replace=False)
        for yi in ys:
            atoms.append([(w, 0, Y_GRID[yi]), 0])
        if treated and rng.random() < 0.7:
            yi = int(rng.integers(0, len(Y_GRID)))
            atoms.append([(w, 1, Y_GRID[yi]), 0])
            treated_added = True
    if treated and not treated_added:
        w, _, y = atoms[0][0]
        atoms.append([(w, 1, y), 0])
    counts = rng.integers(min_count, max_count + 1, size=len(atoms))
    total = float(counts.sum())
    return FiniteDistribution(
        [(key, int(c) / total) for (key, _), c in zip(atoms, counts)]
    )


class RefLaw:
    """Per-atom reference for a finite law, independent of its support table.

    The atom list is sorted by key with a tuple sort, and each stratum sum
    is a running sum over it into an ordered dict, keyed by the first
    covariate tuple of the stratum.  The functionals, the scalar influence
    functions, the mixture and the atom draw are computed from those dicts
    one stratum or one atom at a time, raising what the library raises.
    """

    COLUMNS = ("w", "pw", "pw0", "pw1", "q", "g", "atom_w", "atom_stratum", "atom_a", "atom_y",
               "atom_p", "pr_a1")

    def __init__(self, atoms):
        pairs = [(obs if isinstance(obs, Observation) else Observation(*obs), float(p))
                 for obs, p in atoms]
        for _, p in pairs:
            if not 0.0 < p <= 1.0:
                raise InvalidDistribution(f"atom mass {p!r} outside (0, 1]")
        pairs.sort(key=lambda it: it[0].key)
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > 1e-12:
            raise InvalidDistribution(f"masses sum to {total!r}, not 1")
        self.atoms = tuple(pairs)
        self.atom_mass = {obs.key: p for obs, p in pairs}
        self.w_mass, self.w0_mass, self.w0_ymass, self.w1_mass = {}, {}, {}, {}
        for obs, p in pairs:
            self.w_mass[obs.w] = self.w_mass.get(obs.w, 0.0) + p
            if obs.a == 0:
                self.w0_mass[obs.w] = self.w0_mass.get(obs.w, 0.0) + p
                self.w0_ymass[obs.w] = self.w0_ymass.get(obs.w, 0.0) + p * obs.y
            else:
                self.w1_mass[obs.w] = self.w1_mass.get(obs.w, 0.0) + p
        self.pr_a1 = math.fsum(p for obs, p in pairs if obs.a == 1)

    def q(self, w):
        key = tuple(map(float, w))
        if key not in self.w_mass:
            raise ZeroMassConditioning(f"covariate value {key} outside the support")
        denom = self.w0_mass.get(key, 0.0)
        if denom == 0.0:
            raise ZeroMassConditioning(f"Pr(W={key}, A=0) = 0; E(Y | W=w, A=0) undefined")
        return self.w0_ymass[key] / denom

    def g(self, w):
        key = tuple(map(float, w))
        if key not in self.w_mass:
            raise ZeroMassConditioning(f"covariate value {key} outside the support")
        return self.w0_mass.get(key, 0.0) / self.w_mass[key]

    def psi(self):
        terms = []
        for w, pw in self.w_mass.items():
            p0 = self.w0_mass.get(w, 0.0)
            if p0 == 0.0:
                raise PositivityViolation(
                    f"covariate value {w} has mass {pw!r} but no untreated mass")
            terms.append(pw * (self.w0_ymass[w] / p0))
        return math.fsum(terms)

    def theta(self):
        p1 = self.pr_a1
        if p1 == 0.0:
            raise NoTreatedMass("Pr(A=1) = 0; treated-conditional mean undefined")
        terms = []
        for w, pw1 in self.w1_mass.items():
            p0 = self.w0_mass.get(w, 0.0)
            if p0 == 0.0:
                raise PositivityViolation(
                    f"covariate value {w} is reachable under A=1 but has no untreated mass")
            terms.append((pw1 / p1) * (self.w0_ymass[w] / p0))
        return math.fsum(terms)

    def eif_psi(self, o):
        psi = self.psi()
        q = self.q(o.w)
        if o.a == 0:
            return (o.y - q) / self.g(o.w) + q - psi
        return q - psi

    def eif_theta(self, o):
        theta = self.theta()
        p1 = self.pr_a1
        q = self.q(o.w)
        g = self.g(o.w)
        if o.a == 0:
            return (1.0 - g) / g * (o.y - q) / p1
        return (q - theta) / p1

    def mix(self, direction, e):
        """The law (1-e)*self + e*direction, ``direction`` a RefLaw on a subset of the atoms."""
        out = []
        for obs, p_base in self.atoms:
            m = (1.0 - e) * p_base + e * direction.atom_mass.get(obs.key, 0.0)
            if m > 0.0:
                out.append((obs, m))
        return RefLaw(out)

    def table(self):
        """The support-table columns, built from the dict sums."""
        strata = tuple(self.w_mass)
        index = {w: i for i, w in enumerate(strata)}
        pw0 = np.array([self.w0_mass.get(w, 0.0) for w in strata])
        ymass0 = np.array([self.w0_ymass.get(w, 0.0) for w in strata])
        pw = np.array(list(self.w_mass.values()))
        return {
            "w": np.array(strata, dtype=float),
            "pw": pw, "pw0": pw0, "pw1": np.array([self.w1_mass.get(w, 0.0) for w in strata]),
            "q": np.divide(ymass0, pw0, out=np.full(len(strata), np.nan), where=pw0 != 0.0),
            "g": pw0 / pw,
            "atom_w": np.array([obs.w for obs, _ in self.atoms], dtype=float),
            "atom_stratum": np.array([index[obs.w] for obs, _ in self.atoms]),
            "atom_a": np.array([obs.a for obs, _ in self.atoms]),
            "atom_y": np.array([obs.y for obs, _ in self.atoms]),
            "atom_p": np.array([p for _, p in self.atoms]),
            "pr_a1": self.pr_a1,
        }

    def draw(self, n, seed):
        """n rows (w, a, y) and the treated rows' counterfactual y0, as the table DGP draws them."""
        rng = np.random.default_rng(seed)
        masses = np.array([p for _, p in self.atoms])
        idx = rng.choice(len(self.atoms), size=n, p=masses / masses.sum())
        atom_w = np.array([obs.w for obs, _ in self.atoms], dtype=float)
        atom_a = np.array([obs.a for obs, _ in self.atoms], dtype=np.int64)
        atom_y = np.array([obs.y for obs, _ in self.atoms], dtype=float)
        a = atom_a[idx]
        new_stratum = np.concatenate([[True], (atom_w[1:] != atom_w[:-1]).any(axis=1)])
        stratum = np.cumsum(new_stratum) - 1
        first = np.flatnonzero(new_stratum)[stratum]
        stop = first + np.bincount(stratum, weights=atom_a == 0).astype(np.int64)[stratum]
        untreated_mass = np.where(atom_a == 0, masses, 0.0)
        upper = np.cumsum(untreated_mass)
        lower = upper - untreated_mass
        treated = idx[a == 1]
        first, stop = first[treated], stop[treated]
        last = np.maximum(stop - 1, first)
        target = lower[first] + rng.random(len(treated)) * (upper[last] - lower[first])
        pick = np.clip(np.searchsorted(upper, target, side="right"), first, last)
        y0 = atom_y[idx]
        y0[a == 1] = np.where(stop > first, atom_y[pick], np.nan)
        return atom_w[idx], a, atom_y[idx], y0


def lookup_fn(table):
    """Vectorized exact-key lookup predictor over a support table."""
    def fn(w):
        arr = np.asarray(w, dtype=float)
        single = arr.ndim == 1
        out = np.array([table[tuple(float(x) for x in row)]
                        for row in np.atleast_2d(arr)])
        return float(out[0]) if single else out
    return fn


def perturbed_nuisance(dist, rng, q_scale=0.5, g_scale=0.2,
                       exact_q=False, exact_g=False):
    """Nuisance pair equal to the truth plus bounded stratum-wise noise.

    The perturbed propensity is clipped to [0.05, 0.95], so the remainder
    identities are exercised away from the boundary.
    """
    qmap, gmap = {}, {}
    for w in dist.w_support:
        g = g_of(dist, w)
        q = q_of(dist, w)
        qmap[w] = q if exact_q else q + q_scale * float(rng.standard_normal())
        if exact_g:
            gmap[w] = g
        else:
            gmap[w] = float(np.clip(g + g_scale * float(rng.uniform(-1, 1)),
                                    0.05, 0.95))
    return FittedNuisance(lookup_fn(qmap), lookup_fn(gmap))


def direction_from(dist, rng, max_atoms=6):
    """Random direction law supported on a subset of ``dist``'s atoms."""
    k = int(rng.integers(1, min(max_atoms, len(dist.atoms)) + 1))
    picks = rng.choice(len(dist.atoms), size=k, replace=False)
    counts = rng.integers(5, 16, size=k)
    total = float(counts.sum())
    return FiniteDistribution(
        [(dist.atoms[i][0], int(c) / total) for i, c in zip(picks, counts)]
    )


@pytest.fixture
def four_atom():
    """Uniform law on {(w,a,y)} = {(0,0,0),(0,1,0),(1,0,1),(1,1,1)}; psi = theta = 1/2."""
    return FiniteDistribution(
        [((0.0, 0, 0.0), 0.25), ((0.0, 1, 0.0), 0.25),
         ((1.0, 0, 1.0), 0.25), ((1.0, 1, 1.0), 0.25)]
    )


@pytest.fixture
def five_atom():
    """Hand-computed reference law.

    q(0) = 2, q(1) = 5, g(0) = 0.8, g(1) = 0.6, Pr(A=1) = 0.3,
    psi = 3.5, theta = 4.0.
    """
    return FiniteDistribution(
        [((0.0, 0, 1.0), 0.2), ((0.0, 0, 3.0), 0.2), ((0.0, 1, 9.0), 0.1),
         ((1.0, 0, 5.0), 0.3), ((1.0, 1, 7.0), 0.2)]
    )


@pytest.fixture
def treated_law():
    """A two-covariate law whose four strata all carry both arms; Pr(A=1) = 0.4.

    Its masses and outcomes are short binary fractions, so with shape-2
    (constant) oracle nuisances every exact routine on it runs on plain
    arithmetic: no BLAS call and no vectorized exp or sin.
    """
    return FiniteDistribution([
        (((0.0, -1.0), 0, 0.5), 0.15), (((0.0, -1.0), 1, 2.0), 0.05),
        (((0.0, 1.0), 0, -1.25), 0.1), (((0.0, 1.0), 0, 3.0), 0.1),
        (((0.0, 1.0), 1, 0.75), 0.1), (((1.0, -1.0), 0, 1.5), 0.2),
        (((1.0, -1.0), 1, -0.5), 0.05), (((1.0, 1.0), 0, 2.25), 0.05),
        (((1.0, 1.0), 1, 4.0), 0.15), (((1.0, 1.0), 1, 1.0), 0.05),
    ])

def assert_close(a, b, tol, label=""):
    assert math.isfinite(a) and math.isfinite(b), f"{label}: non-finite {a}, {b}"
    assert abs(a - b) <= tol, f"{label}: |{a} - {b}| = {abs(a - b)} > {tol}"
