"""Exact computation on finite-support joint laws of (W, A, Y).

Everything downstream (remainder identities, error decompositions, the
derivative check) rests on this module doing *exact* arithmetic: atoms are
keyed by their exact float tuples, conditional means and propensities are
ratios of exactly-summed masses, and every expectation is a compensated sum
(``math.fsum``) over the atom table.  No tolerance-based merging of nearby
atoms is ever performed.

Support table
-------------
``FiniteDistribution.support_table`` holds the law as arrays, built on
first use and kept on the law (it is dropped and pickled with it): the
covariate strata as a matrix with their index, per stratum Pr(W=w),
Pr(W=w, A=0), the untreated sum of p*y, q and g, and per atom its stratum,
a, y and p.  Each float is taken from, or is one division of, the ordered
dict sums the constructor makes, so it equals the scalar lookups
(``q_of``, ``g_of``, ``FiniteDistribution.w_mass``) bit for bit.  The
exact routines form their expectations as elementwise array terms and
pass them to ``math.fsum``, which is exactly rounded whatever the order.

Parameters of interest
----------------------
``psi_of``
    Mean of the untreated-outcome regression over the covariate marginal,
    E{ E(Y | W, A=0) }.
``theta_of``
    Same regression averaged over the covariate law among the treated,
    E{ E(Y | W, A=0) | A=1 }.

Their influence functions (``eif_psi``, ``eif_theta``) are closed-form and
mean zero.  ``_influence`` is their one array form: the one-step
estimators, the exact remainders, the error decomposition and
``eif_integral`` all evaluate it.  ``pathwise_derivative_check`` verifies
the gradient property of the influence function along mixture paths
toward a direction distribution by Richardson-extrapolated one-sided
differencing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InvalidDistribution,
    NoTreatedMass,
    PositivityViolation,
    SupportViolation,
    ZeroMassConditioning,
)
from .learners import _is_real

__all__ = [
    "Observation",
    "FiniteDistribution",
    "SupportTable",
    "SubmodelMix",
    "CheckReport",
    "q_of",
    "g_of",
    "psi_of",
    "theta_of",
    "eif_psi",
    "eif_theta",
    "eif_integral",
    "mix",
    "pathwise_derivative_check",
    "distribution_to_dict",
    "distribution_from_dict",
    "load_distribution",
    "save_distribution",
]

MASS_TOLERANCE = 1e-12
DEFAULT_STEP_GRID = (1e-3, 5e-4)


def _canonical_w(w) -> tuple:
    if isinstance(w, (int, float)):
        w = (w,)
    try:
        out = tuple(float(x) for x in w)
    except (TypeError, ValueError) as err:
        raise InvalidDistribution(f"covariate value {w!r} is not numeric") from err
    if not out:
        raise InvalidDistribution("covariate vector must have at least one entry")
    if not all(math.isfinite(x) for x in out):
        raise InvalidDistribution(f"covariate vector {out!r} has non-finite entries")
    return out


@dataclass(frozen=True)
class Observation:
    """One support point (w, a, y).

    ``w`` is canonicalized to a tuple of floats so that atoms compare by
    exact value; ``a`` must be 0 or 1.
    """

    w: tuple
    a: int
    y: float

    def __post_init__(self):
        object.__setattr__(self, "w", _canonical_w(self.w))
        if self.a not in (0, 1):
            raise InvalidDistribution(f"treatment must be 0 or 1, got {self.a!r}")
        object.__setattr__(self, "a", int(self.a))
        try:
            y = float(self.y)
        except (TypeError, ValueError) as err:
            raise InvalidDistribution(f"outcome {self.y!r} is not numeric") from err
        if not math.isfinite(y):
            raise InvalidDistribution(f"outcome must be finite, got {self.y!r}")
        object.__setattr__(self, "y", y)

    @property
    def key(self):
        return (self.w, self.a, self.y)


class SupportTable(NamedTuple):
    """Array view of one law: its covariate strata and its atoms.

    Strata are in the law's canonical order (first appearance in the sorted
    atom table), atoms in atom order.  ``q`` is NaN on a stratum without
    untreated mass; ``require_q`` raises there as ``q_of`` does.
    """

    strata: tuple             # covariate keys
    index: dict               # covariate key -> stratum row
    w: np.ndarray             # (strata, d) covariate matrix
    pw: np.ndarray            # Pr(W = w)
    pw0: np.ndarray           # Pr(W = w, A = 0)
    ymass0: np.ndarray        # sum of p*y over the untreated atoms of w
    q: np.ndarray             # E(Y | W = w, A = 0)
    g: np.ndarray             # Pr(A = 0 | W = w)
    atom_stratum: np.ndarray  # each atom's stratum row
    atom_a: np.ndarray
    atom_y: np.ndarray
    atom_p: np.ndarray

    def require_q(self) -> None:
        """Raise ZeroMassConditioning at the first stratum where q is undefined."""
        missing = np.flatnonzero(self.pw0 == 0.0)
        if missing.size:
            key = self.strata[missing[0]]
            raise ZeroMassConditioning(f"Pr(W={key}, A=0) = 0; E(Y | W=w, A=0) undefined")


class FiniteDistribution:
    """Joint law of (W, A, Y) supported on finitely many atoms.

    Parameters
    ----------
    atoms : iterable of (Observation, mass) or ((w, a, y), mass)
        Masses must be in (0, 1] and sum to one within ``MASS_TOLERANCE``.
        Atoms must be distinct by exact (w, a, y) key.

    Notes
    -----
    Atoms are stored sorted by key so every summation runs in one canonical
    order; repeated evaluation is bit-reproducible.  The functional values
    psi/theta and the support table are cached after first computation
    (idempotent, so benign under concurrent reads).
    """

    __slots__ = ("atoms", "_atom_mass", "_w_mass", "_w0_mass", "_w0_ymass",
                 "_w1_mass", "_pr_a1", "_psi", "_theta", "_table")

    def __init__(self, atoms):
        pairs = []
        for entry in atoms:
            try:
                obs, p = entry
            except (TypeError, ValueError) as err:
                raise InvalidDistribution(
                    f"atom entry {entry!r} is not an (observation, mass) pair"
                ) from err
            if not isinstance(obs, Observation):
                obs = Observation(*obs)
            try:
                p = float(p)
            except (TypeError, ValueError) as err:
                raise InvalidDistribution(f"atom mass {p!r} is not numeric") from err
            if not math.isfinite(p) or not 0.0 < p <= 1.0:
                raise InvalidDistribution(f"atom mass {p!r} outside (0, 1]")
            pairs.append((obs, p))
        if not pairs:
            raise InvalidDistribution("distribution needs at least one atom")
        pairs.sort(key=lambda it: it[0].key)
        for left, right in zip(pairs, pairs[1:]):
            if left[0].key == right[0].key:
                raise InvalidDistribution(f"duplicate atom {left[0].key}")
        dims = {len(obs.w) for obs, _ in pairs}
        if len(dims) > 1:
            raise InvalidDistribution(
                f"covariate vectors must share one dimension, got lengths {sorted(dims)}"
            )
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise InvalidDistribution(f"masses sum to {total!r}, not 1")
        self.atoms = tuple(pairs)
        self._atom_mass = {obs.key: p for obs, p in self.atoms}

        w_mass: dict = {}
        w0_mass: dict = {}
        w0_ymass: dict = {}
        w1_mass: dict = {}
        for obs, p in self.atoms:
            w_mass[obs.w] = w_mass.get(obs.w, 0.0) + p
            if obs.a == 0:
                w0_mass[obs.w] = w0_mass.get(obs.w, 0.0) + p
                w0_ymass[obs.w] = w0_ymass.get(obs.w, 0.0) + p * obs.y
            else:
                w1_mass[obs.w] = w1_mass.get(obs.w, 0.0) + p
        self._w_mass = w_mass
        self._w0_mass = w0_mass
        self._w0_ymass = w0_ymass
        self._w1_mass = w1_mass
        self._pr_a1 = math.fsum(p for obs, p in self.atoms if obs.a == 1)
        self._psi = None
        self._theta = None
        self._table = None

    # -- support access ----------------------------------------------------

    @property
    def w_support(self) -> tuple:
        """Covariate values carrying positive mass, in canonical order."""
        return tuple(self._w_mass)

    def mass_of(self, obs) -> float:
        """Mass of an exact atom (Observation or (w, a, y) triple); 0.0 if absent."""
        if not isinstance(obs, Observation):
            obs = Observation(*obs)
        return self._atom_mass.get(obs.key, 0.0)

    def w_mass(self, w) -> float:
        return self._w_mass.get(_canonical_w(w), 0.0)

    @property
    def support_table(self) -> SupportTable:
        """The law's strata and atoms as arrays, built on first use."""
        if self._table is None:
            strata = tuple(self._w_mass)
            pw = np.array(list(self._w_mass.values()))
            pw0 = np.array([self._w0_mass.get(w, 0.0) for w in strata])
            ymass0 = np.array([self._w0_ymass.get(w, 0.0) for w in strata])
            q = np.divide(ymass0, pw0, out=np.full(len(strata), np.nan), where=pw0 != 0.0)
            index = {w: i for i, w in enumerate(strata)}
            table = SupportTable(
                strata=strata,
                index=index,
                w=np.array(strata, dtype=float),
                pw=pw,
                pw0=pw0,
                ymass0=ymass0,
                q=q,
                g=pw0 / pw,
                atom_stratum=np.array([index[obs.w] for obs, _ in self.atoms], dtype=np.int64),
                atom_a=np.array([obs.a for obs, _ in self.atoms], dtype=np.int64),
                atom_y=np.array([obs.y for obs, _ in self.atoms]),
                atom_p=np.array([p for _, p in self.atoms]),
            )
            for field in table[2:]:
                field.setflags(write=False)
            self._table = table
        return self._table

    @property
    def pr_a1(self) -> float:
        """Marginal treated probability Pr(A = 1)."""
        return self._pr_a1

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        return f"FiniteDistribution({len(self.atoms)} atoms, {len(self._w_mass)} covariate values)"


# ---------------------------------------------------------------------------
# conditional functionals


def q_of(dist: FiniteDistribution, w) -> float:
    """Untreated-outcome regression E(Y | W = w, A = 0).

    Raises
    ------
    ZeroMassConditioning
        If Pr(W = w, A = 0) = 0, i.e. the conditioning event has no mass.
    """
    key = _canonical_w(w)
    denom = dist._w0_mass.get(key, 0.0)
    if denom == 0.0:
        raise ZeroMassConditioning(f"Pr(W={key}, A=0) = 0; E(Y | W=w, A=0) undefined")
    return dist._w0_ymass[key] / denom


def g_of(dist: FiniteDistribution, w) -> float:
    """Untreated propensity Pr(A = 0 | W = w)."""
    key = _canonical_w(w)
    denom = dist._w_mass.get(key, 0.0)
    if denom == 0.0:
        raise ZeroMassConditioning(f"Pr(W={key}) = 0; Pr(A=0 | W=w) undefined")
    return dist._w0_mass.get(key, 0.0) / denom


def psi_of(dist: FiniteDistribution) -> float:
    """Mean untreated outcome E{ E(Y | W, A=0) } by exact summation.

    Raises
    ------
    PositivityViolation
        If some covariate value has positive mass but zero untreated mass.
    """
    if dist._psi is None:
        terms = []
        for w, pw in dist._w_mass.items():
            p0 = dist._w0_mass.get(w, 0.0)
            if p0 == 0.0:
                raise PositivityViolation(
                    f"covariate value {w} has mass {pw!r} but no untreated mass"
                )
            terms.append(pw * (dist._w0_ymass[w] / p0))
        dist._psi = math.fsum(terms)
    return dist._psi


def theta_of(dist: FiniteDistribution) -> float:
    """Mean untreated outcome among the treated, E{ E(Y | W, A=0) | A=1 }.

    Positivity is only required where the treated covariate law puts mass.

    Raises
    ------
    NoTreatedMass
        If Pr(A = 1) = 0.
    PositivityViolation
        If some w with Pr(W = w, A = 1) > 0 has no untreated mass.
    """
    if dist._theta is None:
        p1 = dist._pr_a1
        if p1 == 0.0:
            raise NoTreatedMass("Pr(A=1) = 0; treated-conditional mean undefined")
        terms = []
        for w, pw1 in dist._w1_mass.items():
            p0 = dist._w0_mass.get(w, 0.0)
            if p0 == 0.0:
                raise PositivityViolation(
                    f"covariate value {w} is reachable under A=1 but has no untreated mass"
                )
            terms.append((pw1 / p1) * (dist._w0_ymass[w] / p0))
        dist._theta = math.fsum(terms)
    return dist._theta


# ---------------------------------------------------------------------------
# influence functions


def eif_psi(o: Observation, dist: FiniteDistribution) -> float:
    """Influence function of ``psi_of`` at observation ``o`` under ``dist``.

        I(a=0)/g(w) * (y - q(w)) + q(w) - psi

    The observation must lie in the covariate support of ``dist``.
    """
    psi = psi_of(dist)
    if dist._w_mass.get(o.w, 0.0) == 0.0:
        raise ZeroMassConditioning(f"covariate value {o.w} outside the support")
    q = q_of(dist, o.w)
    if o.a == 0:
        return (o.y - q) / g_of(dist, o.w) + q - psi
    return q - psi


def eif_theta(o: Observation, dist: FiniteDistribution) -> float:
    """Influence function of ``theta_of`` at ``o`` under ``dist``.

        I(a=0)/Pr(A=1) * (1-g)/g * (y - q)  +  I(a=1)/Pr(A=1) * (q - theta)
    """
    theta = theta_of(dist)
    p1 = dist.pr_a1
    if dist._w_mass.get(o.w, 0.0) == 0.0:
        raise ZeroMassConditioning(f"covariate value {o.w} outside the support")
    q = q_of(dist, o.w)
    g = g_of(dist, o.w)
    if o.a == 0:
        return (1.0 - g) / g * (o.y - q) / p1
    return (q - theta) / p1


def _influence(estimand: str, a, y, q, g, centre, p1):
    """The influence function of ``estimand`` as arrays over rows (a, y).

    ``q`` and ``g`` are the regression and propensity at each row,
    ``centre`` the functional value subtracted, and ``p1`` the treated
    fraction dividing the treated-mean version (unused for psi):

        psi:    I(a=0) * (y - q) / g + q - centre
        theta: (I(a=0) * (1-g)/g * (y - q) + I(a=1) * (q - centre)) / p1

    evaluated in this operation order wherever an influence function is
    formed over arrays.
    """
    ind0 = (a == 0).astype(float)
    if estimand == "psi":
        return ind0 * (y - q) / g + q - centre
    return (ind0 * (1.0 - g) / g * (y - q) + (1.0 - ind0) * (q - centre)) / p1


# ---------------------------------------------------------------------------
# mixture submodel


@dataclass(frozen=True)
class SubmodelMix:
    """Mixture point (1-e)*base + e*direction along a one-parameter path.

    The direction's support must be contained in the base's support, so the
    path stays inside the family dominated by the base.  e ranges over
    [0, 1]; e = 0 reproduces the base exactly and e = 1 the direction.
    """

    base: FiniteDistribution
    direction: FiniteDistribution
    e: float

    def __post_init__(self):
        e = float(self.e)
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"mixture weight must lie in [0, 1], got {e!r}")
        object.__setattr__(self, "e", e)
        base_keys = {obs.key for obs, _ in self.base.atoms}
        for obs, _ in self.direction.atoms:
            if obs.key not in base_keys:
                raise SupportViolation(
                    f"direction atom {obs.key} lies outside the base support"
                )


def mix(sub: SubmodelMix) -> FiniteDistribution:
    """Materialize the mixture distribution at the submodel's weight.

    Atom masses combine exactly: (1-e)*p_base + e*p_direction over the base
    support, dropping atoms whose combined mass is zero (only possible at
    e = 1).
    """
    dir_mass = sub.direction._atom_mass
    e = sub.e
    out = []
    for obs, p_base in sub.base.atoms:
        m = (1.0 - e) * p_base + e * dir_mass.get(obs.key, 0.0)
        if m > 0.0:
            out.append((obs, m))
    return FiniteDistribution(out)


@dataclass(frozen=True)
class CheckReport:
    """Result of one pathwise-derivative comparison."""

    functional: str
    finite_difference: float
    eif_integral: float
    discrepancy: float
    step_grid: tuple

    def to_dict(self) -> dict:
        return fields_dict(self)


def fields_dict(report, omit=()) -> dict:
    """A report dataclass's fields as a JSON-ready dict.

    Tuples become lists.  Fields named in ``omit`` and fields holding None
    are left out.
    """
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if f.name not in omit and value is not None:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


_FUNCTIONALS = {"psi": psi_of, "theta": theta_of}


def _extrapolate_to_zero(steps: Sequence[float], values: Sequence[float]) -> float:
    # Aitken-Neville evaluation at step 0 of the polynomial through
    # (h_j, D_j).  With the default grid (h, h/2) this reduces to the
    # classical second-order combination 2*D(h/2) - D(h).
    tableau = list(values)
    m = len(tableau)
    for level in range(1, m):
        nxt = []
        for j in range(m - level):
            h_hi = steps[j]
            h_lo = steps[j + level]
            nxt.append((h_hi * tableau[j + 1] - h_lo * tableau[j]) / (h_hi - h_lo))
        tableau = nxt
    return tableau[0]


def pathwise_derivative_check(
    functional: str,
    base: FiniteDistribution,
    direction: FiniteDistribution,
    step_grid: Sequence[float] | None = None,
) -> CheckReport:
    """Compare d/de functional(mix(e)) at e = 0 against the influence-function integral.

    The derivative is approximated by one-sided forward differences on
    ``step_grid`` (e < 0 leaves the mixture family) and Richardson
    extrapolation to step zero.  The analytic value is the direction-mass
    weighted sum of the influence function evaluated under the base, which
    equals the integral against the direction because the influence function
    is mean zero under the base.

    Parameters
    ----------
    functional : {"psi", "theta"}
    step_grid : decreasing sequence of positive steps, default (1e-3, 5e-4)

    Returns
    -------
    CheckReport
        Both values and their absolute discrepancy.
    """
    try:
        value_fn = _FUNCTIONALS[functional]
    except KeyError:
        raise ConfigError(f"unknown functional {functional!r}") from None
    grid = tuple(float(h) for h in (step_grid if step_grid is not None else DEFAULT_STEP_GRID))
    if not grid or any(h <= 0.0 for h in grid):
        raise ConfigError("step grid must contain positive steps")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("step grid must be strictly decreasing")
    if grid[0] > 1.0:
        raise ConfigError("steps must stay inside the mixture range (0, 1]")

    f0 = value_fn(base)
    diffs = [
        (value_fn(mix(SubmodelMix(base, direction, h))) - f0) / h for h in grid
    ]
    fd = diffs[0] if len(diffs) == 1 else _extrapolate_to_zero(grid, diffs)
    integral = eif_integral(functional, base, direction)
    return CheckReport(functional, fd, integral, abs(fd - integral), grid)


def eif_integral(functional: str, dist: FiniteDistribution, weights: FiniteDistribution) -> float:
    """Sum over the atoms of ``weights`` of mass times the influence function under ``dist``.

    Equal, term by term, to ``math.fsum(p * eif(obs, dist) for obs, p in
    weights.atoms)`` with ``eif`` the functional's ``eif_psi``/``eif_theta``,
    and raising as that sum would.  With ``weights`` = ``dist`` it is the
    influence function's mean, zero up to rounding.
    """
    try:
        value = _FUNCTIONALS[functional](dist)
    except KeyError:
        raise ConfigError(f"unknown functional {functional!r}") from None
    table, atoms = dist.support_table, weights.support_table
    try:
        rows = np.array([table.index[w] for w in atoms.strata], dtype=np.int64)
    except KeyError as err:
        raise ZeroMassConditioning(f"covariate value {err.args[0]} outside the support") from None
    rows = rows[atoms.atom_stratum]
    eif = _influence(functional, atoms.atom_a, atoms.atom_y, table.q[rows], table.g[rows],
                     value, dist.pr_a1)
    return math.fsum((atoms.atom_p * eif).tolist())


# ---------------------------------------------------------------------------
# serialization


def distribution_to_dict(dist: FiniteDistribution) -> dict:
    """JSON-ready atom table: {"atoms": [{"w": [...], "a": 0|1, "y": ..., "p": ...}]}."""
    return {
        "atoms": [
            {"w": list(obs.w), "a": obs.a, "y": obs.y, "p": p}
            for obs, p in dist.atoms
        ]
    }


def distribution_from_dict(doc: dict) -> FiniteDistribution:
    """Parse and fully validate the atom-table schema."""
    if not isinstance(doc, dict) or "atoms" not in doc:
        raise InvalidDistribution('distribution document must have an "atoms" key')
    entries = doc["atoms"]
    if not isinstance(entries, list):
        raise InvalidDistribution('"atoms" must be a list')
    atoms = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InvalidDistribution(f"atom {i} is not an object")
        missing = {"w", "a", "y", "p"} - set(entry)
        if missing:
            raise InvalidDistribution(f"atom {i} missing fields {sorted(missing)}")
        w, a = entry["w"], entry["a"]
        # JSON numbers only: a string or a bool is no number here
        if not (_is_real(w) or isinstance(w, list) and all(map(_is_real, w))):
            raise InvalidDistribution(f"atom {i}: 'w' must be a finite number or a list "
                                      f"of them, got {w!r}")
        if type(a) is not int or a not in (0, 1):
            raise InvalidDistribution(f"atom {i}: 'a' must be the integer 0 or 1, got {a!r}")
        for key in ("y", "p"):
            if not _is_real(entry[key]):
                raise InvalidDistribution(f"atom {i}: {key!r} must be a finite number, "
                                          f"got {entry[key]!r}")
        atoms.append((Observation(w, a, entry["y"]), entry["p"]))
    return FiniteDistribution(atoms)


def load_distribution(path) -> FiniteDistribution:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read distribution file {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: distribution file is not UTF-8 ({err})") from None
    except json.JSONDecodeError as err:
        raise InvalidDistribution(f"{path}: not valid JSON ({err})") from err
    return distribution_from_dict(doc)


def save_distribution(dist: FiniteDistribution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(distribution_to_dict(dist), fh, indent=2, sort_keys=True)
        fh.write("\n")
