"""Exact computation on finite-support joint laws of (W, A, Y).

Everything downstream (remainder identities, error decompositions, the
derivative check) rests on this module doing *exact* arithmetic: atoms are
keyed by their exact float values, conditional means and propensities are
ratios of exactly-summed masses, and every expectation is a compensated sum
(``_fsum``, over ``math.fsum``) of array terms.  No tolerance-based merging
of nearby atoms is ever performed.

Support table
-------------
A law is its ``SupportTable``, built by ``_law`` when the law is made:
the atoms sorted by (w, a, y), with their covariates, a, y, p and stratum,
and per covariate stratum Pr(W=w), Pr(W=w, A=0), Pr(W=w, A=1), q and g.
The public constructor, ``mix``, the quadrature tables and the empirical
law all hand ``_law`` arrays.  Stratum sums add their atoms' terms in atom
order, as a running sum does.  ``FiniteDistribution.atoms``, the
(Observation, mass) pairs, is built on first use.  The exact routines pass
array terms to ``_fsum``, exactly rounded whatever the order.

Parameters of interest
----------------------
``psi_of``
    Mean of the untreated-outcome regression over the covariate marginal,
    E{ E(Y | W, A=0) }.
``theta_of``
    Same regression averaged over the covariate law among the treated,
    E{ E(Y | W, A=0) | A=1 }.

Their influence functions (``eif_psi``, ``eif_theta``) are closed-form and
mean zero.  ``_influence`` is their one array form: the scalar influence
functions, the one-step estimators, the exact remainders, the error
decomposition and ``eif_integral`` all evaluate it.
``pathwise_derivative_check`` verifies the gradient property of the
influence function along mixture paths toward a direction distribution
by Richardson-extrapolated one-sided differencing.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InvalidDistribution,
    NoTreatedMass,
    NonFiniteNumber,
    PositivityViolation,
    SupportViolation,
    ZeroMassConditioning,
)
from .learners import _is_list_of, _is_real

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


def _fsum(terms: np.ndarray) -> float:
    """Exactly rounded sum of an array of terms; NonFiniteNumber if a term or the sum is not."""
    if not np.isfinite(terms).all():
        raise NonFiniteNumber("an exact sum met a term that is not finite (an overflow)")
    try:
        return math.fsum(terms.tolist())
    except OverflowError:
        raise NonFiniteNumber("an exact sum overflowed") from None


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
    """One law as arrays: its atoms sorted by (w, a, y), and its covariate
    strata in that order, each keyed by its first atom's covariates (-0.0
    and 0.0 are one value).  ``q`` is NaN on a stratum without untreated mass."""

    strata: tuple             # covariate keys
    index: dict               # covariate key -> stratum row
    w: np.ndarray             # (strata, d) covariate matrix
    pw: np.ndarray            # Pr(W = w)
    pw0: np.ndarray           # Pr(W = w, A = 0)
    pw1: np.ndarray           # Pr(W = w, A = 1)
    q: np.ndarray             # E(Y | W = w, A = 0)
    g: np.ndarray             # Pr(A = 0 | W = w)
    atom_w: np.ndarray        # (atoms, d) each atom's covariates
    atom_stratum: np.ndarray  # each atom's stratum row
    atom_a: np.ndarray
    atom_y: np.ndarray
    atom_p: np.ndarray
    pr_a1: float              # Pr(A = 1)


def _key_order(w, *keys):
    """The stable order of the rows (w, *keys) by key, as tuples compare
    (-0.0 equals 0.0), and per sorted row whether its w, and whether its
    whole key, differ from the row before."""
    order = np.lexsort((*keys[::-1], *w.T[::-1]))
    w = w[order]
    new_w = np.ones(len(order), dtype=bool)
    new_w[1:] = (w[1:] != w[:-1]).any(axis=1)
    new_key = new_w.copy()
    for column in keys:
        column = column[order]
        new_key[1:] |= column[1:] != column[:-1]
    return order, new_w, new_key


def _match(ref, query) -> np.ndarray:
    """The row of the distinct rows ``ref`` holding each row of ``query``, or -1;
    both are (w, *keys) array tuples.  A stable sort puts a ref row first in its key's run."""
    n, m = len(ref[0]), len(query[0])
    if ref[0].shape[1] != query[0].shape[1]:
        return np.full(m, -1)
    order, _, new_key = _key_order(*(np.concatenate(pair) for pair in zip(ref, query)))
    first = order[np.maximum.accumulate(np.where(new_key, np.arange(n + m), 0))]
    rows = np.empty(m, dtype=np.int64)
    rows[order[order >= n] - n] = np.where(first < n, first, -1)[order >= n]
    return rows


def _law(w, a, y, p) -> FiniteDistribution:
    """The law of the atoms (w[i], a[i], y[i]) with masses p[i], ``w`` (atoms, d); raises
    InvalidDistribution for a non-finite outcome, a mass outside (0, 1], a duplicate
    atom or masses that do not sum to one."""
    bad = np.flatnonzero(~(np.isfinite(y) & (p > 0.0) & (p <= 1.0)))
    if bad.size:
        i = bad[0]
        raise InvalidDistribution(f"atom mass {p[i].item()!r} outside (0, 1]" if np.isfinite(y[i])
                                  else f"outcome must be finite, got {y[i].item()!r}")
    order, new_w, new_key = _key_order(w, a, y)
    w, a, y, p = w[order], a[order], y[order], p[order]
    if not new_key.all():
        i = np.argmin(new_key) - 1  # the first of two equal keys
        key = (tuple(w[i].tolist()), int(a[i]), float(y[i]))
        raise InvalidDistribution(f"duplicate atom {key}")
    total = _fsum(p)
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise InvalidDistribution(f"masses sum to {total!r}, not 1")

    stratum = np.cumsum(new_w) - 1
    k = int(stratum[-1]) + 1
    # bincount adds each bin's terms in atom order; bin 2s + a is stratum s's arm a
    arm = stratum * 2 + a
    pw0, pw1 = np.bincount(arm, weights=p, minlength=2 * k).reshape(k, 2).T
    ymass0 = np.bincount(arm, weights=p * y, minlength=2 * k)[::2]
    pw = np.bincount(stratum, weights=p, minlength=k)
    strata = tuple(map(tuple, w[new_w].tolist()))
    table = SupportTable(
        strata=strata, index={key: i for i, key in enumerate(strata)}, w=w[new_w],
        pw=pw, pw0=pw0, pw1=pw1,
        q=np.divide(ymass0, pw0, out=np.full(k, np.nan), where=pw0 != 0.0), g=pw0 / pw,
        atom_w=w, atom_stratum=stratum, atom_a=a, atom_y=y, atom_p=p,
        pr_a1=_fsum(p[a == 1]),
    )
    for column in table[2:-1]:
        column.setflags(write=False)
    law = FiniteDistribution.__new__(FiniteDistribution)
    law.support_table = table
    return law


class FiniteDistribution:
    """Joint law of (W, A, Y) supported on finitely many atoms.

    Parameters
    ----------
    atoms : iterable of (Observation, mass) or ((w, a, y), mass)
        Masses must be in (0, 1] and sum to one within ``MASS_TOLERANCE``.
        Atoms must be distinct by exact (w, a, y) key.

    Notes
    -----
    The constructor builds ``support_table``, sorted by key so every sum
    runs in one canonical order.  ``atoms`` is cached on first use
    (idempotent, so benign under concurrent reads).
    """

    def __init__(self, atoms):
        observations, masses = [], []
        for entry in atoms:
            try:
                obs, p = entry
                obs = obs if isinstance(obs, Observation) else Observation(*obs)
            except (TypeError, ValueError) as err:
                raise InvalidDistribution(
                    f"atom entry {entry!r} is not an (observation, mass) pair "
                    "with a (w, a, y) observation"
                ) from err
            try:
                masses.append(float(p))
            except (TypeError, ValueError) as err:
                raise InvalidDistribution(f"atom mass {p!r} is not numeric") from err
            observations.append(obs)
        if not observations:
            raise InvalidDistribution("distribution needs at least one atom")
        d = sorted({len(obs.w) for obs in observations})
        if len(d) > 1:
            raise InvalidDistribution(f"covariate vectors must share one dimension, got lengths {d}")
        w, a, y = zip(*(obs.key for obs in observations))
        self.support_table = _law(np.array(w), np.array(a, dtype=np.int64), np.array(y),
                                  np.array(masses)).support_table

    # -- support access ----------------------------------------------------

    @functools.cached_property
    def atoms(self) -> tuple:
        """The (Observation, mass) pairs in atom order, built on first use."""
        t = self.support_table
        return tuple((Observation(w, a, y), p) for w, a, y, p in zip(
            t.atom_w.tolist(), t.atom_a.tolist(), t.atom_y.tolist(), t.atom_p.tolist()))

    @property
    def w_support(self) -> tuple:
        """Covariate values carrying positive mass, in canonical order."""
        return self.support_table.strata

    def mass_of(self, obs) -> float:
        """Mass of an exact atom (Observation or (w, a, y) triple); 0.0 if absent."""
        if not isinstance(obs, Observation):
            obs = Observation(*obs)
        t = self.support_table
        row = _match((t.atom_w, t.atom_a, t.atom_y),
                     (np.array([obs.w]), np.array([obs.a]), np.array([obs.y])))[0]
        return 0.0 if row < 0 else t.atom_p[row].item()

    def w_mass(self, w) -> float:
        i = self.support_table.index.get(_canonical_w(w))
        return 0.0 if i is None else self.support_table.pw[i].item()

    @property
    def pr_a1(self) -> float:
        """Marginal treated probability Pr(A = 1)."""
        return self.support_table.pr_a1

    def __len__(self):
        return len(self.support_table.atom_p)

    def __repr__(self):
        return f"FiniteDistribution({len(self)} atoms, {len(self.w_support)} covariate values)"


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
    t = dist.support_table
    i = t.index.get(key)
    if i is None or t.pw0[i] == 0.0:
        raise ZeroMassConditioning(f"Pr(W={key}, A=0) = 0; E(Y | W=w, A=0) undefined")
    return t.q[i].item()


def g_of(dist: FiniteDistribution, w) -> float:
    """Untreated propensity Pr(A = 0 | W = w)."""
    key = _canonical_w(w)
    i = dist.support_table.index.get(key)
    if i is None:
        raise ZeroMassConditioning(f"Pr(W={key}) = 0; Pr(A=0 | W=w) undefined")
    return dist.support_table.g[i].item()


def psi_of(dist: FiniteDistribution) -> float:
    """Mean untreated outcome E{ E(Y | W, A=0) } by exact summation.

    Raises
    ------
    PositivityViolation
        If some covariate value has positive mass but zero untreated mass.
    """
    t = dist.support_table
    if (t.pw0 == 0.0).any():
        i = np.argmax(t.pw0 == 0.0)
        raise PositivityViolation(f"covariate value {t.strata[i]} has mass {t.pw[i].item()!r} "
                                  f"but no untreated mass")
    return _fsum(t.pw * t.q)


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
    t = dist.support_table
    if t.pr_a1 == 0.0:
        raise NoTreatedMass("Pr(A=1) = 0; treated-conditional mean undefined")
    treated = t.pw1 > 0.0
    missing = np.flatnonzero(treated & (t.pw0 == 0.0))
    if missing.size:
        raise PositivityViolation(f"covariate value {t.strata[missing[0]]} is reachable under "
                                  f"A=1 but has no untreated mass")
    return _fsum(t.pw1[treated] / t.pr_a1 * t.q[treated])


# ---------------------------------------------------------------------------
# influence functions


def eif_psi(o: Observation, dist: FiniteDistribution) -> float:
    """Influence function of ``psi_of`` at observation ``o`` under ``dist``.

        I(a=0)/g(w) * (y - q(w)) + q(w) - psi

    The observation must lie in the covariate support of ``dist``.
    """
    return _eif_at("psi", o, dist)


def eif_theta(o: Observation, dist: FiniteDistribution) -> float:
    """Influence function of ``theta_of`` at ``o`` under ``dist``.

        I(a=0)/Pr(A=1) * (1-g)/g * (y - q)  +  I(a=1)/Pr(A=1) * (q - theta)
    """
    return _eif_at("theta", o, dist)


def _eif_at(functional: str, o: Observation, dist: FiniteDistribution) -> float:
    # the influence function integrated against the point mass at o
    one = np.ones(1)
    return eif_integral(functional, dist, _law(np.array([o.w]), np.array([o.a]), o.y * one, one))


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
    # select, not multiply by I(a=0): 0 * inf would turn an overflow in the
    # other arm's term into NaN.  np.where evaluates both arms, so an overflow
    # in the discarded one is silenced; one the result keeps is refused by
    # every exact sum (_fsum) and by the CLI's JSON output
    untreated = a == 0
    with np.errstate(over="ignore", invalid="ignore"):
        if estimand == "psi":
            return np.where(untreated, (y - q) / g, 0.0) + q - centre
        return np.where(untreated, (1.0 - g) / g * (y - q), q - centre) / p1


def _mean_phi(estimand: str, table: SupportTable, q, g, centre, p1) -> float:
    """The atom mean under ``table`` of the influence function with the
    per-stratum regression ``q`` and propensity ``g`` plugged in."""
    s = table.atom_stratum
    return _fsum(table.atom_p * _influence(estimand, table.atom_a, table.atom_y,
                                           q[s], g[s], centre, p1))


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
    # the base's row of each direction atom
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = float(self.e)
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"mixture weight must lie in [0, 1], got {e!r}")
        object.__setattr__(self, "e", e)
        b, d = self.base.support_table, self.direction.support_table
        rows = _match((b.atom_w, b.atom_a, b.atom_y), (d.atom_w, d.atom_a, d.atom_y))
        outside = np.flatnonzero(rows < 0)
        if outside.size:
            i = outside[0]
            key = (tuple(d.atom_w[i].tolist()), int(d.atom_a[i]), float(d.atom_y[i]))
            raise SupportViolation(f"direction atom {key} lies outside the base support")
        object.__setattr__(self, "_rows", rows)


def mix(sub: SubmodelMix) -> FiniteDistribution:
    """Materialize the mixture distribution at the submodel's weight.

    Atom masses combine exactly: (1-e)*p_base + e*p_direction over the base
    support, dropping atoms whose combined mass is zero (only possible at
    e = 1).
    """
    base = sub.base.support_table
    direction = np.zeros(len(base.atom_p))
    direction[sub._rows] = sub.direction.support_table.atom_p
    m = (1.0 - sub.e) * base.atom_p + sub.e * direction
    keep = m > 0.0
    return _law(base.atom_w[keep], base.atom_a[keep], base.atom_y[keep], m[keep])


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


def _check_estimand(estimand) -> None:
    """Raise ConfigError unless ``estimand`` is "psi" or "theta"."""
    if estimand not in ("psi", "theta"):
        raise ConfigError(f"unknown estimand {estimand!r}; use 'psi' or 'theta'")


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
    steps = DEFAULT_STEP_GRID if step_grid is None else step_grid
    if not _is_list_of(steps, _is_real):
        raise ConfigError(f"'step_grid' must be a list of finite numbers, got {step_grid!r}")
    grid = tuple(float(h) for h in steps)
    if not grid or any(h <= 0.0 for h in grid):
        raise ConfigError("'step_grid' must contain positive steps")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("'step_grid' must be strictly decreasing")
    if grid[0] > 1.0:
        raise ConfigError("'step_grid' must stay inside the mixture range (0, 1]")

    f0 = value_fn(base)
    diffs = [
        (value_fn(mix(SubmodelMix(base, direction, h))) - f0) / h for h in grid
    ]
    fd = diffs[0] if len(diffs) == 1 else _extrapolate_to_zero(grid, diffs)
    integral = eif_integral(functional, base, direction)
    return CheckReport(functional, fd, integral, abs(fd - integral), grid)


def eif_integral(functional: str, dist: FiniteDistribution, weights: FiniteDistribution) -> float:
    """Sum over the atoms of ``weights`` of mass times the influence function under ``dist``.

    With ``weights`` = ``dist`` it is the influence function's mean, zero
    up to rounding.
    """
    try:
        value = _FUNCTIONALS[functional](dist)
    except KeyError:
        raise ConfigError(f"unknown functional {functional!r}") from None
    table, atoms = dist.support_table, weights.support_table
    rows = _match((table.w,), (atoms.w,))
    off = np.flatnonzero(rows < 0)
    if off.size:
        raise ZeroMassConditioning(f"covariate value {atoms.strata[off[0]]} outside the support")
    return _mean_phi(functional, atoms, table.q[rows], table.g[rows], value, table.pr_a1)


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
        if not (_is_real(w) or _is_list_of(w, _is_real)):
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
