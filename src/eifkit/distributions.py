"""Exact computation on finite-support joint laws of (W, A, Y).

Everything downstream (remainder identities, error decompositions, the
derivative check) rests on this module doing *exact* arithmetic: atoms are
keyed by their exact float values, conditional means and propensities are
ratios of exactly-summed masses, and every expectation is a compensated sum
(``_fsum``, over ``math.fsum``) of array terms.  No tolerance-based merging
of nearby atoms is ever performed.

Support table
-------------
A law is its ``SupportTable``: the atoms sorted by (w, a, y), with their
covariates, a, y, p and stratum, and per covariate stratum Pr(W=w),
Pr(W=w, A=0), Pr(W=w, A=1), q and g.  ``_law`` checks and sorts atoms and
``_tabulate`` builds the table from sorted, distinct ones and the marks of
where their w changes; the quadrature tables and the empirical law hand
``_law`` arrays.  A mixture path (``_path``, behind ``mix`` and the
derivative check) aligns its direction once and tabulates each point on the
base's sorted atoms, a stratum starting where the base's does.  Values from
outside (the constructor, ``distribution_from_dict``, ``Observation``,
``mass_of`` and the scalar lookups) first pass one validator, ``_columns``,
which owns the rule for each atom field (w, a, y, p) and checks a column at
a time; ``_law`` keeps the mass range and duplicate checks, and
``_tabulate`` the total.  ``_match`` answers every exact lookup of a
covariate vector or an atom in a table, so one routine decides when two
keys are equal (-0.0 equals 0.0); ``_strata_rows`` is every lookup of
covariate strata that refuses an absent vector, each with its message.
Stratum sums add their atoms' terms in atom order, as a running sum does.
``FiniteDistribution.atoms``, the (Observation, mass) pairs, is built
unchecked on first use.  The exact routines pass array terms to ``_fsum``,
exactly rounded whatever the order.

Parameters of interest
----------------------
``psi_of``
    Mean of the untreated-outcome regression over the covariate marginal,
    E{ E(Y | W, A=0) }.
``theta_of``
    Same regression averaged over the covariate law among the treated,
    E{ E(Y | W, A=0) | A=1 }.

Both are weighted means N/D of q: N = E[m q(W)] and D = E[m], with m = 1
for psi and m = A for theta.  The estimand table ``_ESTIMANDS`` holds a
row per estimand, which every estimand-dependent step reads: m,
h(W) = E[m | W] (1, or 1 - g), D (1, or Pr(A=1)) and its sample estimate
(1, or P_n(A)).  By the product and quotient rules both influence
functions are [I(a=0) h/g (y - q) + m (q - N/D)] / D.  A row keeps its own
float form where one shared formula would round differently: the
influence arrays (psi divides y - q by g, theta multiplies it by (1-g)/g)
and the remainder's closed form with its terms and bound.  The value, the
plug-in and a report's centring are shared; psi's factors of 1 are exact.
The public psi/theta pairs here and in the other modules are one-line
wrappers.

``_influence`` is the one array form of the influence functions: the
scalar influence functions, the one-step estimators, the exact
remainders, the error decomposition and ``eif_integral`` all evaluate it.
``pathwise_derivative_check`` verifies the gradient property of the
influence function along mixture paths toward a direction distribution
by Richardson-extrapolated one-sided differencing; ``mix(base, direction,
e)`` is the law (1-e)*base + e*direction on such a path, for a direction
supported inside the base.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InvalidDistribution,
    NoTreatedMass,
    NoTreatedRows,
    NonFiniteNumber,
    PositivityViolation,
    SupportViolation,
    ZeroMassConditioning,
)
from .learners import _is_int, _is_list_of, _is_real

__all__ = [
    "Observation",
    "FiniteDistribution",
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
# q's one message where it is undefined, formatted with the covariate vector
_Q_UNDEFINED = "Pr(W={}, A=0) = 0; E(Y | W=w, A=0) undefined"
DEFAULT_STEP_GRID = (1e-3, 5e-4)


def _fsum(terms: np.ndarray) -> float:
    """Exactly rounded sum of an array of terms; NonFiniteNumber if a term or the sum is not."""
    if not np.isfinite(terms).all():
        raise NonFiniteNumber("an exact sum met a term that is not finite (an overflow)")
    try:
        return math.fsum(terms.tolist())
    except OverflowError:
        raise NonFiniteNumber("an exact sum overflowed") from None


def _all_numbers(values, kind=numbers.Real) -> bool:
    """Whether every item is a ``kind`` number and no bool, tested once per distinct type."""
    return all(issubclass(t, kind) and t is not bool for t in set(map(type, values)))


def _w_row(x):
    """One atom's w as a list or tuple of its entries: a 1-d array as a list, a value
    that is no list or tuple as a 1-tuple, and an empty w as (None,), which no rule passes."""
    if isinstance(x, np.ndarray) and x.ndim == 1:
        x = x.tolist()
    return (x or (None,)) if isinstance(x, (list, tuple)) else (x,)


# each atom field's rule, as its message states it and as a test of one value
_RULES = {"w": ("a finite number or a non-empty list of them",
                lambda x: all(map(_is_real, _w_row(x)))),
          "a": ("the integer 0 or 1, a treatment code", lambda x: _is_int(x) and x in (0, 1)),
          "y": ("a finite number", _is_real), "p": ("a finite number", _is_real)}


def _columns(w, a=None, y=None, p=None, row="atom {}: "):
    """The arrays ``_law`` takes, w (atoms, d), int a, y and p (None stays None),
    once each value passes its field's rule in ``_RULES`` and every w has one
    length.  Types are tested once per distinct type; a failure names the first
    atom that breaks the rule, prefixed by ``row`` formatted with its index."""
    def check(name, column, passes):
        if not passes:
            rule, ok = _RULES[name]
            i = next(i for i, x in enumerate(column) if not ok(x))
            raise InvalidDistribution(f"{row.format(i)}{name!r} must be {rule}, got {column[i]!r}")

    def floats(name, column, rows, values):
        check(name, column, _all_numbers(values))
        try:
            out = np.array(rows, dtype=float)
        except OverflowError:  # an int beyond the float range, which the rule refuses
            check(name, column, False)
        except ValueError:  # w rows of unequal lengths
            raise InvalidDistribution(f"covariate vectors must share one dimension, got lengths "
                                      f"{sorted(set(map(len, rows)))}") from None
        check(name, column, np.isfinite(out).all())
        return out

    if not len(w):
        raise InvalidDistribution("distribution needs at least one atom")
    # lists and tuples, the usual case, need no _w_row pass: only the empty check
    rows = w if set(map(type, w)) <= {tuple, list} else list(map(_w_row, w))
    check("w", w, all(rows))
    w = floats("w", w, rows, itertools.chain.from_iterable(rows))
    if a is not None:
        check("a", a, _all_numbers(a, numbers.Integral) and set(a) <= {0, 1})
        a = np.array(a, dtype=np.int64)
    y, p = (c if c is None else floats(name, c, c, c) for name, c in (("y", y), ("p", p)))
    return w, a, y, p


@dataclass(frozen=True)
class Observation:
    """One support point (w, a, y), checked by the atom rule of ``_columns``: ``w``
    becomes a tuple of floats, so atoms compare by exact value, ``a`` an int, ``y`` a float."""

    w: tuple
    a: int
    y: float

    def __post_init__(self):
        w, a, y, _ = _columns([self.w], [self.a], [self.y], row="")
        self._set(tuple(w[0].tolist()), a.item(), y.item())

    def _set(self, w: tuple, a: int, y: float) -> "Observation":
        """Store checked values and return self: on ``object.__new__(Observation)``, the
        constructor without its checks.  Field by field, as the frozen __init__ does; a
        ``__dict__`` update would give each Observation its own dict, about 150 bytes more."""
        for name, value in (("w", w), ("a", a), ("y", y)):
            object.__setattr__(self, name, value)
        return self

    @property
    def key(self):
        return (self.w, self.a, self.y)


class SupportTable(NamedTuple):
    """One law as arrays: its atoms sorted by (w, a, y), and its covariate
    strata in that order, each keyed by its first atom's covariates (-0.0
    and 0.0 are one value).  ``q`` is NaN on a stratum without untreated mass."""

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
    if m == 1:  # one probe: ref rows compared with it by ==, a column at a time, unsorted
        hit = np.ones(n, dtype=bool)
        for column, value in zip((*ref[0].T, *ref[1:]), (*query[0][0], *(k[0] for k in query[1:]))):
            hit &= column == value
        return np.append(np.flatnonzero(hit), -1)[:1]
    order, _, new_key = _key_order(*(np.concatenate(pair) for pair in zip(ref, query)))
    first = order[np.maximum.accumulate(np.where(new_key, np.arange(n + m), 0))]
    rows = np.empty(m, dtype=np.int64)
    rows[order[order >= n] - n] = np.where(first < n, first, -1)[order >= n]
    return rows


def _strata_rows(table: SupportTable, w: np.ndarray, message: str, column=None) -> np.ndarray:
    """The stratum row of ``table`` holding each covariate row of ``w`` (no search
    when ``w`` is the table's own strata), or, given ``column``, its value there.
    ZeroMassConditioning(message.format(row)) names the first row of ``w`` outside
    the support, or where ``column`` is NaN (undefined)."""
    whole = w.shape == table.w.shape and np.array_equal(w, table.w)
    rows = np.arange(len(w)) if whole else _match((table.w,), (w,))
    out = rows if column is None else column[rows]
    bad = np.flatnonzero((rows < 0) | np.isnan(out))
    if bad.size:
        raise ZeroMassConditioning(message.format(tuple(w[bad[0]].tolist())))
    return out


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
    return _tabulate(w, a, y, p, new_w)


def _tabulate(w, a, y, p, new_w) -> FiniteDistribution:
    """The law of checked atoms, already sorted by (w, a, y) and distinct: ``new_w``
    marks each atom whose w differs from the atom before.  InvalidDistribution if
    the masses do not sum to one."""
    total = _fsum(p)
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise InvalidDistribution(f"masses sum to {total!r}, not 1")
    sw, stratum = w[new_w], np.cumsum(new_w) - 1
    k = len(sw)
    # bincount adds each bin's terms in atom order; bin 2s + a is stratum s's arm a
    arm = stratum * 2 + a
    pw0, pw1 = np.bincount(arm, weights=p, minlength=2 * k).reshape(k, 2).T
    ymass0 = np.bincount(arm, weights=p * y, minlength=2 * k)[::2]
    pw = np.bincount(stratum, weights=p, minlength=k)
    table = SupportTable(
        w=sw, pw=pw, pw0=pw0, pw1=pw1,
        q=np.divide(ymass0, pw0, out=np.full(k, np.nan), where=pw0 != 0.0), g=pw0 / pw,
        atom_w=w, atom_stratum=stratum, atom_a=a, atom_y=y, atom_p=p,
        pr_a1=_fsum(p[a == 1]),
    )
    for column in table[:-1]:
        column.setflags(write=False)
    law = FiniteDistribution.__new__(FiniteDistribution)
    law.support_table = table
    return law


class FiniteDistribution:
    """Joint law of (W, A, Y) supported on finitely many atoms.

    Parameters
    ----------
    atoms : iterable of (Observation, mass) or ((w, a, y), mass)
        Each atom's values pass ``_columns``, the rule distribution files
        follow too.  Masses must be in (0, 1] and sum to one within
        ``MASS_TOLERANCE``, and atoms be distinct by exact (w, a, y) key.

    Notes
    -----
    The constructor builds ``support_table``, sorted by key so every sum
    runs in one canonical order.  ``atoms`` is cached on first use
    (idempotent, so benign under concurrent reads).
    """

    def __init__(self, atoms):
        keys, p = [], []
        for entry in atoms:
            try:
                obs, mass = entry
                w, a, y = key = obs.key if isinstance(obs, Observation) else obs
            except (TypeError, ValueError) as err:
                raise InvalidDistribution(f"atom entry {entry!r} is not an (observation, mass) "
                                          "pair with a (w, a, y) observation") from err
            keys.append(key)
            p.append(mass)
        # no atoms: an empty w, which _columns refuses
        self.support_table = _law(*_columns(*(zip(*keys) if keys else [()]), p)).support_table

    # -- support access ----------------------------------------------------

    @functools.cached_property
    def atoms(self) -> tuple:
        """The (Observation, mass) pairs in atom order, built unchecked on first use."""
        t = self.support_table
        new = functools.partial(object.__new__, Observation)
        return tuple((new()._set(w, a, y), p) for w, a, y, p in zip(
            map(tuple, t.atom_w.tolist()), t.atom_a.tolist(), t.atom_y.tolist(),
            t.atom_p.tolist()))

    @functools.cached_property
    def w_support(self) -> tuple:
        """Covariate values carrying positive mass, in canonical order."""
        return tuple(map(tuple, self.support_table.w.tolist()))

    def mass_of(self, obs) -> float:
        """Mass of an exact atom (Observation or (w, a, y) triple); 0.0 if absent."""
        try:
            w, a, y = obs.key if isinstance(obs, Observation) else obs
        except (TypeError, ValueError) as err:
            raise InvalidDistribution(f"{obs!r} is not a (w, a, y) observation") from err
        t = self.support_table
        i = _match((t.atom_w, t.atom_a, t.atom_y), _columns([w], [a], [y], row="")[:3]).item()
        return 0.0 if i < 0 else t.atom_p[i].item()

    def w_mass(self, w) -> float:
        i = _match((self.support_table.w,), _columns([w], row="")[:1]).item()
        return 0.0 if i < 0 else self.support_table.pw[i].item()

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
    return _at(dist, w, dist.support_table.q, _Q_UNDEFINED)


def g_of(dist: FiniteDistribution, w) -> float:
    """Untreated propensity Pr(A = 0 | W = w)."""
    return _at(dist, w, dist.support_table.g, "Pr(W={}) = 0; Pr(A=0 | W=w) undefined")


def _at(dist: FiniteDistribution, w, column: np.ndarray, message: str) -> float:
    """``column`` at the stratum of the covariate vector ``w``, checked by the atom rule."""
    return _strata_rows(dist.support_table, _columns([w], row="")[0], message, column).item()


# ---------------------------------------------------------------------------
# the estimand table


def _psi_phi(arm, a, q, g, centre, share):  # I(a=0) (y - q)/g + q - centre
    out = _bit_select(a, np.divide(arm, g, out=arm))
    return np.subtract(np.add(out, q, out=out), centre, out=out)


def _theta_phi(arm, a, q, g, centre, share):  # (I(a=0) (1-g)/g (y-q) + I(a=1) (q-centre)) / share
    h = np.subtract(1.0, g)
    out = _bit_select(a, np.multiply(np.divide(h, g, out=h), arm, out=arm), np.subtract(q, centre))
    return np.divide(out, share, out=out)


def _psi_closed(t, qh, gh, truth, hat, share):  # -E[(g - ghat)(q - qhat) / ghat]
    return -_fsum(t.pw * (t.g - gh) * (t.q - qh) / gh), None, float(np.max(1.0 / gh)), 0.0


def _theta_closed(t, qh, gh, truth, hat, share):  # s1, s2, s3 of decomposition's docstring
    s1 = -_fsum(t.pw * (t.g - gh) / gh * (1.0 - gh) * (t.q - qh)) / share
    s2 = -_fsum(t.pw * (gh - t.g) * (qh - t.q)) / share
    s3 = -(t.pr_a1 - share) / share * (truth - hat)
    factor = (float(np.max((1.0 - gh) / gh)) + 1.0) / share
    return s1 + s2 + s3, {"s1": s1, "s2": s2, "s3": s3}, factor, abs(s3)


class _Estimand(NamedTuple):
    """One row of the estimand table (module docstring): m = A when ``treated``,
    else m = 1; ``phi`` and ``closed_form`` are its float forms."""

    treated: bool
    unreached: str
    phi: Callable
    closed_form: Callable

    def m(self, a):  # theta's 0/1 floats, psi's scalar 1.0: centring psi costs no pass
        return (a == 1).astype(float) if self.treated else 1.0

    def h(self, g):
        return np.subtract(1.0, g) if self.treated else 1.0

    def denominator(self, t: SupportTable) -> float:
        return t.pr_a1 if self.treated else 1.0

    def share(self, a) -> float:  # D on a sample, P_n(A) for theta: NoTreatedRows at 0
        if self.treated and not (a == 1).any():
            raise NoTreatedRows("treated-mean estimand needs a treated row for P_n(A)")
        return float(np.mean(a)) if self.treated else 1.0


_ESTIMANDS = {
    "psi": _Estimand(False, "has mass {mass!r} but no untreated mass", _psi_phi, _psi_closed),
    "theta": _Estimand(True, "is reachable under A=1 but has no untreated mass", _theta_phi,
                       _theta_closed),
}


def _estimand(name) -> _Estimand:
    """The table row of ``name``; ConfigError unless it is "psi" or "theta"."""
    if not (isinstance(name, str) and name in _ESTIMANDS):
        raise ConfigError(f"unknown estimand {name!r}; use {' or '.join(map(repr, _ESTIMANDS))}")
    return _ESTIMANDS[name]


def _value(estimand: str, dist: FiniteDistribution) -> float:
    """N/D for ``estimand`` under ``dist``, summed exactly over the strata m reaches;
    NoTreatedMass if D = 0, PositivityViolation if one of them has no untreated mass."""
    row, t = _estimand(estimand), dist.support_table
    d, mass = _positive(row.denominator(t)), t.pw1 if row.treated else t.pw  # E[m; W = w]
    reached = mass > 0.0
    missing = np.flatnonzero(reached & (t.pw0 == 0.0))
    if missing.size:
        raise PositivityViolation(f"covariate value {dist.w_support[missing[0]]} "
                                  + row.unreached.format(mass=t.pw[missing[0]].item()))
    return _fsum(mass[reached] / d * t.q[reached])


def _positive(d: float) -> float:
    """The estimand's D = E[m], refused with NoTreatedMass when it is 0 (Pr(A=1) = 0)."""
    if d <= 0.0:
        raise NoTreatedMass("Pr(A=1) = 0; treated-conditional mean undefined")
    return d


def psi_of(dist: FiniteDistribution) -> float:
    """Mean untreated outcome E{ E(Y | W, A=0) } by exact summation;
    PositivityViolation if some covariate value has no untreated mass."""
    return _value("psi", dist)


def theta_of(dist: FiniteDistribution) -> float:
    """Mean untreated outcome among the treated, E{ E(Y | W, A=0) | A=1 }; NoTreatedMass
    if Pr(A=1) = 0, PositivityViolation if a w reachable under A=1 has no untreated mass."""
    return _value("theta", dist)


# ---------------------------------------------------------------------------
# influence functions


def eif_psi(o: Observation, dist: FiniteDistribution) -> float:
    """Influence function of ``psi_of`` at ``o`` under ``dist``, whose covariate
    support holds o's: I(a=0)/g(w) * (y - q(w)) + q(w) - psi."""
    return _eif_at("psi", o, dist)


def eif_theta(o: Observation, dist: FiniteDistribution) -> float:
    """Influence function of ``theta_of`` at ``o`` under ``dist``:
    (I(a=0) * (1-g)/g * (y - q) + I(a=1) * (q - theta)) / Pr(A=1)."""
    return _eif_at("theta", o, dist)


def _eif_at(functional: str, o: Observation, dist: FiniteDistribution) -> float:
    # the influence function integrated against the point mass at o
    one = np.ones(1)
    return eif_integral(functional, dist, _law(np.array([o.w]), np.array([o.a]), o.y * one, one))


def _influence(estimand: str, a, y, q, g, centre, share):
    """The influence function of ``estimand`` over rows (a, y) in its row's float form,
    with regression ``q``, propensity ``g``, value ``centre`` and D estimated by ``share``."""
    # select, not multiply by I(a=0): 0 * inf would turn an overflow in the
    # other arm's term into NaN.  Both arms are evaluated, so an overflow in
    # the discarded one is silenced; one the result keeps is refused by every
    # exact sum (_fsum) and by the CLI's JSON output.  The select copies bits:
    # np.where on a random mask costs about 4 ns a row, an arithmetic pass
    # 0.25-0.5 ns (80-85 us against 5-10 us at 20 000 rows on an Intel Xeon)
    with np.errstate(over="ignore", invalid="ignore"):
        return _ESTIMANDS[estimand].phi(np.subtract(y, q), a, q, g, centre, share)


def _bit_select(a, untreated, treated=None):
    """np.where(a == 0, untreated, treated) for the int64 0/1 code ``a`` and
    float64 arms, written into ``treated``; without it the treated arm is
    +0.0, written into ``untreated``.  On int64 views it is
    untreated ^ ((untreated ^ treated) & -a): bits are copied, never
    computed, so NaN, inf and -0.0 pass or drop as np.where has them."""
    u = untreated.view(np.int64)
    if treated is None:
        np.bitwise_and(u, a - 1, out=u)
        return untreated
    t = treated.view(np.int64)
    np.bitwise_xor(t, u, out=t)
    np.bitwise_and(t, np.negative(a), out=t)
    np.bitwise_xor(t, u, out=t)
    return treated


def _mean_phi(estimand: str, table: SupportTable, q, g, centre, share) -> float:
    """The atom mean under ``table`` of the influence function with the
    per-stratum regression ``q`` and propensity ``g`` plugged in."""
    s = table.atom_stratum
    return _fsum(table.atom_p * _influence(estimand, table.atom_a, table.atom_y,
                                           q[s], g[s], centre, share))


# ---------------------------------------------------------------------------
# mixture submodel


def mix(base: FiniteDistribution, direction: FiniteDistribution, e: float) -> FiniteDistribution:
    """The mixture (1-e)*base + e*direction, the point at ``e`` on the path from
    the base (e = 0) to the direction (e = 1).

    ``e`` must be a finite real number in [0, 1], not a bool or a string
    (ValueError), and the direction's support lie inside the base's
    (SupportViolation), so the path stays in the family the base dominates.
    Atom masses combine exactly over the base support, dropping atoms whose
    combined mass is zero: at e = 1, or where a subnormal mass underflows.
    """
    if not (_is_real(e) and 0.0 <= e <= 1.0):
        raise ValueError(f"mixture weight must be a number in [0, 1], got {e!r}")
    return _path(base, direction)(float(e))


def _path(base: FiniteDistribution, direction: FiniteDistribution):
    """e -> mix(base, direction, e), for a float e in [0, 1] left unchecked.  The
    support check and the alignment of the direction's atoms to the base's run
    once; every point is tabulated on the base's sorted atoms, with no sort."""
    b, d = base.support_table, direction.support_table
    rows = _match((b.atom_w, b.atom_a, b.atom_y), (d.atom_w, d.atom_a, d.atom_y))
    outside = np.flatnonzero(rows < 0)
    if outside.size:
        i = outside[0]
        key = (tuple(d.atom_w[i].tolist()), int(d.atom_a[i]), float(d.atom_y[i]))
        raise SupportViolation(f"direction atom {key} lies outside the base support")
    toward = np.zeros(len(b.atom_p))
    toward[rows] = d.atom_p

    # a kept mass lies in (0, 1]: masses are at most 1, fl(1 - e) + e rounds to at
    # most 1, and rounding is monotone
    def at(e: float) -> FiniteDistribution:
        m = (1.0 - e) * b.atom_p + e * toward
        keep = m > 0.0
        # the kept atoms stay sorted and distinct; a stratum starts where the base's changes
        s = b.atom_stratum[keep]
        return _tabulate(b.atom_w[keep], b.atom_a[keep], b.atom_y[keep], m[keep],
                         np.r_[True, s[1:] != s[:-1]])

    return at


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
    values = {f.name: getattr(report, f.name) for f in fields(report) if f.name not in omit}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items() if v is not None}


def _extrapolate_to_zero(steps: Sequence[float], values: Sequence[float]) -> float:
    # Aitken-Neville evaluation at step 0 of the polynomial through
    # (h_j, D_j).  With the default grid (h, h/2) this reduces to the
    # classical second-order combination 2*D(h/2) - D(h).
    tableau = list(values)
    for level in range(1, len(tableau)):
        tableau = [(steps[j] * tableau[j + 1] - steps[j + level] * tableau[j])
                   / (steps[j] - steps[j + level]) for j in range(len(tableau) - 1)]
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
    is mean zero under the base.  ``functional`` is "psi" or "theta", and
    ``step_grid`` a decreasing sequence of positive steps, (1e-3, 5e-4) by
    default.  The CheckReport holds both values and their absolute discrepancy.
    """
    _estimand(functional)
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

    f0 = _value(functional, base)
    path = _path(base, direction)
    diffs = [(_value(functional, path(h)) - f0) / h for h in grid]
    fd = _extrapolate_to_zero(grid, diffs)
    integral = eif_integral(functional, base, direction)
    return CheckReport(functional, fd, integral, abs(fd - integral), grid)


def eif_integral(functional: str, dist: FiniteDistribution, weights: FiniteDistribution) -> float:
    """Sum over the atoms of ``weights`` of mass times the influence function under ``dist``.

    With ``weights`` = ``dist`` it is the influence function's mean, zero
    up to rounding.
    """
    value = _value(functional, dist)
    table, atoms = dist.support_table, weights.support_table
    rows = _strata_rows(table, atoms.w, "covariate value {} outside the support")
    return _mean_phi(functional, atoms, table.q[rows], table.g[rows], value,
                     _estimand(functional).denominator(table))


# ---------------------------------------------------------------------------
# serialization


def distribution_to_dict(dist: FiniteDistribution) -> dict:
    """JSON-ready atom table: {"atoms": [{"w": [...], "a": 0|1, "y": ..., "p": ...}]}."""
    t = dist.support_table
    return {"atoms": [{"w": w, "a": a, "y": y, "p": p} for w, a, y, p in zip(
        t.atom_w.tolist(), t.atom_a.tolist(), t.atom_y.tolist(), t.atom_p.tolist())]}


def distribution_from_dict(doc: dict) -> FiniteDistribution:
    """Parse the atom-table schema: the document's shape here, the atoms' values
    by the one atom rule of ``_columns``."""
    if not isinstance(doc, dict) or "atoms" not in doc:
        raise InvalidDistribution('distribution document must have an "atoms" key')
    entries = doc["atoms"]
    if not isinstance(entries, list):
        raise InvalidDistribution('"atoms" must be a list')
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InvalidDistribution(f"atom {i} is not an object")
        missing = {"w", "a", "y", "p"} - entry.keys()
        if missing:
            raise InvalidDistribution(f"atom {i} missing fields {sorted(missing)}")
    return _law(*_columns(*([entry[key] for entry in entries] for key in "wayp")))


def load_distribution(path) -> FiniteDistribution:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read distribution file {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: distribution file is not UTF-8 ({err})") from None
    except ValueError as err:  # bad JSON, or an int literal past Python's digit limit
        raise InvalidDistribution(f"{path}: not valid JSON ({err})") from err
    return distribution_from_dict(doc)


def save_distribution(dist: FiniteDistribution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(distribution_to_dict(dist), fh, indent=2, sort_keys=True)
        fh.write("\n")
