"""Nuisance learners for the outcome regression and the untreated propensity.

A :class:`LearnerSpec` names one of a fixed set of procedures:

``linear-ols``
    Least squares with intercept and a fixed ridge jitter of 1e-8 on the
    normal equations (outcome regression only).
``logistic-irls``
    Newton / iteratively reweighted least squares for Pr(A=0 | W), at most
    100 iterations, gradient-norm tolerance 1e-10.  Each Newton candidate
    costs one matmul for its linear predictor eta and one pass of the
    negative log-likelihood in split form, max(v, 0) + log1p(exp(-|v|))
    with v = -(2z - 1) * eta; the accepted candidate's eta feeds the next
    step.  The backtracking accept test ``cand <= nll + 1e-12`` sits at
    rounding level, so a last-digit change in the likelihood can move the
    final beta by rounding.  The design [1, W] (shared with least squares)
    and the weighted design of each Hessian are C-ordered arrays written a
    column at a time: numpy copies or broadcasts into a narrow (n, d + 1)
    array row by row, about three times slower at n = 20 000 and d = 2,
    and the column passes write the same values in the same layout, so
    every matrix product, and beta, is bit-identical to the row-pass form.
    A fit makes its length-n arrays once and every Newton pass writes into
    them with ``out=``, in the ufuncs and order of the allocating form, so
    beta is bit-identical to it.
    A Gram matrix, Hessian or gradient that overflows raises
    NonFiniteNumber.
``knn``
    k-nearest-neighbour averaging, Euclidean metric, default
    k = ceil(sqrt(#fitting rows)).  The k nearest are the first k fitting
    rows by (squared distance, row index), so a tie at the k-th distance
    keeps the lower rows, and their targets are summed in that order;
    k >= #fitting rows averages every row in row order.  Through the index
    below, each query ranks its box of 3**d cells, in one vectorized pass
    whatever the call's size; a query that box cannot answer ranks the
    cells its k-th distance there reaches, and only one that this wider
    box cannot answer either ranks all rows, with the same answer bit for
    bit.
``kernel-nw``
    Nadaraya-Watson with a Gaussian product kernel; default per-covariate
    bandwidth sd(W_j) * m**(-1/5) over the m fitting rows.
``oracle-rate``
    Truth plus a deterministic perturbation c * n**(-a) * h(w); used to
    realize nuisance error rates exactly (see ``oracle_rate_nuisance``).
``misspecified-omit``
    Drops the first covariate, then fits the default parametric model
    (least squares for the outcome, IRLS for the propensity).
``misspecified-wronglink``
    Linear-probability fit of I(A=0) on W, then truncation (propensity
    only).

All propensity outputs are truncated into [eps, 1-eps]; eps defaults to
0.01.  Every fit is deterministic given its inputs and spec.

The two smoothers predict in bounded memory: query rows come in blocks of
at most KERNEL_BLOCK_PAIRS // n rows against the n fitting rows, so no
(rows, n) temporary exceeds KERNEL_BLOCK_PAIRS floats (256 KB), or one row
of n floats when n is larger, whatever the query count or dimension.
Kernel-NW is two matrix products per block, on rows centered at the
fitting rows' mean and scaled by the bandwidth: [x, 1, -|x|^2 / 2] times
[t; -|t|^2 / 2; 1] gives the exact log-weights -|x - t|^2 / 2, exp turns
them into the weights in place, and a product with [y, 1] gives numerator
and denominator.  Uncentered, that expanded form cancels on covariates
with a large mean.  A row whose denominator is not finite or below
NW_MIN_DENOMINATOR (a query more than about 35 bandwidths from every
fitting row, an overflowing |x|^2, or rounding past exp's range on rows
some 1e10 bandwidths apart) is recomputed in the row-max form, log-weights
x.t - |t|^2 / 2 less their row max, where the nearest row weighs 1, so it
degrades to a nearest-neighbour average.
A kernel-NW prediction can differ in its last bits with the other rows of
its call: numpy multiplies a one-row block by gemv and a larger one by
GEMM, and OpenBLAS picks its GEMM kernel by the block's row count (with
800 fitting rows, 389 of 400 queries differ, by at most 2.2e-15, between
one 400-row call and 400 one-row calls).  A call's rows decide its
outputs, so reruns are byte-identical; an in-sample and a per-row
prediction of one row need not be.  The linear and logistic cores (of
linear-ols, logistic-irls, the misspecified kinds and ``DGPSpec.q``/``.g``)
too: numpy forms w @ beta for one row by another routine than for many (at
d = 2 and coefficients (0.3, 1.7, -2.3), 32% of the rows of 50-row calls
differ from one-row calls, by at most 1.8e-15).  kNN predictions do not
depend on the other rows of the call.
kNN alone sums the exact squared differences (q_j - t_j)**2, in covariate
order: it ranks distances, and the expanded form, even centered, can
reorder near-tied neighbours.

kNN ranks each query's box of fitting rows through one block routine.  A
cell index buckets the rows into a uniform grid of about k / 2 rows per
cell, with KNN_MIN_AXIS_CELLS cells per axis or more (else one cell, whose
box is all rows), and serves every call: the cross-fit folds of a study
(about 800 fitting rows, 400 queries, 7 x 7 cells) and an in-sample fit at
n = 5000 (9 x 9 cells).  One routine lists the rows of every box, a
rectangle of slabs, ascending: it counts out the box's cells and gathers
their rows.  Each cell's box, the rows of its 3**d neighbouring cells, is
listed once per fit, at most KERNEL_BLOCK_PAIRS (box, row) pairs at a
time, into one flat array sized from the cells' counts: a row lies in at
most 3**d boxes, so at most 3**d * n row indices whatever the rows'
spread, and one offset per cell.  The queries, sorted by (box size, box),
rank their boxes in blocks of at most KERNEL_BLOCK_PAIRS pairs, each box
padded to the block's widest with a column of +inf, with the same squared
differences, so each distance is bit-identical to the all-rows pass; a
block's boxes add d + 1 floats per pair at most.  A block ranks
each row by integer keys, a distance's bits with the column in the low
ones, in one partition and a sort of the k + 1 least (about 15% less
time per block than selecting the float distances and argsorting the k
chosen, at box widths of 130 to 2500 on a 2-core Xeon); a block where two
of a row's k + 1 least keys share their high bits ranks by a stable
argsort of its distances, so ties keep the stated order.  A query takes
its answer from a box only when its k-th distance is strictly below
fl(gap**2), gap being the distance to the nearest fitting row outside the
box, from the rows' actual coordinate extremes per slab; rounding is
monotone, so the bound needs no slack.
A box's k-th distance bounds the true one from above, so a query whose
box fails (near the data's edge, where its box is cut off, or in a sparse
region) has its k nearest within that distance's square root on every
covariate.  Its second box is the rows of the slabs that reach spans, one
box for the failed queries of each cell, listed per call by the same
routine, at most KERNEL_BLOCK_PAIRS (box, row) pairs at a time, and
answers under the same test.  In a smoother study's shapes no query is
left after it (4% of the in-sample queries and 8% of a fold's fail their
first box); one that is, where rounding or a tie sits at the second box's
edge, ranks all rows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    DegenerateTreatment,
    InvalidLearnerSpec,
    IrlsDivergence,
    NonFiniteNumber,
    NoUntreatedRows,
    SingularDesign,
)

__all__ = [
    "Dataset",
    "LearnerSpec",
    "FittedNuisance",
    "fit_outcome",
    "fit_propensity",
    "fit_nuisance",
    "oracle_rate_nuisance",
    "truncate_propensity",
]

RIDGE_JITTER = 1e-8
IRLS_MAX_ITER = 100
IRLS_GRADIENT_TOL = 1e-10
DEFAULT_TRUNCATION = 0.01
# query rows x fitting rows per smoother block.  Each (rows, n) float
# temporary is then at most 256 KB, so a block's few temporaries stay in a
# core's L2 cache; on a Xeon with 2 MB of L2 per core, 2 MB blocks
# (1 << 18) ran the kernels 1.6-1.9x slower.
KERNEL_BLOCK_PAIRS = 1 << 15
# a kernel-NW denominator at least this large keeps its largest weight in
# the normal range, and a weight rounded to a subnormal then errs by less
# than 2**-174 of it; a smaller one (a query more than about 35 bandwidths
# from every fitting row) is recomputed in the row-max form
NW_MIN_DENOMINATOR = 2.0 ** -900
# kNN cell index: at least this many cells per axis (a query's box then
# holds at most (3/4)**d of the rows)
KNN_MIN_AXIS_CELLS = 4

# each kind: the sides it fits (q the outcome regression, g the propensity)
# and the LearnerSpec fields it reads, truncation for every kind fitting g
_KINDS = {
    "linear-ols": ("q", ()),
    "logistic-irls": ("g", ("truncation",)),
    "knn": ("qg", ("k", "truncation")),
    "kernel-nw": ("qg", ("bandwidth", "truncation")),
    "misspecified-omit": ("qg", ("truncation",)),
    "misspecified-wronglink": ("g", ("truncation",)),
    "oracle-rate": ("qg", ("rate_exponent", "amplitude", "shape", "truncation")),
}
_SIDE_KINDS = {side: tuple(kind for kind, (sides, _) in _KINDS.items() if side in sides)
               for side in "qg"}
OUTCOME_KINDS, PROPENSITY_KINDS = _SIDE_KINDS.values()
_READS = {kind: reads for kind, (_, reads) in _KINDS.items()}


@dataclass(frozen=True)
class Dataset:
    """Immutable sample of (W, A, Y) rows backed by numpy arrays.

    ``w`` has shape (n, d); ``a`` is an integer 0/1 vector; ``y`` is float.
    Arrays are copied and marked read-only at construction; ``_owning``
    takes over fresh arrays already checked (a draw, an ingested CSV)
    without the copy or the checks.
    ``subset`` is the one way to take rows of a Dataset.
    """

    w: np.ndarray
    a: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim == 1:
            w = w[:, None]
        if w.ndim != 2 or w.shape[0] == 0 or w.shape[1] == 0:
            raise ValueError(f"covariate matrix must be (n, d) with n, d >= 1, got shape {w.shape}")
        a = np.array(self.a).reshape(-1)
        y = np.array(self.y, dtype=float).reshape(-1)
        if not (len(a) == len(y) == w.shape[0]):
            raise ValueError("w, a, y must have matching lengths")
        # checked on the values as given, so 0.5 or 2 is refused, not truncated
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("treatment values must be 0 or 1")
        if not (np.isfinite(w).all() and np.isfinite(y).all()):
            raise ValueError("covariates and outcomes must be finite")
        self._set_arrays(w, a.astype(np.int64, copy=False), y)

    @classmethod
    def _owning(cls, w, a, y) -> "Dataset":
        """The constructor without its copies or checks, for valid arrays (a
        finite float (n, d) ``w`` and ``y``, an int64 0/1 ``a``) just made."""
        out = object.__new__(cls)
        out._set_arrays(w, a, y)
        return out

    def _set_arrays(self, w, a, y):
        for arr in (w, a, y):
            arr.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]

    def subset(self, mask) -> "Dataset":
        """The rows where the boolean vector ``mask`` is True, as a new Dataset.

        Rows of a checked sample are already checked, so the selected
        arrays (fresh copies, read-only) skip the constructor's checks.
        """
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self.n,):
            raise ValueError(f"subset takes a boolean mask of length {self.n}, "
                             f"got {mask.dtype} of shape {mask.shape}")
        if not mask.any():
            raise ValueError("subset selects no rows")
        return Dataset._owning(self.w.compress(mask, axis=0), self.a.compress(mask),
                               self.y.compress(mask))


def _is_real(value) -> bool:
    """True for a finite int or float that is not a bool; an int beyond the
    float range is no finite number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_int(value) -> bool:
    """True for an int (numpy integers included) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int_at_least(value, minimum: int, name: str):
    """``value``, the integer argument ``name``; ConfigError unless it is an int
    (numpy integers included, no bool) of at least ``minimum``."""
    if not (_is_int(value) and value >= minimum):
        raise ConfigError(f"{name!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _is_list_of(value, each) -> bool:
    """True for a list or tuple whose every item passes ``each``."""
    return isinstance(value, (list, tuple)) and all(map(each, value))


def _check_fields(spec, reads, rules, error) -> None:
    """Check the dataclass ``spec``, raising ``error``: its kind must be a key
    of ``reads``; a field its kind reads must pass its test in ``rules``, a
    map of field name to (what it must be, test); any other field must be
    its default, or pass its test and equal the default."""
    if not (isinstance(spec.kind, str) and spec.kind in reads):
        raise error(f"unknown {type(spec).__name__} kind {spec.kind!r}")
    for field in fields(spec)[1:]:
        value, (what, test) = getattr(spec, field.name), rules[field.name]
        if field.name in reads[spec.kind]:
            if not test(value):
                raise error(f"{field.name!r} must be {what} for the {spec.kind!r} kind, "
                            f"got {value!r}")
        elif not (value is field.default or test(value) and value == field.default):
            raise error(f"the {spec.kind!r} kind does not read {field.name!r}, got {value!r}")


# what each LearnerSpec field must be, and its test, when its kind reads it
_LEARNER_RULES = {
    "k": ("a positive integer", lambda v: v is None or _is_int(v) and v >= 1),
    "bandwidth": ("a positive finite number", lambda v: v is None or _is_real(v) and v > 0.0),
    "rate_exponent": ("a number in (0, 0.5]", lambda v: _is_real(v) and 0.0 < v <= 0.5),
    # amplitude 0 is allowed: it degenerates to the exact truth
    "amplitude": ("a finite number >= 0", lambda v: _is_real(v) and v >= 0.0),
    "shape": ("0, 1 or 2", lambda v: _is_int(v) and 0 <= v <= 2),
    "truncation": ("a number in (0, 0.5)", lambda v: _is_real(v) and 0.0 < v < 0.5),
}


@dataclass(frozen=True)
class LearnerSpec:
    """Declarative description of one nuisance fit.

    ``k`` applies to ``knn`` (default ceil(sqrt(m)) for m fitting rows);
    ``bandwidth`` to ``kernel-nw`` (default: each covariate's standard
    deviation times m ** -0.2); ``rate_exponent`` (a, required), ``amplitude``
    (c, required) and ``shape`` (default 0) to ``oracle-rate``.
    ``truncation`` clips every propensity to [truncation, 1 - truncation],
    and every kind that fits a propensity reads it.  A field its kind does
    not read must keep its default (None, or an equal valid ``shape`` or
    ``truncation``); ``to_dict`` echoes only the fields the kind reads.
    """

    kind: str
    k: Optional[int] = None
    bandwidth: Optional[float] = None
    rate_exponent: Optional[float] = None
    amplitude: Optional[float] = None
    shape: int = 0
    truncation: float = DEFAULT_TRUNCATION

    def __post_init__(self):
        _check_fields(self, _READS, _LEARNER_RULES, InvalidLearnerSpec)

    def to_dict(self) -> dict:
        values = {name: getattr(self, name) for name in _READS[self.kind]}
        return {"kind": self.kind, **{k: v for k, v in values.items() if v is not None}}

    @classmethod
    def from_dict(cls, doc: dict) -> "LearnerSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise InvalidLearnerSpec(f'learner spec must be an object with a "kind": {doc!r}')
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidLearnerSpec(f"unknown learner spec fields {sorted(unknown)}")
        return cls(**doc)


@dataclass(frozen=True)
class FittedNuisance:
    """Paired prediction functions for the two nuisances.

    ``predict_q`` maps covariate rows to estimated E(Y | W, A=0); it is not
    truncated.  ``predict_g`` maps covariate rows to estimated Pr(A=0 | W)
    and always returns values in [eps, 1-eps].  Both accept an (m, d) array
    (returning an (m,) array) or a single length-d vector (returning a
    float).  The specs that produced each side ride along for reporting.
    """

    predict_q: Callable
    predict_g: Callable
    spec_q: Optional[LearnerSpec] = None
    spec_g: Optional[LearnerSpec] = None


# ---------------------------------------------------------------------------
# prediction plumbing


def _predictor(core: Callable) -> Callable:
    def predict(w):
        arr = np.asarray(w, dtype=float)
        single = arr.ndim == 1
        out = core(np.atleast_2d(arr))
        return float(out[0]) if single else out

    return predict


def truncate_propensity(p, eps: float):
    """Clamp propensity values into [eps, 1-eps]."""
    return np.clip(p, eps, 1.0 - eps)


def _design(x: np.ndarray) -> np.ndarray:
    """The C-ordered design [1, x], written a column at a time."""
    design = np.empty((len(x), x.shape[1] + 1))
    design[:, 0] = 1.0
    for j in range(x.shape[1]):
        design[:, j + 1] = x[:, j]
    return design


def _scale_rows(weights: np.ndarray, design: np.ndarray, out: np.ndarray) -> np.ndarray:
    """weights[:, None] * design into ``out``, written a column at a time."""
    for j in range(design.shape[1]):
        np.multiply(weights, design[:, j], out=out[:, j])
    return out


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise NonFiniteNumber(f"{what} is not finite: the data overflow it")
    return values


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by _finite
def _ols_beta(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    design = _design(x)
    gram = _finite(design.T @ design, "the Gram matrix") + RIDGE_JITTER * np.eye(design.shape[1])
    try:
        return np.linalg.solve(gram, _finite(design.T @ y, "the normal equations' right side"))
    except np.linalg.LinAlgError as err:
        raise SingularDesign(f"normal equations singular despite jitter: {err}") from err


def _linear_core(beta: np.ndarray, drop_first: bool) -> Callable:
    def core(w):
        v = (w[:, 1:] if drop_first else w) @ beta[1:]
        return np.add(v, beta[0], out=v)

    return core


def logistic(x, out=None):
    """1 / (1 + exp(-x)) elementwise, written into ``out`` when given; exactly
    0.0, with no warning, for x <= -710."""
    with np.errstate(over="ignore"):
        e = np.exp(np.negative(x, out=out), out=out)
        return np.divide(1.0, np.add(1.0, e, out=out), out=out)


def _softplus(v, out=None, spare=None):
    """log(1 + exp(v)) elementwise, in numpy's split form of logaddexp(0, v).

    max(v, 0) + log1p(exp(-|v|)) never overflows.  numpy runs it on its
    vectorized exp and log1p, where ``np.logaddexp`` is a scalar libm loop,
    and it stays within a few ULP of ``np.logaddexp``.  Every pass writes
    into ``out`` (it may be ``v``) and ``spare`` when they are given.
    """
    top = np.maximum(v, 0.0, out=spare)
    tail = np.log1p(np.exp(np.negative(np.abs(v, out=out), out=out), out=out), out=out)
    return np.add(top, tail, out=out)


def _logistic_nll(eta: np.ndarray, flip: np.ndarray, work: np.ndarray, spare: np.ndarray) -> float:
    """Negative log-likelihood sum log(1 + exp(flip * eta)), flip = -(2z - 1),
    computed in the length-n arrays ``work`` and ``spare``."""
    return float(_softplus(np.multiply(flip, eta, out=work), work, spare).sum())


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by _finite
def _irls_beta(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    # z is the binary target I(A=0); damped Newton with a tiny Hessian
    # jitter so saturated weights cannot make the solve blow up.  The
    # backtracking line search matters under perfect separation: the
    # likelihood keeps improving as |beta| grows, margins saturate, and
    # the gradient reaches exact zero instead of oscillating.  The linear
    # predictor eta = design @ beta of the accepted candidate is carried
    # into the next step's probabilities and gradient.
    design = _design(x)
    weighted = np.empty_like(design)
    flip = -(2.0 * z - 1.0)
    beta = np.zeros(design.shape[1])
    eta = design @ beta
    p, resid, work, spare, cand_eta = (np.empty(len(z)) for _ in range(5))
    eye = np.eye(design.shape[1])
    nll = _logistic_nll(eta, flip, work, spare)
    # the gradient of every beta reached is tested here, the last one after
    # IRLS_MAX_ITER steps too
    for iteration in range(IRLS_MAX_ITER + 1):
        logistic(eta, out=p)
        grad = _finite(design.T @ np.subtract(z, p, out=resid), "the IRLS gradient")
        if (norm := math.sqrt(float(grad @ grad))) <= IRLS_GRADIENT_TOL:
            return beta
        if iteration == IRLS_MAX_ITER:
            break
        # the jitter must stay far below the curvature of near-boundary
        # rows, or separated fits stall before the gradient tolerance
        weights = np.multiply(p, np.subtract(1.0, p, out=resid), out=resid)
        hessian = _finite(design.T @ _scale_rows(weights, design, weighted),
                          "the IRLS Hessian") + 1e-12 * eye
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError as err:
            raise SingularDesign(f"IRLS step singular: {err}") from err
        for _halving in range(60):
            candidate = beta + step
            cand_nll = _logistic_nll(np.matmul(design, candidate, out=cand_eta), flip, work, spare)
            if cand_nll <= nll + 1e-12:
                beta, nll = candidate, cand_nll
                eta, cand_eta = cand_eta, eta
                break
            step = 0.5 * step
        else:
            break  # no descent direction left; stationary up to rounding
    raise IrlsDivergence(f"gradient norm {norm:.3e} after {IRLS_MAX_ITER} iterations")


def _logistic_core(beta: np.ndarray, drop_first: bool) -> Callable:
    linear = _linear_core(beta, drop_first)
    return lambda w: logistic(v := linear(w), out=v)  # in the predictor just made


def _query_blocks(m: int, n: int):
    """Slices of at most KERNEL_BLOCK_PAIRS // n query rows covering range(m)."""
    rows = max(1, KERNEL_BLOCK_PAIRS // n)
    for start in range(0, m, rows):
        yield slice(start, min(start + rows, m))


def _knn_block(q: np.ndarray, t_cols: np.ndarray, targets: np.ndarray, k: int, bufs,
               box: np.ndarray):
    """Each query row's k-th smallest squared distance to the fitting rows
    of its box and the mean of ``targets`` over its k nearest.

    ``t_cols`` (d, boxes, width) and ``targets`` (boxes, width) hold the
    boxes, and query i ranks the columns of box box[i]; the all-rows pass
    is one box of every row.  Columns of +inf coordinates pad a box: their
    distance, +inf, is never chosen.  The distances sum
    (q_j - t_j)**2 in covariate order, so a pair's distance does not depend
    on which rows share its block, and no (rows, width, d) array exists.
    Columns rank by (distance, column): a tie at the k-th distance keeps
    the lower columns, and the mean sums the k targets in that order.
    A distance is never negative, so its bits read as an int64 order as it
    does; a column's key is those bits with the low ones replaced by the
    column, and one integer partition and a sort of the k + 1 least keys
    rank a row.  That is the (distance, column) order unless two of the
    k + 1 share their high bits (a tie, or distances a few ulps apart); a
    block where two do ranks by a stable argsort of its distances instead.
    ``bufs`` is a (2, rows * width or more) float array reused across
    blocks: fresh 256 KB temporaries per block cost about 8% at 800
    fitting rows.
    """
    width = t_cols.shape[-1]
    d2, spare = bufs[:, :len(q) * width].reshape(2, len(q), width)
    for j in range(q.shape[1]):
        diff = spare if j else d2
        t_cols[j].take(box, axis=0, out=diff, mode="clip")  # clip: take unbuffered
        np.subtract(q[:, j, None], diff, out=diff)
        np.square(diff, out=diff)
        if j:
            d2 += spare
    bits = max(1, (width - 1).bit_length())  # for the widest column
    keys = np.bitwise_and(d2.view(np.int64), -1 << bits, out=spare.view(np.int64))
    keys |= np.arange(width)
    if k < width:
        keys.partition(k, axis=1)
    high = np.sort(keys[:, :k + 1], axis=1)
    cols = high[:, :k] & ((1 << bits) - 1)
    high >>= bits
    if (high[:, 1:] == high[:, :-1]).any():
        cols = d2.argsort(axis=1, kind="stable")[:, :k]
    kth = d2.take(cols[:, k - 1] + np.arange(0, d2.size, width))
    # sum / k is numpy's mean, without its wrapper
    return kth, targets.take(cols + (box * width)[:, None]).sum(axis=1) / k


def _block_buffer(m: int, n: int) -> np.ndarray:
    """A (rows, n) float array reused by the kernel-NW blocks of m queries
    against n fitting rows."""
    return np.empty((min(m, max(1, KERNEL_BLOCK_PAIRS // n)), n))


class _CellGrid:
    """The fitting rows bucketed into ``cells`` equal slabs per covariate.

    A query ranks the rows of the 3**d cells around its own (its box).
    ``rectangles`` lists every box, these and the wider ones of a call.
    Every cell's box is stored once, its rows ascending, in one flat array:
    cell c's box is box_rows[box_starts[c]:box_starts[c + 1]].  A fitting
    row lies in at most 3**d boxes, so box_rows holds at most 3**d * n row
    indices, whatever the rows' spread.  ``exact_below`` bounds from below
    every distance to a row outside a box of slabs, from the rows' actual
    coordinates in each slab, so it holds however the floating-point cell
    arithmetic rounds.
    """

    def __init__(self, train_w: np.ndarray, lo: np.ndarray, hi: np.ndarray, cells: int):
        self.cells, d = cells, train_w.shape[1]
        self.lo = lo
        # a constant column is one slab, as is one whose scale overflows
        # (the grid is built under the caller's errstate)
        scale = np.divide(cells, hi - lo, out=np.zeros(len(lo)), where=hi > lo)
        self.scale = np.where(np.isfinite(scale), scale, 0.0)
        slabs = self.slabs(train_w)
        self.offsets = (np.arange(d) * (cells + 2))[:, None]  # covariate j's slabs in above, below
        # the rows by cell, and where each cell's rows start among them
        self.row_cells = self.flat(slabs)
        self.by_cell = self.row_cells.argsort()
        self.cell_starts = np.append(0, np.bincount(self.row_cells, minlength=cells ** d).cumsum())
        # cell c's box is the slabs at most one from its own per covariate;
        # its size sums its cells' counts, one covariate at a time: along the
        # first axis, whose slabs then turn to the last
        size = np.diff(self.cell_starts).reshape((cells,) * d)
        for _ in range(d):
            wide = size.copy()
            wide[1:] += size[:-1]
            wide[:-1] += size[1:]
            size = np.moveaxis(wide, 0, -1)
        starts = self.box_starts = np.append(0, size.cumsum())
        # the boxes are listed in groups of at most KERNEL_BLOCK_PAIRS (box,
        # row) pairs and KERNEL_BLOCK_PAIRS // 3**d boxes, or one box, so no
        # temporary grows with the number of cells
        self.box_rows, first = np.empty(starts[-1], np.intp), 0
        while first < cells ** d:
            last = np.searchsorted(starts, starts[first] + KERNEL_BLOCK_PAIRS, "right") - 1
            last = max(first + 1, min(last, first + KERNEL_BLOCK_PAIRS // 3 ** d))
            own = np.array(np.unravel_index(np.arange(first, last), (cells,) * d))
            self.box_rows[starts[first]:starts[last]] = self.rectangles(
                np.maximum(own - 1, 0), np.minimum(own + 1, cells - 1))[1]
            first = last
        # per covariate j, above[j, s] is the least coordinate in slab s or
        # above and below[j, s + 2] the greatest in slab s or below, padded
        # so that the slabs two past a query's own exist
        at, coords = (slabs + self.offsets).ravel(), train_w.T.ravel()
        above, below = np.full((d, cells + 2), np.inf), np.full((d, cells + 2), -np.inf)
        np.minimum.at(above.ravel(), at, coords)
        np.maximum.at(below.ravel(), at + 2, coords)
        self.above = np.minimum.accumulate(above[:, ::-1], axis=1)[:, ::-1].ravel()
        self.below = np.maximum.accumulate(below, axis=1).ravel()

    def slabs(self, w: np.ndarray) -> np.ndarray:
        """Each row's slab per covariate, as (d, rows); rows beyond the
        fitting range take the end slab (clipped first, the cast truncates
        as floor would).  The per-query arrays here are by covariate: numpy
        runs a (rows, d) operation one row of d values at a time, about 2x
        slower at 5000 rows and d = 2 on a 2-core Xeon."""
        x = (w.T - self.lo[:, None]) * self.scale[:, None]
        return np.clip(x, 0, self.cells - 1, out=x).astype(np.intp)

    def flat(self, slabs: np.ndarray) -> np.ndarray:
        return np.ravel_multi_index(tuple(slabs), (self.cells,) * len(slabs))

    def exact_below(self, w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """fl(gap**2), gap the least |q_j - t_j| over rows t outside each
        query's box, the slabs lo[j] to hi[j] (d, rows) of each covariate j,
        which hold the query's own.

        Rounding is monotone, so every computed squared distance to such a
        row is at least this bound; so is the slab arithmetic, so a row in
        a higher slab than the query's lies above it, and gap > 0.
        """
        gap = np.minimum(self.above.take(hi + 1 + self.offsets) - w.T,
                         w.T - self.below.take(lo + 1 + self.offsets))
        return np.square(gap.min(axis=0))

    def rectangles(self, lo: np.ndarray, hi: np.ndarray):
        """(starts, rows): the fitting rows within the slabs lo[j, b] to
        hi[j, b] of every covariate j, ascending, for each box b.  A box's
        cells are lo plus the offsets within the widest box's spans that do
        not pass hi; their rows, gathered by cell, sort by the key
        box << bits | row, so the work grows with the rows listed."""
        bits, offsets = len(self.row_cells).bit_length(), np.indices((hi - lo).max(axis=1) + 1)
        slabs = lo[:, :, None] + offsets.reshape(len(lo), 1, -1)
        box, offset = (slabs <= hi[:, :, None]).all(axis=0).nonzero()  # (box, cell) pairs
        cell = self.flat(slabs[:, box, offset])
        first, size = self.cell_starts.take(cell), np.diff(self.cell_starts).take(cell)
        at = np.arange(size.sum()) + np.repeat(first - size.cumsum() + size, size)
        key = np.repeat(box << bits, size) | self.by_cell.take(at)
        key.sort()
        return (np.searchsorted(key, np.arange(lo.shape[1] + 1) << bits),
                np.bitwise_and(key, (1 << bits) - 1, out=key))


def _knn_cells(n: int, d: int, k: int) -> int:
    """Cells per axis for about k / 2 fitting rows a cell, the largest c with
    c**d <= 2n / k; 1 below KNN_MIN_AXIS_CELLS."""
    cells = int((2.0 * n / k) ** (1.0 / d)) + 1  # the float root can miss by one either way
    while cells ** d * k > 2 * n:
        cells -= 1
    return cells if cells >= KNN_MIN_AXIS_CELLS else 1


def _box_blocks(sizes: np.ndarray, start: int):
    """(start, stop) blocks over the queries from ``start`` on, their box
    ``sizes`` ascending: as many rows as fit KERNEL_BLOCK_PAIRS at the
    widest box that many rows from the block's first could reach, or one."""
    while start < len(sizes):
        ahead = min(start + KERNEL_BLOCK_PAIRS // int(sizes[start]), len(sizes)) - 1
        stop = start + max(1, KERNEL_BLOCK_PAIRS // int(sizes[max(start, ahead)]))
        yield start, min(stop, len(sizes))
        start = stop


def _runs(keys: np.ndarray):
    """Each element's run of equal ``keys`` (numbered from 0) and each run's
    first element."""
    new = np.concatenate(([True], keys[1:] != keys[:-1]))
    return np.cumsum(new) - 1, np.flatnonzero(new)


def _knn_core(train_w: np.ndarray, train_t: np.ndarray, k: int) -> Callable:
    n, d = train_w.shape
    k = min(k, n)
    # coordinates by covariate and the targets, then a column n of +inf
    t_ext = np.full((d + 1, n + 1), np.inf)
    t_ext[:d, :n] = train_w.T
    t_ext[d, :n] = train_t
    every = (np.array([0, n]), np.arange(n))  # one box of every row: its starts and rows
    # the extremes are taken by covariate: numpy reduces a (rows, d) array
    # over its rows one row of d values at a time, about 20x slower at
    # 5000 rows and d = 2 on a 2-core Xeon
    t_lo, t_hi = t_ext[:d, :n].min(axis=1), t_ext[:d, :n].max(axis=1)
    cells = _knn_cells(n, d, k)
    grid = None  # the _CellGrid, built by the first call

    @np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by _finite
    def core(w):
        nonlocal grid
        if k == n or not len(w):
            return np.full(len(w), train_t.mean())
        # the largest |q_j - t_j|, the extremes by covariate as above; far
        # bounds every distance
        reach = np.maximum((by_cov := w.T.copy()).max(axis=1) - t_lo, t_hi - by_cov.min(axis=1))
        far = _finite(np.square(reach).sum(), "the kNN squared-distance bound")
        # two buffers for every block of the call, which pairs at most
        # max(KERNEL_BLOCK_PAIRS, n) and len(w) * n; a page is faulted in
        # when first written, so once a call, and only the pages written
        bufs = np.empty((2, min(len(w) * n, max(KERNEL_BLOCK_PAIRS, n))))
        out, kth = np.empty(len(w)), np.full(len(w), np.inf)

        def by_box(idx, box, starts, rows, bound):
            # the queries w[idx], query i in box box[i] of the boxes
            # rows[starts[b]:starts[b + 1]], ordered by (box size, box), rank
            # the rows of their boxes in blocks of at most KERNEL_BLOCK_PAIRS
            # pairs, each box taken once per block, as d + 1 rows of values,
            # padded to the block's widest with the +inf column n.  Each
            # ranked query's mean goes to out and its k-th distance to kth;
            # its answer holds only when that distance lies strictly below
            # its bound.  Returns the other queries and their boxes, a box's
            # queries next to each other.
            size = starts.take(box + 1) - starts.take(box)
            order = np.argsort(size * len(starts) + box)
            idx, box, size, bound = (a.take(order) for a in (idx, box, size, bound))
            # each query's box's place among the call's boxes, their first
            # queries, first rows and sizes
            place, firsts = _runs(box)
            first_rows, widths = starts.take(box.take(firsts)), size.take(firsts)
            answered = np.zeros(len(idx), dtype=bool)
            # a box of fewer than k rows cannot answer
            for start, stop in _box_blocks(size, int(np.searchsorted(size, k))):
                first, last, at = place[start], place[stop - 1] + 1, idx[start:stop]
                cols = np.arange(size[stop - 1])
                ranked = rows.take(first_rows[first:last, None] + cols, mode="clip")
                ranked[cols >= widths[first:last, None]] = n
                values = t_ext.take(ranked, axis=1)
                kth[at], out[at] = _knn_block(w.take(at, axis=0), values[:d], values[d], k, bufs,
                                              place[start:stop] - first)
                np.less(kth.take(at), bound[start:stop], out=answered[start:stop])
            return idx[~answered], box[~answered]

        if grid is None:
            grid = _CellGrid(train_w, t_lo, t_hi, cells)
        slabs = grid.slabs(w)
        rest, cell = by_box(np.arange(len(w)), grid.flat(slabs), grid.box_starts, grid.box_rows,
                            grid.exact_below(w, slabs - 1, slabs + 1))
        if len(rest):
            # a box's k-th distance bounds the true one from above, so the
            # k nearest lie within its square root of the query on every
            # covariate: each cell's failed queries rank the rows of the
            # slabs that reach spans for any of them, their boxes in groups
            # of at most KERNEL_BLOCK_PAIRS (box, row) pairs; far stands in
            # for the k-th distance of a box of fewer than k rows
            q = w.take(rest, axis=0)
            reach = np.sqrt(np.minimum(kth.take(rest), far))[:, None]
            group, firsts = _runs(cell)
            lo = np.minimum.reduceat(grid.slabs(q - reach), firsts, axis=1)
            hi = np.maximum.reduceat(grid.slabs(q + reach), firsts, axis=1)
            bound = grid.exact_below(q, lo.take(group, axis=1), hi.take(group, axis=1))
            ends, left = np.append(firsts, len(rest)), []
            for part in _query_blocks(len(firsts), n):
                mine = slice(ends[part.start], ends[part.stop])
                left.append(by_box(rest[mine], group[mine] - part.start,
                                   *grid.rectangles(lo[:, part], hi[:, part]), bound[mine])[0])
            rest = np.concatenate(left)
        if len(rest):  # rounding or a tie at a second box's edge: all rows
            by_box(rest, np.zeros(len(rest), np.intp), *every, np.full(len(rest), np.inf))
        return out

    return core


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by _finite
def _nw_core(train_w: np.ndarray, train_t: np.ndarray, bandwidth: np.ndarray) -> Callable:
    # fit: rows centered at their mean and scaled by the bandwidth, t, as
    # right = [t'; -|t|^2 / 2; 1] of shape (d + 2, n), and targets [y, 1]
    n, d = train_w.shape
    center = train_w.mean(axis=0)
    t = (train_w - center) / bandwidth
    right = _finite(np.vstack([t.T, -0.5 * np.square(t).sum(axis=1), np.ones(n)]),
                    "the kernel matrix")
    targets = np.column_stack([train_t, np.ones(n)])

    @np.errstate(over="ignore", invalid="ignore")
    def core(w):
        # left = [x, 1, -|x|^2 / 2], so one product gives each block's exact
        # log-weights -|x - t|^2 / 2, exponentiated in place in one (rows, n)
        # buffer, and one (rows, 2) product with the targets sums them
        x = (w - center) / bandwidth
        left = np.column_stack([x, np.ones(len(w)), -0.5 * np.square(x).sum(axis=1)])
        sums = np.empty((len(w), 2))
        buf = _block_buffer(len(w), n)
        for rows in _query_blocks(len(w), n):
            block = left[rows]
            weights = np.matmul(block, right, out=buf[:len(block)])
            sums[rows] = np.exp(weights, out=weights) @ targets
        # far queries' weights underflow, an overflowing |x|^2 makes them 0
        # or NaN, and rounding on huge scaled rows can overflow one: a row
        # whose denominator is not finite or below NW_MIN_DENOMINATOR takes
        # the row-max form x.t - |t|^2 / 2 less its row max, where the
        # nearest row weighs 1, so it degrades to a nearest-neighbour
        # average instead of 0/0
        den = sums[:, 1]
        far = np.flatnonzero(~(np.isfinite(den) & (den >= NW_MIN_DENOMINATOR)))
        for rows in _query_blocks(len(far), n):
            block = left[far[rows], :d + 1]
            logk = np.matmul(block, right[:d + 1], out=buf[:len(block)])
            logk -= logk.max(axis=1, keepdims=True)
            sums[far[rows]] = np.exp(logk, out=logk) @ targets
        return _finite(sums[:, 0] / sums[:, 1], "the kernel-NW prediction")

    return core


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by _finite
def _default_bandwidth(train_w: np.ndarray) -> np.ndarray:
    m = len(train_w)
    sd = train_w.std(axis=0, ddof=1) if m > 1 else np.ones(train_w.shape[1])
    sd = np.where(_finite(sd, "the covariates' standard deviation") > 0.0, sd, 1.0)
    return sd * m ** (-0.2)


def _fit_core(side: str, w: np.ndarray, t: np.ndarray, spec: LearnerSpec) -> Callable:
    """The prediction core of ``spec`` fit to targets ``t`` at rows ``w``; a
    parametric kind fits least squares for ``side`` "q" or misspecified-wronglink,
    else IRLS."""
    if spec.kind == "knn":
        return _knn_core(w, t, spec.k if spec.k is not None else math.ceil(math.sqrt(len(t))))
    if spec.kind == "kernel-nw":
        bw = (np.full(w.shape[1], float(spec.bandwidth)) if spec.bandwidth is not None
              else _default_bandwidth(w))
        return _nw_core(w, t, bw)
    drop = spec.kind == "misspecified-omit"
    x = w[:, 1:] if drop else w
    if side == "q" or spec.kind == "misspecified-wronglink":
        return _linear_core(_ols_beta(x, t), drop)
    return _logistic_core(_irls_beta(x, t), drop)


# ---------------------------------------------------------------------------
# fitting entry points


def _check_side(side: str, spec: LearnerSpec, error) -> None:
    """The one rule that the kind of ``spec`` fits ``side`` ("q" the outcome
    regression, "g" the propensity), refused with the caller's ``error``."""
    if spec.kind not in _SIDE_KINDS[side]:
        what = "outcome regression" if side == "q" else "propensity"
        raise error(f"learner {side!r} cannot be {spec.kind!r}: the {what} takes one of "
                    f"{list(_SIDE_KINDS[side])}")


def _fittable(side: str, spec: LearnerSpec) -> None:
    """Refuse a spec that cannot be fit on ``side`` from data: a kind of the other
    side, or oracle-rate, which perturbs a truth instead."""
    _check_side(side, spec, InvalidLearnerSpec)
    if spec.kind == "oracle-rate":
        raise InvalidLearnerSpec("oracle-rate learners need the (q, g) truth callables")


def fit_outcome(data: Dataset, spec: LearnerSpec) -> Callable:
    """Fit E(Y | W, A=0) on the untreated rows of ``data``.

    Returns a prediction function defined for every covariate vector.
    """
    _fittable("q", spec)
    mask = data.a == 0
    if not mask.any():
        raise NoUntreatedRows("no rows with a = 0 to fit the outcome regression")
    return _predictor(_fit_core("q", data.w.compress(mask, axis=0), data.y.compress(mask), spec))


def fit_propensity(data: Dataset, spec: LearnerSpec) -> Callable:
    """Fit Pr(A = 0 | W) on all rows; outputs truncated to [eps, 1-eps]."""
    _fittable("g", spec)
    z = (data.a == 0).astype(float)
    if z.min() == z.max():
        raise DegenerateTreatment("all rows share one treatment value")
    core, eps = _fit_core("g", data.w, z, spec), spec.truncation
    return _predictor(lambda w: truncate_propensity(core(w), eps))


def fit_side(side: str, data: Dataset, spec: LearnerSpec, truth=None) -> Callable:
    """Fit one nuisance: ``side`` "q" is the outcome regression, "g" the propensity.

    An ``oracle-rate`` spec perturbs its side of ``truth``, a (q, g) pair
    of vectorized callables, at the sample size of ``data``; every other
    kind is fit on ``data`` and ignores ``truth``.  The fit refuses a spec
    of the other side, and an oracle-rate one without ``truth``.
    """
    if spec.kind == "oracle-rate" and truth is not None:
        return _oracle(side, truth, data.n, spec)
    return fit_outcome(data, spec) if side == "q" else fit_propensity(data, spec)


def fit_nuisance(
    data: Dataset,
    spec_q: LearnerSpec,
    spec_g: LearnerSpec,
    truth=None,
) -> FittedNuisance:
    """Fit both nuisances on one dataset (see :func:`fit_side` for ``truth``)."""
    return FittedNuisance(fit_side("q", data, spec_q, truth),
                          fit_side("g", data, spec_g, truth), spec_q, spec_g)


# ---------------------------------------------------------------------------
# rate oracle


def perturbation_shape(shape_id: int) -> Callable:
    """Bounded perturbation direction h(w), |h| <= 1, as a function of w_1.

    shape 0: sin(pi * w_1)          (smooth, mean zero under symmetric laws)
    shape 1: sign(w_1)              (discontinuous, mean zero under symmetric laws)
    shape 2: constant 1             (pure offset; nonzero mean)
    """
    if not _LEARNER_RULES["shape"][1](shape_id):
        raise InvalidLearnerSpec(f"unknown perturbation shape {shape_id!r}")
    return (lambda w: np.sin(math.pi * w[:, 0]), lambda w: np.sign(w[:, 0]),
            lambda w: np.ones(len(w)))[shape_id]


def _oracle(side: str, truth, n: int, spec: LearnerSpec) -> Callable:
    """The oracle-rate ``side`` at size ``n``: its side of ``truth``, perturbed; g truncated."""
    if side == "q":
        return _oracle_side(truth[0], n, spec, clip_eps=None)
    return _oracle_side(truth[1], n, spec, clip_eps=spec.truncation)


def _oracle_side(truth_fn: Callable, n: int, spec: LearnerSpec, clip_eps) -> Callable:
    shape_fn = perturbation_shape(spec.shape)
    delta = spec.amplitude * n ** (-spec.rate_exponent)

    def core(w):
        values = np.asarray(truth_fn(w), dtype=float) + delta * shape_fn(w)
        if clip_eps is not None:
            values = truncate_propensity(values, clip_eps)
        return values

    return _predictor(core)


def oracle_rate_nuisance(
    truth_q: Callable,
    truth_g: Callable,
    n: int,
    spec_q: LearnerSpec,
    spec_g: LearnerSpec,
) -> FittedNuisance:
    """Truth perturbed at an exact polynomial rate in ``n``.

    predict_q(w) = q(w) + c_q * n**(-a_q) * h_q(w)
    predict_g(w) = clip(g(w) + c_g * n**(-a_g) * h_g(w), eps, 1-eps)

    Their product scales as n**(-a_q-a_g) exactly as long as the
    truncation never binds.
    """
    for spec in (spec_q, spec_g):
        if spec.kind != "oracle-rate":
            raise InvalidLearnerSpec(f"oracle-rate nuisances need oracle-rate learners, got {spec.kind!r}")
    _int_at_least(n, 1, "n")
    truth = (truth_q, truth_g)
    return FittedNuisance(_oracle("q", truth, n, spec_q), _oracle("g", truth, n, spec_g),
                          spec_q, spec_g)
