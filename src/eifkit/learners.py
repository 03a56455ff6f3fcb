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
    final beta by rounding.
``knn``
    k-nearest-neighbour averaging, Euclidean metric, default
    k = ceil(sqrt(#fitting rows)).
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

The two smoothers predict in bounded memory.  They take query rows in
blocks of at most KERNEL_BLOCK_PAIRS // n rows against the n fitting rows
and build each block's (rows, n) squared distances one covariate at a
time.  No temporary exceeds KERNEL_BLOCK_PAIRS floats (256 KB), or one row
of n floats when n is larger, whatever the query count or dimension.  kNN
sums the exact squared differences (q_j - t_j)**2 rather than expanding
|q|^2 - 2 q.t + |t|^2: the expanded form cancels and can reorder
near-tied neighbours.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    DegenerateTreatment,
    InvalidLearnerSpec,
    IrlsDivergence,
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
    "fit_side",
    "oracle_rate_nuisance",
    "perturbation_shape",
    "truncate_propensity",
    "OUTCOME_KINDS",
    "PROPENSITY_KINDS",
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

OUTCOME_KINDS = ("linear-ols", "knn", "kernel-nw", "misspecified-omit", "oracle-rate")
PROPENSITY_KINDS = (
    "logistic-irls",
    "knn",
    "kernel-nw",
    "misspecified-omit",
    "misspecified-wronglink",
    "oracle-rate",
)
_ALL_KINDS = tuple(dict.fromkeys(OUTCOME_KINDS + PROPENSITY_KINDS))


@dataclass(frozen=True)
class Dataset:
    """Immutable sample of (W, A, Y) rows backed by numpy arrays.

    ``w`` has shape (n, d); ``a`` is an integer 0/1 vector; ``y`` is float.
    Arrays are copied and marked read-only at construction.  ``subset`` is
    the one way to take rows of a Dataset.
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
        a = np.asarray(self.a).reshape(-1)
        y = np.array(self.y, dtype=float).reshape(-1)
        if not (len(a) == len(y) == w.shape[0]):
            raise ValueError("w, a, y must have matching lengths")
        # checked on the values as given, so 0.5 or 2 is refused, not truncated
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("treatment values must be 0 or 1")
        if not (np.isfinite(w).all() and np.isfinite(y).all()):
            raise ValueError("covariates and outcomes must be finite")
        self._set_arrays(w, a.astype(np.int64), y)

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
        out = object.__new__(Dataset)
        out._set_arrays(self.w.compress(mask, axis=0), self.a.compress(mask),
                        self.y.compress(mask))
        return out


def _is_real(value) -> bool:
    """True for a finite int or float that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_int(value) -> bool:
    """True for an int (numpy integers included) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_list_of(value, each) -> bool:
    """True for a list or tuple whose every item passes ``each``."""
    return isinstance(value, (list, tuple)) and all(map(each, value))


@dataclass(frozen=True)
class LearnerSpec:
    """Declarative description of one nuisance fit.

    ``rate_exponent`` (a), ``amplitude`` (c) and ``shape`` only apply to
    ``oracle-rate``; ``k`` to ``knn``; ``bandwidth`` to ``kernel-nw``.
    ``truncation`` bounds propensity outputs away from 0 and 1.
    """

    kind: str
    k: Optional[int] = None
    bandwidth: Optional[float] = None
    rate_exponent: Optional[float] = None
    amplitude: Optional[float] = None
    shape: int = 0
    truncation: float = DEFAULT_TRUNCATION
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise InvalidLearnerSpec(f"unknown learner kind {self.kind!r}")
        if not (_is_real(self.truncation) and 0.0 < self.truncation < 0.5):
            raise InvalidLearnerSpec(f"truncation must lie in (0, 0.5), got {self.truncation!r}")
        if self.k is not None and not (_is_int(self.k) and self.k >= 1):
            raise InvalidLearnerSpec(f"k must be a positive integer, got {self.k!r}")
        for name in ("shape", "seed"):
            if not _is_int(getattr(self, name)):
                raise InvalidLearnerSpec(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.bandwidth is not None and not (_is_real(self.bandwidth) and self.bandwidth > 0.0):
            raise InvalidLearnerSpec(
                f"bandwidth must be a positive finite number, got {self.bandwidth!r}"
            )
        if self.kind == "oracle-rate":
            if not (_is_real(self.rate_exponent) and 0.0 < self.rate_exponent <= 0.5):
                raise InvalidLearnerSpec(
                    f"oracle-rate needs rate_exponent in (0, 0.5], got {self.rate_exponent!r}"
                )
            # amplitude 0 is allowed: it degenerates to the exact truth
            if not (_is_real(self.amplitude) and self.amplitude >= 0.0):
                raise InvalidLearnerSpec(
                    f"oracle-rate needs amplitude >= 0, got {self.amplitude!r}"
                )
            if self.shape not in (0, 1, 2):
                raise InvalidLearnerSpec(f"unknown perturbation shape {self.shape!r}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in ("k", "bandwidth", "rate_exponent", "amplitude"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        out["shape"] = self.shape
        out["truncation"] = self.truncation
        out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "LearnerSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise InvalidLearnerSpec(f'learner spec must be an object with a "kind": {doc!r}')
        allowed = {"kind", "k", "bandwidth", "rate_exponent", "amplitude",
                   "shape", "truncation", "seed"}
        unknown = set(doc) - allowed
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


def _ols_beta(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    design = np.column_stack([np.ones(len(x)), x])
    gram = design.T @ design + RIDGE_JITTER * np.eye(design.shape[1])
    try:
        return np.linalg.solve(gram, design.T @ y)
    except np.linalg.LinAlgError as err:
        raise SingularDesign(f"normal equations singular despite jitter: {err}") from err


def _linear_core(beta: np.ndarray, drop_first: bool) -> Callable:
    def core(w):
        x = w[:, 1:] if drop_first else w
        return beta[0] + x @ beta[1:]

    return core


def logistic(x):
    """1 / (1 + exp(-x)) elementwise; exactly 0.0, with no warning, for x <= -710."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softplus(v):
    """log(1 + exp(v)) elementwise, in numpy's split form of logaddexp(0, v).

    max(v, 0) + log1p(exp(-|v|)) never overflows.  numpy runs it on its
    vectorized exp and log1p, where ``np.logaddexp`` is a scalar libm loop,
    and it stays within a few ULP of ``np.logaddexp``.
    """
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def _logistic_nll(eta: np.ndarray, sign: np.ndarray) -> float:
    """Negative log-likelihood sum log(1 + exp(-sign * eta)), sign = 2z - 1."""
    return float(_softplus(-sign * eta).sum())


def _irls_beta(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    # z is the binary target I(A=0); damped Newton with a tiny Hessian
    # jitter so saturated weights cannot make the solve blow up.  The
    # backtracking line search matters under perfect separation: the
    # likelihood keeps improving as |beta| grows, margins saturate, and
    # the gradient reaches exact zero instead of oscillating.  The linear
    # predictor eta = design @ beta of the accepted candidate is carried
    # into the next step's probabilities and gradient.
    design = np.column_stack([np.ones(len(x)), x])
    sign = 2.0 * z - 1.0
    beta = np.zeros(design.shape[1])
    eta = design @ beta
    eye = np.eye(design.shape[1])
    nll = _logistic_nll(eta, sign)
    for _ in range(IRLS_MAX_ITER):
        p = logistic(eta)
        grad = design.T @ (z - p)
        if math.sqrt(float(grad @ grad)) <= IRLS_GRADIENT_TOL:
            return beta
        weights = p * (1.0 - p)
        # the jitter must stay far below the curvature of near-boundary
        # rows, or separated fits stall before the gradient tolerance
        hessian = design.T @ (weights[:, None] * design) + 1e-12 * eye
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError as err:
            raise SingularDesign(f"IRLS step singular: {err}") from err
        for _halving in range(60):
            candidate = beta + step
            cand_eta = design @ candidate
            cand_nll = _logistic_nll(cand_eta, sign)
            if cand_nll <= nll + 1e-12:
                beta, eta, nll = candidate, cand_eta, cand_nll
                break
            step = 0.5 * step
        else:
            break  # no descent direction left; stationary up to rounding
    grad = design.T @ (z - logistic(eta))
    if math.sqrt(float(grad @ grad)) <= IRLS_GRADIENT_TOL:
        return beta
    raise IrlsDivergence(
        f"gradient norm {math.sqrt(float(grad @ grad)):.3e} after {IRLS_MAX_ITER} iterations"
    )


def _logistic_core(beta: np.ndarray, drop_first: bool) -> Callable:
    def core(w):
        x = w[:, 1:] if drop_first else w
        return logistic(beta[0] + x @ beta[1:])

    return core


def _query_blocks(m: int, n: int):
    """Slices of at most KERNEL_BLOCK_PAIRS // n query rows covering range(m)."""
    rows = max(1, KERNEL_BLOCK_PAIRS // n)
    for start in range(0, m, rows):
        yield slice(start, start + rows)


def _squared_distances(q: np.ndarray, t_cols: np.ndarray) -> np.ndarray:
    """(rows, n) squared Euclidean distances from q (rows, d) to t_cols (d, n).

    Accumulates (q_j - t_j)**2 one covariate at a time, in covariate order,
    so no (rows, n, d) array exists.
    """
    d2 = np.subtract(q[:, 0, None], t_cols[0])
    np.square(d2, out=d2)
    diff = np.empty_like(d2)
    for j in range(1, q.shape[1]):
        np.subtract(q[:, j, None], t_cols[j], out=diff)
        np.square(diff, out=diff)
        d2 += diff
    return d2


def _knn_core(train_w: np.ndarray, train_t: np.ndarray, k: int) -> Callable:
    n = len(train_t)
    k = min(k, n)
    t_cols = np.ascontiguousarray(train_w.T)

    def core(w):
        # per block: (rows, n) distances, their argpartition index and the
        # gathered targets, each at most KERNEL_BLOCK_PAIRS elements.  The
        # distances are exact differences, not |x|^2 - 2 x.y + |y|^2, whose
        # cancellation can reorder near-tied neighbours.
        if k == n:
            return np.full(len(w), train_t.mean())
        out = np.empty(len(w))
        for rows in _query_blocks(len(w), n):
            d2 = _squared_distances(w[rows], t_cols)
            idx = np.argpartition(d2, kth=k - 1, axis=1)[:, :k]
            out[rows] = train_t[idx].mean(axis=1)
        return out

    return core


def _nw_core(train_w: np.ndarray, train_t: np.ndarray, bandwidth: np.ndarray) -> Callable:
    # fitting rows are scaled by the bandwidth once, here
    t_cols = np.ascontiguousarray((train_w / bandwidth).T)

    def core(w):
        # per block: (rows, n) log-weights, reused in place for the weights,
        # plus one (rows, n) product, each at most KERNEL_BLOCK_PAIRS elements
        scaled = w / bandwidth
        out = np.empty(len(w))
        for rows in _query_blocks(len(w), len(train_t)):
            logk = _squared_distances(scaled[rows], t_cols)
            logk *= -0.5
            # per-row stabilization keeps the nearest point's weight at 1, so
            # the denominator never underflows and far queries degrade to a
            # nearest-neighbour average instead of 0/0
            logk -= logk.max(axis=1, keepdims=True)
            weights = np.exp(logk, out=logk)
            out[rows] = (weights * train_t).sum(axis=1) / weights.sum(axis=1)
        return out

    return core


def _default_bandwidth(train_w: np.ndarray) -> np.ndarray:
    m = len(train_w)
    sd = train_w.std(axis=0, ddof=1) if m > 1 else np.ones(train_w.shape[1])
    sd = np.where(sd > 0.0, sd, 1.0)
    return sd * m ** (-0.2)


def _smoother_core(train_w, train_t, spec: LearnerSpec) -> Callable:
    if spec.kind == "knn":
        k = spec.k if spec.k is not None else math.ceil(math.sqrt(len(train_t)))
        return _knn_core(train_w, train_t, k)
    bw = (
        np.full(train_w.shape[1], float(spec.bandwidth))
        if spec.bandwidth is not None
        else _default_bandwidth(train_w)
    )
    return _nw_core(train_w, train_t, bw)


# ---------------------------------------------------------------------------
# fitting entry points


def fit_outcome(data: Dataset, spec: LearnerSpec) -> Callable:
    """Fit E(Y | W, A=0) on the untreated rows of ``data``.

    Returns a prediction function defined for every covariate vector.
    """
    if spec.kind not in OUTCOME_KINDS or spec.kind == "oracle-rate":
        raise InvalidLearnerSpec(f"{spec.kind!r} cannot be fit as an outcome regression here")
    mask = data.a == 0
    if not mask.any():
        raise NoUntreatedRows("no rows with a = 0 to fit the outcome regression")
    w0 = data.w.compress(mask, axis=0)
    y0 = data.y.compress(mask)
    if spec.kind == "linear-ols":
        return _predictor(_linear_core(_ols_beta(w0, y0), drop_first=False))
    if spec.kind == "misspecified-omit":
        return _predictor(_linear_core(_ols_beta(w0[:, 1:], y0), drop_first=True))
    return _predictor(_smoother_core(w0, y0, spec))


def fit_propensity(data: Dataset, spec: LearnerSpec) -> Callable:
    """Fit Pr(A = 0 | W) on all rows; outputs truncated to [eps, 1-eps]."""
    if spec.kind not in PROPENSITY_KINDS or spec.kind == "oracle-rate":
        raise InvalidLearnerSpec(f"{spec.kind!r} cannot be fit as a propensity here")
    z = (data.a == 0).astype(float)
    if z.min() == z.max():
        raise DegenerateTreatment("all rows share one treatment value")
    eps = spec.truncation
    if spec.kind == "logistic-irls":
        core = _logistic_core(_irls_beta(data.w, z), drop_first=False)
    elif spec.kind == "misspecified-omit":
        core = _logistic_core(_irls_beta(data.w[:, 1:], z), drop_first=True)
    elif spec.kind == "misspecified-wronglink":
        core = _linear_core(_ols_beta(data.w, z), drop_first=False)
    else:
        core = _smoother_core(data.w, z, spec)

    def truncated(w):
        return truncate_propensity(core(w), eps)

    return _predictor(truncated)


def fit_side(side: str, data: Dataset, spec: LearnerSpec, truth=None) -> Callable:
    """Fit one nuisance: ``side`` "q" is the outcome regression, "g" the propensity.

    An ``oracle-rate`` spec perturbs its side of ``truth``, a (q, g) pair
    of vectorized callables, at the sample size of ``data``; every other
    kind is fit on ``data`` and ignores ``truth``.
    """
    if spec.kind != "oracle-rate":
        return fit_outcome(data, spec) if side == "q" else fit_propensity(data, spec)
    if truth is None:
        raise InvalidLearnerSpec("oracle-rate learners need the (q, g) truth callables")
    if side == "q":
        return _oracle_side(truth[0], data.n, spec, clip_eps=None)
    return _oracle_side(truth[1], data.n, spec, clip_eps=spec.truncation)


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
    if shape_id == 0:
        return lambda w: np.sin(math.pi * w[:, 0])
    if shape_id == 1:
        return lambda w: np.sign(w[:, 0])
    if shape_id == 2:
        return lambda w: np.ones(len(w))
    raise InvalidLearnerSpec(f"unknown perturbation shape {shape_id!r}")


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
    if not (_is_int(n) and n >= 1):
        raise ConfigError(f"'n' must be a positive integer, got {n!r}")
    return FittedNuisance(
        predict_q=_oracle_side(truth_q, n, spec_q, clip_eps=None),
        predict_g=_oracle_side(truth_g, n, spec_g, clip_eps=spec_g.truncation),
        spec_q=spec_q,
        spec_g=spec_g,
    )
