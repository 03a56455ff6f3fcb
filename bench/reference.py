"""Reference computations written apart from eifkit.

The benchmark checks the program's outputs against these.  Nothing here
imports eifkit: each formula is re-derived from the documented method
(the DGPs, the fold rule, the learners and the AIPW estimators), with
plain numpy and the standard library.  Where the program and a reference
could differ only by floating-point summation order, the checks allow a
tolerance; where they share no arithmetic at all (quadrature, closed
forms) the tolerance is the accuracy of the reference.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

TRUNCATION = 0.01  # documented default propensity truncation


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# data-generating processes


def logistic_linear_draw(gamma, beta, noise_sd, shift, n, seed_seq):
    """One draw of the documented logistic-linear DGP, same stream order.

    W ~ U[-1, 1]^d, A = 1{U >= expit(gamma0 + gamma'W)},
    Y = beta0 + beta'W + noise (+ shift for treated rows).
    """
    rng = np.random.default_rng(seed_seq)
    d = len(beta) - 1
    w = rng.uniform(-1.0, 1.0, size=(n, d))
    g = _expit(gamma[0] + w @ np.asarray(gamma[1:], dtype=float))
    a = (rng.uniform(size=n) >= g).astype(np.int64)
    q = beta[0] + w @ np.asarray(beta[1:], dtype=float)
    y0 = q + noise_sd * rng.standard_normal(n)
    y1 = q + shift + noise_sd * rng.standard_normal(n)
    return w, a, np.where(a == 0, y0, y1)


def table_draw(atoms, n, seed_seq):
    """n i.i.d. atom draws from a finite table given as ((w, a, y), p) pairs."""
    rng = np.random.default_rng(seed_seq)
    masses = np.array([p for _, p in atoms])
    idx = rng.choice(len(atoms), size=n, p=masses / masses.sum())
    w = np.array([atoms[i][0][0] for i in idx], dtype=float)
    a = np.array([atoms[i][0][1] for i in idx], dtype=np.int64)
    y = np.array([atoms[i][0][2] for i in idx], dtype=float)
    return w, a, y


def theta_quadrature(gamma, beta, nodes=64):
    """E{q(W) | A=1} for the logistic-linear DGP, by tensor Gauss-Legendre.

    Uses its own node count and an explicit product sum, so it shares no
    grid with the program's truth.
    """
    d = len(beta) - 1
    x, wt = np.polynomial.legendre.leggauss(nodes)
    pts = np.stack(np.meshgrid(*[x] * d, indexing="ij"), -1).reshape(-1, d)
    mass = np.prod(np.stack(np.meshgrid(*[wt / 2.0] * d, indexing="ij"), -1).reshape(-1, d), axis=1)
    g = _expit(gamma[0] + pts @ np.asarray(gamma[1:], dtype=float))
    q = beta[0] + pts @ np.asarray(beta[1:], dtype=float)
    treated = mass * (1.0 - g)
    num = math.fsum(treated * q)
    den = math.fsum(treated)
    return num / den


def table_psi_theta(atoms):
    """psi and theta of a finite table by direct stratum sums."""
    strata = {}
    pr_a1 = 0.0
    for (w, a, y), p in atoms:
        s = strata.setdefault(tuple(w), [0.0, 0.0, 0.0])  # mass, untreated mass, untreated y-mass
        s[0] += p
        if a == 0:
            s[1] += p
            s[2] += p * y
        else:
            pr_a1 += p
    psi = math.fsum(m * (ym / m0) for m, m0, ym in strata.values())
    theta = math.fsum((m - m0) * (ym / m0) for m, m0, ym in strata.values()) / pr_a1
    return psi, theta


# ---------------------------------------------------------------------------
# fold rule and learners


def fold_assignment(n, folds, seed):
    """Documented fold rule: a SeedSequence([seed, n, K]) permutation dealt round-robin."""
    order = np.random.default_rng(np.random.SeedSequence([seed, n, folds])).permutation(n)
    fold = np.empty(n, dtype=np.int64)
    for position, row in enumerate(order):
        fold[row] = position % folds
    return fold


def ols_predict(x_fit, y_fit, x_new):
    design = np.column_stack([np.ones(len(x_fit)), x_fit])
    coef, *_ = np.linalg.lstsq(design, y_fit, rcond=None)
    return coef[0] + x_new @ coef[1:]


def logistic_mle(x, z, tol=1e-11, max_iter=100):
    """Newton iterations for the logistic MLE of z on [1, x], with step halving."""
    design = np.column_stack([np.ones(len(x)), x])
    coef = np.zeros(design.shape[1])

    def nll(c):
        eta = design @ c
        return float(np.sum(np.logaddexp(0.0, eta) - z * eta))

    current = nll(coef)
    for _ in range(max_iter):
        p = _expit(design @ coef)
        grad = design.T @ (z - p)
        if float(np.max(np.abs(grad))) <= tol * len(z):
            break
        info = design.T @ (design * (p * (1.0 - p))[:, None])
        step = np.linalg.solve(info, grad)
        for _ in range(50):
            trial = nll(coef + step)
            if trial <= current + 1e-12:
                break
            step = step / 2.0
        coef = coef + step
        current = nll(coef)
    return coef


def logistic_predict(x_fit, z_fit, x_new):
    coef = logistic_mle(x_fit, z_fit)
    return _expit(coef[0] + x_new @ coef[1:])


def nw_predict(x_fit, t_fit, x_new):
    """Nadaraya-Watson, Gaussian product kernel, bandwidth sd_j * m^(-1/5), row by row."""
    m = len(x_fit)
    sd = x_fit.std(axis=0, ddof=1) if m > 1 else np.ones(x_fit.shape[1])
    h = np.where(sd > 0.0, sd, 1.0) * m ** (-0.2)
    out = np.empty(len(x_new))
    for i, x in enumerate(x_new):
        e = -0.5 * (((x_fit - x) / h) ** 2).sum(axis=1)
        k = np.exp(e - e.max())
        out[i] = float(k @ t_fit) / float(k.sum())
    return out


def knn_predict(x_fit, t_fit, x_new, k=None):
    """k-nearest-neighbour mean, Euclidean, k = ceil(sqrt(m)) by default, row by row."""
    m = len(x_fit)
    k = min(m, k if k is not None else math.ceil(math.sqrt(m)))
    out = np.empty(len(x_new))
    for i, x in enumerate(x_new):
        d2 = ((x_fit - x) ** 2).sum(axis=1)
        out[i] = float(t_fit[np.argsort(d2, kind="stable")[:k]].mean())
    return out


def fit_predict(kind, side, w_fit, a_fit, y_fit, w_new):
    """Prediction of one nuisance side by the documented learner ``kind``."""
    if side == "q":
        keep = a_fit == 0
        x, t = w_fit[keep], y_fit[keep]
    else:
        x, t = w_fit, (a_fit == 0).astype(float)
    cols = slice(1, None) if kind == "misspecified-omit" else slice(None)
    if kind in ("linear-ols", "misspecified-omit") and side == "q":
        out = ols_predict(x[:, cols], t, w_new[:, cols])
    elif kind in ("logistic-irls", "misspecified-omit"):
        out = logistic_predict(x[:, cols], t, w_new[:, cols])
    elif kind == "kernel-nw":
        out = nw_predict(x, t, w_new)
    elif kind == "knn":
        out = knn_predict(x, t, w_new)
    else:
        raise ValueError(f"no reference for {kind!r} on side {side!r}")
    return out if side == "q" else np.clip(out, TRUNCATION, 1.0 - TRUNCATION)


def crossfit_predictions(kind_q, kind_g, w, a, y, folds, fold_seed):
    """Nuisance predictions on every row: in-sample when folds < 2, else cross-fit."""
    if folds < 2:
        return (fit_predict(kind_q, "q", w, a, y, w), fit_predict(kind_g, "g", w, a, y, w))
    fold = fold_assignment(len(y), folds, fold_seed)
    qv = np.empty(len(y))
    gv = np.empty(len(y))
    for k in range(folds):
        test = fold == k
        train = ~test
        qv[test] = fit_predict(kind_q, "q", w[train], a[train], y[train], w[test])
        gv[test] = fit_predict(kind_g, "g", w[train], a[train], y[train], w[test])
    return qv, gv


# ---------------------------------------------------------------------------
# estimators


def aipw(estimand, a, y, qv, gv, level=0.95):
    """One-step point, influence variance sum(phi^2)/n^2 and normal interval.

    psi:   mean of I(A=0)(Y-q)/g + q
    theta: mean of [I(A=0)(1-g)/g (Y-q) + I(A=1) q] / P_n(A=1)
    """
    n = len(y)
    untreated = (a == 0).astype(float)
    if estimand == "psi":
        contrib = untreated * (y - qv) / gv + qv
        point = contrib.sum() / n
        phi = contrib - point
    else:
        treated = 1.0 - untreated
        pn = treated.sum() / n
        contrib = (untreated * (1.0 - gv) / gv * (y - qv) + treated * qv) / pn
        point = contrib.sum() / n
        phi = contrib - treated * point / pn
    variance = float((phi**2).sum()) / n**2
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * math.sqrt(variance)
    return float(point), variance, float(point) - half, float(point) + half


def plugin(estimand, a, qv):
    return float(qv.mean() if estimand == "psi" else qv[a == 1].mean())


def oracle_values(q_true, g_true, n, amp_q, rate_q, amp_g, rate_g):
    """Constant-shape rate oracle: truth + c * n^-a, propensity clipped."""
    qv = q_true + amp_q * n ** (-rate_q)
    gv = np.clip(g_true + amp_g * n ** (-rate_g), TRUNCATION, 1.0 - TRUNCATION)
    return qv, gv


def rel_gap(x, ref):
    """|x - ref| relative to |ref| (absolute when ref is 0)."""
    return abs(x - ref) / (abs(ref) if ref != 0.0 else 1.0)
