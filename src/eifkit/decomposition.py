"""Exact first-order error analysis of the plug-in functionals.

For a finite-support truth P and fitted nuisances (qhat, ghat), the scaled
plug-in error splits into four exactly computable pieces:

    sqrt(n) * (plugin - truth) =   sqrt(n) P_n{phi(O, P)}        (clt_term)
                                 - sqrt(n) P_n{phi(O, Phat)}     (drift_term)
                                 + sqrt(n) (P_n - E){phi(O, Phat) - phi(O, P)}
                                 - sqrt(n) R                     (remainder)

where the plug-in value is the functional with qhat substituted but all
expectations still taken under the true covariate law.  The remainder R has
two independent derivations that must agree to float precision:

* direct:      truth - plugin - E_P{phi(O, Phat)}
* closed form: for the untreated mean, -E_P{(1/ghat)(g - ghat)(q - qhat)};
  for the treated-subpopulation mean, a three-term sum whose first two
  pieces are products of the two nuisance errors and whose third is a pure
  treated-fraction offset  -(Pr(A=1) - pn_a)/pn_a * (truth - plugin).

Both remainders vanish when either nuisance is exact (for the treated
variant, the two product terms vanish; the offset term vanishes whenever
the plug-in equals the truth), and the product form is dominated by a
Cauchy-Schwarz bound built from the L2 nuisance errors.

All expectations under P are compensated sums over the atom table, so the
identities hold to ~1e-14 regardless of how adversarial the nuisances are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    FiniteDistribution,
    fields_dict,
    g_of,
    psi_of,
    q_of,
    theta_of,
)
from .errors import ConfigError, NoTreatedRows, PositivityViolation, ZeroMassConditioning
from .learners import Dataset, FittedNuisance, LearnerSpec, _predictor, oracle_rate_nuisance

__all__ = [
    "DecompositionReport",
    "RemainderReport",
    "RateSweepReport",
    "decompose_error",
    "remainder_exact_psi",
    "remainder_exact_theta",
    "remainder_rate_sweep",
    "truth_functions",
]


@dataclass(frozen=True)
class DecompositionReport:
    """Four-term split of the scaled plug-in error; all terms at sqrt(n) scale."""

    estimand: str
    n: int
    clt_term: float
    drift_term: float
    empirical_process_term: float
    remainder: float
    total_error: float

    @property
    def closure_gap(self) -> float:
        """clt - drift + empirical-process - remainder - total; ~0 by construction."""
        return (
            self.clt_term
            - self.drift_term
            + self.empirical_process_term
            - self.remainder
            - self.total_error
        )

    def to_dict(self) -> dict:
        return {**fields_dict(self), "closure_gap": self.closure_gap}


@dataclass(frozen=True)
class RemainderReport:
    """Second-order remainder computed two ways, with its Cauchy-Schwarz bound."""

    estimand: str
    remainder_direct: float
    remainder_closed_form: float
    cs_bound: float
    terms: Optional[dict] = None

    @property
    def identity_gap(self) -> float:
        return abs(self.remainder_direct - self.remainder_closed_form)

    def to_dict(self) -> dict:
        # terms, present only for theta, is left out when None
        return {**fields_dict(self), "identity_gap": self.identity_gap}


@dataclass(frozen=True)
class RateSweepReport:
    """Deterministic remainder magnitudes along a sample-size grid."""

    estimand: str
    rows: tuple  # of (n, remainder, cs_bound)
    slope: float

    def to_dict(self) -> dict:
        return {
            "estimand": self.estimand,
            "rows": [{"n": n, "remainder": r, "cs_bound": b} for n, r, b in self.rows],
            "slope": self.slope,
        }


# ---------------------------------------------------------------------------
# support-level evaluation


def _support_tables(dist: FiniteDistribution):
    ws = dist.w_support
    w_matrix = np.array(ws, dtype=float)
    pw = np.array([dist.w_mass(w) for w in ws])
    q = np.array([q_of(dist, w) for w in ws])
    g = np.array([g_of(dist, w) for w in ws])
    index = {w: i for i, w in enumerate(ws)}
    return ws, w_matrix, pw, q, g, index


def _nuisance_on_support(nuis: FittedNuisance, w_matrix: np.ndarray):
    qh = np.asarray(nuis.predict_q(w_matrix), dtype=float)
    gh = np.asarray(nuis.predict_g(w_matrix), dtype=float)
    if (gh <= 0.0).any() or (gh > 1.0).any():
        raise PositivityViolation("fitted propensity must take values in (0, 1]")
    return qh, gh


def _mean_phi_hat_psi(dist, index, qh, gh, psi_hat) -> float:
    # atom-level E_P of the estimated influence function; deliberately NOT
    # collapsed over covariate strata so it is an independent arithmetic
    # path from the closed-form remainder
    terms = []
    for obs, p in dist.atoms:
        i = index[obs.w]
        residual = (obs.y - qh[i]) / gh[i] if obs.a == 0 else 0.0
        terms.append(p * (residual + qh[i] - psi_hat))
    return math.fsum(terms)


def _mean_phi_hat_theta(dist, index, qh, gh, theta_hat, pn_a) -> float:
    terms = []
    for obs, p in dist.atoms:
        i = index[obs.w]
        if obs.a == 0:
            value = (1.0 - gh[i]) / gh[i] * (obs.y - qh[i]) / pn_a
        else:
            value = (qh[i] - theta_hat) / pn_a
        terms.append(p * value)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# remainder identities


def remainder_exact_psi(dist: FiniteDistribution, nuis: FittedNuisance) -> RemainderReport:
    """Exact remainder for the mean untreated outcome, both derivations.

    The plug-in value uses the estimated regression under the *true*
    covariate marginal: plugin = E_P[qhat(W)].
    """
    _, w_matrix, pw, q, g, index = _support_tables(dist)
    qh, gh = _nuisance_on_support(nuis, w_matrix)
    psi_true = psi_of(dist)
    psi_hat = math.fsum(pw * qh)
    direct = psi_true - psi_hat - _mean_phi_hat_psi(dist, index, qh, gh, psi_hat)
    closed = -math.fsum(pw * (g - gh) * (q - qh) / gh)
    l2_g = math.sqrt(math.fsum(pw * (g - gh) ** 2))
    l2_q = math.sqrt(math.fsum(pw * (q - qh) ** 2))
    cs_bound = float(np.max(1.0 / gh)) * l2_g * l2_q
    return RemainderReport("psi", direct, closed, cs_bound)


def remainder_exact_theta(
    dist: FiniteDistribution, nuis: FittedNuisance, pn_a: float
) -> RemainderReport:
    """Exact remainder for the treated-subpopulation mean.

    ``pn_a`` is the treated fraction plugged into the estimated influence
    function (empirically P_n(A); any value in (0, 1] is accepted so the
    identity can be checked away from Pr(A=1)).  The closed form is

        s1 = -E[(g-ghat)/ghat * (1-ghat) * (q-qhat)] / pn_a
        s2 = -E[(ghat-g) * (qhat-q)] / pn_a
        s3 = -(Pr(A=1) - pn_a)/pn_a * (truth - plugin)

    s1 and s2 vanish when either nuisance is exact; s3 vanishes whenever
    the plug-in equals the truth (in particular for pn_a = Pr(A=1) it is
    the only term not of product form).
    """
    pn_a = float(pn_a)
    if not 0.0 < pn_a <= 1.0:
        raise ConfigError(f"treated fraction must lie in (0, 1], got {pn_a!r}")
    _, w_matrix, pw, q, g, index = _support_tables(dist)
    qh, gh = _nuisance_on_support(nuis, w_matrix)
    theta_true = theta_of(dist)
    pr_a1 = dist.pr_a1
    pw1 = pw * (1.0 - g)  # Pr(W=w, A=1) stratum by stratum
    theta_hat = math.fsum(pw1 * qh) / pr_a1
    direct = theta_true - theta_hat - _mean_phi_hat_theta(
        dist, index, qh, gh, theta_hat, pn_a
    )
    s1 = -math.fsum(pw * (g - gh) / gh * (1.0 - gh) * (q - qh)) / pn_a
    s2 = -math.fsum(pw * (gh - g) * (qh - q)) / pn_a
    s3 = -(pr_a1 - pn_a) / pn_a * (theta_true - theta_hat)
    closed = s1 + s2 + s3
    l2_g = math.sqrt(math.fsum(pw * (g - gh) ** 2))
    l2_q = math.sqrt(math.fsum(pw * (q - qh) ** 2))
    cs_bound = (float(np.max((1.0 - gh) / gh)) + 1.0) / pn_a * l2_g * l2_q + abs(s3)
    return RemainderReport(
        "theta", direct, closed, cs_bound, terms={"s1": s1, "s2": s2, "s3": s3}
    )


# ---------------------------------------------------------------------------
# four-term decomposition on a sample


def decompose_error(
    dist: FiniteDistribution,
    nuis: FittedNuisance,
    sample: Dataset,
    estimand: str = "psi",
) -> DecompositionReport:
    """Split the scaled plug-in error over an observed sample drawn from ``dist``.

    Every sample covariate row must lie in the support of ``dist`` (the
    sample is the caller's responsibility); the treated-subpopulation
    estimand additionally needs at least one treated row to form P_n(A).
    """
    if estimand not in ("psi", "theta"):
        raise ValueError(f"unknown estimand {estimand!r}")
    ws, w_matrix, pw, q, g, index = _support_tables(dist)
    qh, gh = _nuisance_on_support(nuis, w_matrix)
    try:
        row_idx = np.array(
            [index[tuple(float(x) for x in row)] for row in sample.w], dtype=np.int64
        )
    except KeyError as err:
        raise ZeroMassConditioning(
            f"sample covariate value {err.args[0]} outside the support of the truth"
        ) from None
    n = sample.n
    root_n = math.sqrt(n)
    ind0 = (sample.a == 0).astype(float)
    y = sample.y
    q_i, g_i = q[row_idx], g[row_idx]
    qh_i, gh_i = qh[row_idx], gh[row_idx]

    if estimand == "psi":
        psi_true = psi_of(dist)
        psi_hat = math.fsum(pw * qh)
        phi_true = ind0 * (y - q_i) / g_i + q_i - psi_true
        phi_hat = ind0 * (y - qh_i) / gh_i + qh_i - psi_hat
        mean_true = _mean_phi_hat_psi(dist, index, q, g, psi_true)
        mean_hat = _mean_phi_hat_psi(dist, index, qh, gh, psi_hat)
        rem = remainder_exact_psi(dist, nuis)
        total = root_n * (psi_hat - psi_true)
    else:
        ind1 = 1.0 - ind0
        if not ind1.any():
            raise NoTreatedRows("treated-mean decomposition needs a treated row for P_n(A)")
        pn_a = float(np.mean(sample.a))
        theta_true = theta_of(dist)
        pr_a1 = dist.pr_a1
        theta_hat = math.fsum(pw * (1.0 - g) * qh) / pr_a1
        phi_true = (
            ind0 * (1.0 - g_i) / g_i * (y - q_i) + ind1 * (q_i - theta_true)
        ) / pr_a1
        phi_hat = (
            ind0 * (1.0 - gh_i) / gh_i * (y - qh_i) + ind1 * (qh_i - theta_hat)
        ) / pn_a
        mean_true = _mean_phi_hat_theta(dist, index, q, g, theta_true, pr_a1)
        mean_hat = _mean_phi_hat_theta(dist, index, qh, gh, theta_hat, pn_a)
        rem = remainder_exact_theta(dist, nuis, pn_a)
        total = root_n * (theta_hat - theta_true)

    pn_true = float(np.mean(phi_true))
    pn_hat = float(np.mean(phi_hat))
    clt = root_n * pn_true
    drift = root_n * pn_hat
    ep = root_n * ((pn_hat - pn_true) - (mean_hat - mean_true))
    return DecompositionReport(
        estimand=estimand,
        n=n,
        clt_term=clt,
        drift_term=drift,
        empirical_process_term=ep,
        remainder=root_n * rem.remainder_direct,
        total_error=total,
    )


# ---------------------------------------------------------------------------
# deterministic rate sweep


def remainder_rate_sweep(
    dist: FiniteDistribution,
    truth,
    spec_q: LearnerSpec,
    spec_g: LearnerSpec,
    n_grid: Sequence[int],
    estimand: str = "psi",
) -> RateSweepReport:
    """Remainder magnitude under rate-calibrated oracle nuisances, per n.

    ``truth`` is the (q, g) pair of vectorized callables the oracle
    perturbs; for an exact sweep these should be the true functions of
    ``dist`` (see :func:`truth_functions`).  The slope is the least-squares
    fit of log |remainder| on log n; with exponents (a, b) and no binding
    truncation it approaches -(a+b).  For the treated-subpopulation
    estimand the treated fraction is held at the true Pr(A=1), isolating
    the product terms.
    """
    grid = _check_n_grid(n_grid)
    truth_q, truth_g = truth
    rows = []
    for n in grid:
        nuis = oracle_rate_nuisance(truth_q, truth_g, n, spec_q, spec_g)
        if estimand == "psi":
            rep = remainder_exact_psi(dist, nuis)
        else:
            rep = remainder_exact_theta(dist, nuis, pn_a=dist.pr_a1)
        rows.append((n, rep.remainder_direct, rep.cs_bound))
    magnitudes = [abs(r) for _, r, _ in rows]
    if min(magnitudes) == 0.0:
        raise ConfigError("remainder vanished on the grid; slope undefined (amplitude 0?)")
    slope = float(
        np.polyfit(np.log([n for n, _, _ in rows]), np.log(magnitudes), 1)[0]
    )
    return RateSweepReport(estimand=estimand, rows=tuple(rows), slope=slope)


def _check_n_grid(n_grid: Sequence[int]) -> list:
    """The sample-size grid as a list; it must strictly increase from n >= 1."""
    grid = [int(n) for n in n_grid]
    if len(grid) < 2 or grid[0] < 1 or sorted(set(grid)) != grid:
        raise ConfigError("n_grid must be strictly increasing positive integers")
    return grid


def truth_functions(dist: FiniteDistribution):
    """Vectorized exact (q, g) lookups over the support of ``dist``.

    q is defined on the strata with untreated mass, g on the whole
    covariate support; a row outside raises ZeroMassConditioning.
    """
    gmap = {w: g_of(dist, w) for w in dist.w_support}
    qmap = {w: q_of(dist, w) for w, g in gmap.items() if g > 0.0}
    return _table_lookup(qmap, "conditional mean"), _table_lookup(gmap, "untreated propensity")


def _table_lookup(table: dict, what: str):
    # keys are exact float tuples; -0.0 and 0.0 hash and compare equal
    def core(w):
        try:
            return np.array([table[key] for key in map(tuple, w.tolist())], dtype=float)
        except KeyError as err:
            raise ZeroMassConditioning(f"{what} undefined at {err.args[0]}") from None

    return _predictor(core)
