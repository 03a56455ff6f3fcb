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
* closed form: the product and quotient rules for the weighted mean N/D
  of the estimand table (``distributions``), with h = E[m | W]:

      R = - E_P{(g - ghat)/ghat * hhat * (q - qhat)} / Dhat      (s1)
          + E_P{(hhat - h)(qhat - q)} / Dhat                      (s2)
          - (D - Dhat)/Dhat * (truth - plugin)                    (s3)

  Psi (h = hhat = 1, D = Dhat = 1) keeps s1 alone; theta has all three,
  with Dhat = pn_a.  Each row of the table sums its terms in its own order.

s1 and s2 vanish when either nuisance is exact, s3 whenever the plug-in
equals the truth, and the product form is dominated by a Cauchy-Schwarz
bound built from the L2 nuisance errors.

All expectations under P are compensated sums over the atom table, so the
identities hold to ~1e-14 regardless of how adversarial the nuisances are.
They read the law's support table (``FiniteDistribution.support_table``),
built with the law: each expectation is an array of elementwise terms over
its strata or its atoms, in a fixed operation order, summed by
``distributions._fsum``.  Stratum sums (plug-in values, closed forms, L2 errors)
and atom sums (the mean of the estimated influence function) stay two
separate arithmetic paths, so the direct and closed-form remainders remain
independent derivations.  The influence function, over the atoms and over
the sample rows alike, is ``distributions._influence``, its one array
form; ``decompose_error`` takes its direct remainder from the same atom
mean as its empirical-process term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    FiniteDistribution,
    SupportTable,
    _estimand,
    _fitted_propensity,
    _fsum,
    _influence,
    _mean_phi,
    _strata_rows,
    _value,
    fields_dict,
)
from .errors import ConfigError
from .learners import (
    Dataset,
    FittedNuisance,
    LearnerSpec,
    _is_int,
    _is_list_of,
    _is_real,
    _predictor,
    oracle_rate_nuisance,
)

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
        rows = [{"n": n, "remainder": r, "cs_bound": b} for n, r, b in self.rows]
        return {**fields_dict(self), "rows": rows}


# ---------------------------------------------------------------------------
# support-level evaluation


def _untreated_everywhere(dist: FiniteDistribution) -> SupportTable:
    """The law's support table; ZeroMassConditioning if a stratum has no untreated mass."""
    table = dist.support_table
    _strata_rows(table, table.w, table.q)  # q is NaN where Pr(W=w, A=0) = 0
    return table


def _on_support(dist: FiniteDistribution, nuis: FittedNuisance):
    """The law's support table, with the nuisances predicted on its strata."""
    table = _untreated_everywhere(dist)
    qh = np.asarray(nuis.predict_q(table.w), dtype=float)
    return table, qh, _fitted_propensity(np.asarray(nuis.predict_g(table.w), dtype=float))


def _plugin(estimand: str, table: SupportTable, qh) -> float:
    # the functional with qhat substituted, expectations under the true law:
    # E[h qhat] / D, with h = 1 - g for theta (1.0, an exact factor, for psi)
    row = _estimand(estimand)
    return _fsum(table.pw * row.h(table.g) * qh) / row.denominator(table)


# ---------------------------------------------------------------------------
# remainder identities


def remainder_exact_psi(dist: FiniteDistribution, nuis: FittedNuisance) -> RemainderReport:
    """Exact remainder for the mean untreated outcome, both derivations; the
    plug-in is qhat under the *true* covariate marginal, E_P[qhat(W)]."""
    return _remainder("psi", dist, nuis, 1.0)


def remainder_exact_theta(
    dist: FiniteDistribution, nuis: FittedNuisance, pn_a: float
) -> RemainderReport:
    """Exact remainder for the treated-subpopulation mean, both derivations.

    ``pn_a`` is the treated fraction plugged into the estimated influence
    function (empirically P_n(A); any value in (0, 1] is accepted so the
    identity can be checked away from Pr(A=1)).  The closed form's terms
    s1, s2 and s3 (module docstring, with hhat = 1 - ghat and Dhat = pn_a)
    are reported as ``terms``; s3 vanishes at pn_a = Pr(A=1).
    """
    return _remainder("theta", dist, nuis, pn_a)


def _remainder(estimand: str, dist: FiniteDistribution, nuis: FittedNuisance,
               pn_a, truth=None) -> RemainderReport:
    """The remainder of ``estimand`` by both routes, with its Cauchy-Schwarz
    bound; ``pn_a`` estimates D (theta's treated fraction; 1.0 for psi), and
    ``truth`` is the law's value of ``estimand``, computed when None."""
    table, qh, gh = _on_support(dist, nuis)
    if truth is None:  # before pn_a: a law with Pr(A=1) = 0 raises NoTreatedMass
        truth = _value(estimand, dist)
    if not (_is_real(pn_a) and 0.0 < pn_a <= 1.0):
        raise ConfigError(f"'pn_a', the treated fraction, must lie in (0, 1], got {pn_a!r}")
    pn_a = float(pn_a)
    hat = _plugin(estimand, table, qh)
    direct = truth - hat - _mean_phi(estimand, table, qh, gh, hat, pn_a)
    closed, terms, factor, shift = _estimand(estimand).closed_form(table, qh, gh, truth, hat, pn_a)
    l2_g = math.sqrt(_fsum(table.pw * (table.g - gh) ** 2))  # the L2(P_W) errors of ghat
    l2_q = math.sqrt(_fsum(table.pw * (table.q - qh) ** 2))  # and of qhat
    return RemainderReport(estimand, direct, closed, factor * l2_g * l2_q + shift, terms)


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
    row = _estimand(estimand)
    table, qh, gh = _on_support(dist, nuis)
    row_idx = _strata_rows(table, sample.w)
    # D of the true influence function and its sample estimate in the estimated one
    p_hat = row.share(sample.a)
    truth, p_true = _value(estimand, dist), row.denominator(table)
    hat = _plugin(estimand, table, qh)
    phi_true = _influence(estimand, sample.a, sample.y, table.q[row_idx], table.g[row_idx],
                          truth, p_true)
    phi_hat = _influence(estimand, sample.a, sample.y, qh[row_idx], gh[row_idx], hat, p_hat)
    mean_true = _mean_phi(estimand, table, table.q, table.g, truth, p_true)
    mean_hat = _mean_phi(estimand, table, qh, gh, hat, p_hat)

    root_n = math.sqrt(sample.n)
    pn_true = float(np.mean(phi_true))
    pn_hat = float(np.mean(phi_hat))
    return DecompositionReport(
        estimand=estimand,
        n=sample.n,
        clt_term=root_n * pn_true,
        drift_term=root_n * pn_hat,
        empirical_process_term=root_n * ((pn_hat - pn_true) - (mean_hat - mean_true)),
        # the direct remainder, from the atom mean already formed
        remainder=root_n * (truth - hat - mean_hat),
        total_error=root_n * (hat - truth),
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
    row = _estimand(estimand)
    grid = _check_n_grid(n_grid)
    nuisances = [oracle_rate_nuisance(*truth, n, spec_q, spec_g) for n in grid]
    _untreated_everywhere(dist)  # the error each remainder raises before its truth's
    value = _value(estimand, dist)
    rows = []
    for n, nuis in zip(grid, nuisances):
        rep = _remainder(estimand, dist, nuis, row.denominator(dist.support_table), value)
        rows.append((n, rep.remainder_direct, rep.cs_bound))
    slope = _loglog_slope(grid, [abs(r) for _, r, _ in rows], "remainder")
    return RateSweepReport(estimand=estimand, rows=tuple(rows), slope=slope)


def _check_n_grid(n_grid: Sequence[int]) -> list:
    """The sample-size grid as a list; it must strictly increase from n >= 1."""
    if not (_is_list_of(n_grid, _is_int) and len(n_grid) >= 2 and n_grid[0] >= 1
            and sorted(set(n_grid)) == list(n_grid)):
        raise ConfigError(f"'n_grid' must be a list of at least two strictly increasing "
                          f"positive integers, got {n_grid!r}")
    return [int(n) for n in n_grid]


def _loglog_slope(grid: list, values: list, what: str) -> float:
    """The least-squares slope of log ``values`` on log ``grid``; ConfigError
    naming ``what``, the curve, when one of its values is zero."""
    if min(values) == 0.0:
        raise ConfigError(f"{what} vanished on the grid; slope undefined (amplitude 0?)")
    return float(np.polyfit(np.log(grid), np.log(values), 1)[0])


def truth_functions(dist: FiniteDistribution):
    """Vectorized exact (q, g) lookups over the support of ``dist``.

    q is defined on the strata with untreated mass, g on the whole
    covariate support; a row outside raises ZeroMassConditioning.
    """
    t = dist.support_table
    return (_predictor(lambda w: _strata_rows(t, w, t.q)),
            _predictor(lambda w: _strata_rows(t, w, t.g)))
