"""Exact-arithmetic checks on the finite-support machinery."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eifkit import (
    DGPSpec,
    FiniteDistribution,
    Observation,
    distribution_from_dict,
    distribution_to_dict,
    draw_dataset,
    eif_integral,
    eif_psi,
    eif_theta,
    g_of,
    generate_with_counterfactual,
    load_distribution,
    mix,
    pathwise_derivative_check,
    psi_of,
    q_of,
    save_distribution,
    theta_of,
)
from eifkit.distributions import (DEFAULT_STEP_GRID, _columns, _extrapolate_to_zero, _influence,
                                  _match)
from eifkit.errors import (
    ConfigError,
    InvalidDistribution,
    NoTreatedMass,
    PositivityViolation,
    SupportViolation,
    ZeroMassConditioning,
)
from eifkit.montecarlo import default_logistic_linear, quadrature_distribution

from conftest import RefLaw, assert_close, direction_from, random_distribution

SCRIPTS_DATA = Path(__file__).resolve().parent.parent / "scripts" / "data"


# ---------------------------------------------------------------------------
# frozen-oracle values (worked out by hand from the atom tables)


def test_conditional_means_five_atom(five_atom):
    assert q_of(five_atom, (0.0,)) == pytest.approx(2.0, abs=1e-14)
    assert q_of(five_atom, (1.0,)) == pytest.approx(5.0, abs=1e-14)
    assert g_of(five_atom, (0.0,)) == pytest.approx(0.8, abs=1e-14)
    assert g_of(five_atom, (1.0,)) == pytest.approx(0.6, abs=1e-14)
    assert five_atom.pr_a1 == pytest.approx(0.3, abs=1e-14)


def test_functionals_five_atom(five_atom):
    # psi = 0.5*2 + 0.5*5; theta = (0.1*2 + 0.2*5) / 0.3
    assert psi_of(five_atom) == pytest.approx(3.5, abs=1e-14)
    assert theta_of(five_atom) == pytest.approx(4.0, abs=1e-14)


def test_functionals_four_atom(four_atom):
    assert psi_of(four_atom) == pytest.approx(0.5, abs=1e-15)
    assert theta_of(four_atom) == pytest.approx(0.5, abs=1e-15)


def test_eif_values_five_atom(five_atom):
    # phi(w=0, a=0, y=1) = (1/0.8)(1-2) + 2 - 3.5
    obs = Observation((0.0,), 0, 1.0)
    assert eif_psi(obs, five_atom) == pytest.approx(-2.75, abs=1e-12)
    # treated row only carries the regression term
    obs1 = Observation((0.0,), 1, 9.0)
    assert eif_psi(obs1, five_atom) == pytest.approx(-1.5, abs=1e-12)
    # theta: untreated row weight (1-g)/g / Pr(A=1)
    assert eif_theta(obs, five_atom) == pytest.approx(-5.0 / 6.0, abs=1e-12)
    assert eif_theta(obs1, five_atom) == pytest.approx(-20.0 / 3.0, abs=1e-12)


def test_theta_weighted_masses():
    dist = FiniteDistribution(
        [((0.0, 0, 1.0), 0.25), ((0.0, 1, 1.0), 0.05),
         ((1.0, 0, 2.0), 0.25), ((1.0, 1, 2.0), 0.45)]
    )
    assert theta_of(dist) == pytest.approx(1.9, abs=1e-14)
    assert psi_of(dist) == pytest.approx(0.3 * 1.0 + 0.7 * 2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# invariants under random laws


@given(st.integers(0, 2**32 - 1))
def test_eif_mean_zero(seed):
    rng = np.random.default_rng(seed)
    dist = random_distribution(rng)
    mean_psi = math.fsum(p * eif_psi(obs, dist) for obs, p in dist.atoms)
    mean_theta = math.fsum(p * eif_theta(obs, dist) for obs, p in dist.atoms)
    assert abs(mean_psi) < 1e-10
    assert abs(mean_theta) < 1e-10


@given(st.integers(0, 2**32 - 1))
def test_stratum_residuals_cancel(seed):
    # by construction of q_of, untreated residuals are mean zero per stratum
    rng = np.random.default_rng(seed)
    dist = random_distribution(rng)
    for w in dist.w_support:
        resid = math.fsum(
            p * (obs.y - q_of(dist, w))
            for obs, p in dist.atoms
            if obs.w == w and obs.a == 0
        )
        assert abs(resid) < 1e-13


@given(st.integers(0, 2**32 - 1))
def test_theta_matches_weighted_definition(seed):
    rng = np.random.default_rng(seed)
    dist = random_distribution(rng)
    num = math.fsum(
        dist.w_mass(w) * (1.0 - g_of(dist, w)) * q_of(dist, w)
        for w in dist.w_support
    )
    assert_close(theta_of(dist), num / dist.pr_a1, 1e-12, "theta definition")


# ---------------------------------------------------------------------------
# mixtures


def test_mix_is_convex_combination(four_atom, five_atom):
    # five_atom support (w in {0,1}, integer-ish y) differs from four_atom,
    # so build the direction from four_atom itself
    direction = FiniteDistribution([((0.0, 0, 0.0), 0.5), ((1.0, 1, 1.0), 0.5)])
    e = 0.25
    mixed = mix(four_atom, direction, e)
    for obs, p in four_atom.atoms:
        want = (1 - e) * p + e * direction.mass_of(obs)
        assert mixed.mass_of(obs) == pytest.approx(want, abs=1e-15)


def test_mix_endpoints(four_atom):
    direction = FiniteDistribution([((1.0, 0, 1.0), 1.0)])
    at_zero = mix(four_atom, direction, 0.0)
    assert psi_of(at_zero) == pytest.approx(psi_of(four_atom), abs=1e-15)
    at_one = mix(four_atom, direction, 1.0)
    assert len(at_one.atoms) == 1


def test_mix_rejects_bad_inputs(four_atom):
    with pytest.raises(ValueError):
        mix(four_atom, four_atom, 1.5)
    off_support = FiniteDistribution([((9.0, 0, 9.0), 1.0)])
    with pytest.raises(SupportViolation):
        mix(four_atom, off_support, 0.5)


@pytest.mark.parametrize("e", ["0.5", " 1e-1 ", True, False, None, [0.5]])
def test_mix_refuses_a_weight_that_is_no_real_number(four_atom, e):
    # the rule step_grid follows in pathwise_derivative_check
    with pytest.raises(ValueError, match="mixture weight must be a number in"):
        mix(four_atom, four_atom, e)


@pytest.mark.parametrize("e", [np.float64(0.25), np.float32(0.25), 0.25, 1])
def test_mix_takes_a_numpy_float_or_an_int_weight(four_atom, e):
    direction = FiniteDistribution([((1.0, 0, 1.0), 1.0)])
    got, want = mix(four_atom, direction, e), mix(four_atom, direction, float(e))
    assert got.support_table.atom_p.tolist() == want.support_table.atom_p.tolist()


def _signed_zero_atoms(rng, d):
    """Atoms on a few strata whose zero covariates are 0.0 or -0.0 at random, atom by
    atom, so a stratum's key is its first atom's signs; masses are integer ratios."""
    strata = {tuple(rng.choice([0.0, 1.0, -2.5], size=d).tolist()) for _ in range(4)}
    atoms = []
    for w in sorted(strata):
        for a, y in sorted({(int(rng.integers(2)), float(rng.integers(3))) for _ in range(3)}):
            atoms.append((tuple(-x if x == 0.0 and rng.random() < 0.5 else x for x in w), a, y))
    counts = rng.integers(1, 10, size=len(atoms))
    return [(key, int(c) / float(counts.sum())) for key, c in zip(atoms, counts)]


def _assert_same_table(got, want):
    """Every support-table column equal by np.array_equal and ==, signs of zero
    included, and every array column read-only."""
    for name in RefLaw.COLUMNS:
        x, y = getattr(got, name), getattr(want, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), name
            assert repr(x.tolist()) == repr(y.tolist()), name
            assert not x.flags.writeable, name
        else:
            assert x == y and repr(x) == repr(y), name


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mix_equals_the_law_built_from_the_mixed_atoms(d, seed):
    rng = np.random.default_rng([d, seed])
    base = FiniteDistribution(_signed_zero_atoms(rng, d))
    atoms = base.atoms
    # a direction on a subset of the atoms that leaves out the first, so at e = 1
    # the first stratum's key comes from its next atom, if it has one
    picks = rng.choice(np.arange(1, len(atoms)), size=max(1, (len(atoms) - 1) // 2),
                       replace=False)
    counts = rng.integers(1, 10, size=len(picks))
    direction = FiniteDistribution([(atoms[i][0], int(c) / float(counts.sum()))
                                    for i, c in zip(picks, counts)])
    for e in (0.0, 1e-3, 0.375, 1.0):
        mixed = [(obs, (1.0 - e) * p + e * direction.mass_of(obs)) for obs, p in atoms]
        want = FiniteDistribution([(obs, m) for obs, m in mixed if m > 0.0])
        got = mix(base, direction, e)
        assert len(got) == len(want) == (len(picks) if e == 1.0 else len(atoms))
        _assert_same_table(got.support_table, want.support_table)


def test_mix_drops_an_atom_whose_subnormal_mass_underflows():
    # (1 - e) * 5e-324 rounds to zero at e = 0.5: an atom drops inside the path,
    # the first of its stratum, whose key then comes from the next atom
    base = FiniteDistribution([((-0.0, 0, 1.0), 5e-324), ((0.0, 0, 2.0), 0.5),
                               ((1.0, 0, 1.0), 0.5 - 5e-324)])
    direction = FiniteDistribution([((1.0, 0, 1.0), 1.0)])
    e = 0.5
    want = FiniteDistribution([(obs, (1.0 - e) * p + e * direction.mass_of(obs))
                               for obs, p in base.atoms[1:]])
    _assert_same_table(mix(base, direction, e).support_table, want.support_table)


def test_pathwise_check_equals_a_per_step_mix_reference():
    rng = np.random.default_rng(17)
    for d in (1, 2):
        base = random_distribution(rng, d=d, max_y_per_stratum=3)
        direction = direction_from(base, rng)
        for functional, value_fn in (("psi", psi_of), ("theta", theta_of)):
            for grid in (DEFAULT_STEP_GRID, (0.5, 0.1, 0.01)):
                f0 = value_fn(base)
                diffs = [(value_fn(mix(base, direction, h)) - f0) / h for h in grid]
                fd = _extrapolate_to_zero(grid, diffs)
                integral = eif_integral(functional, base, direction)
                rep = pathwise_derivative_check(functional, base, direction, step_grid=grid)
                assert (rep.functional, rep.finite_difference, rep.eif_integral,
                        rep.discrepancy, rep.step_grid) == \
                    (functional, fd, integral, abs(fd - integral), tuple(grid))


def test_psi_continuous_along_path(four_atom):
    direction = FiniteDistribution([((1.0, 0, 1.0), 1.0)])
    base_val = psi_of(four_atom)
    gaps = [
        abs(psi_of(mix(four_atom, direction, 10.0**-k)) - base_val)
        for k in range(1, 7)
    ]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-5


# ---------------------------------------------------------------------------
# pathwise derivative check


def test_extrapolation_kills_linear_error():
    # f(h) = 3 + 2h + 5h^2 on the default grid: the 2-point Neville step
    # removes the O(h) term exactly, leaving 3 - 5*h0*h1 = 3 - 2.5e-6
    steps = list(DEFAULT_STEP_GRID)
    values = [3.0 + 2.0 * h + 5.0 * h * h for h in steps]
    got = _extrapolate_to_zero(steps, values)
    assert got == pytest.approx(3.0 - 5.0 * steps[0] * steps[1], abs=1e-12)


def test_derivative_check_four_atom_point_mass(four_atom):
    direction = FiniteDistribution([((1.0, 0, 1.0), 1.0)])
    rep = pathwise_derivative_check("psi", four_atom, direction)
    # phi((1,0,1)) = (1/0.5)(1-1) + 1 - 0.5
    assert rep.eif_integral == pytest.approx(0.5, abs=1e-14)
    assert rep.discrepancy < 1e-9
    assert rep.functional == "psi"


def test_derivative_check_respects_grid(four_atom):
    direction = FiniteDistribution([((0.0, 1, 0.0), 1.0)])
    dense = tuple(1e-3 * 0.5**j for j in range(6))
    rep = pathwise_derivative_check("theta", four_atom, direction, step_grid=dense)
    assert rep.step_grid == dense
    assert rep.discrepancy < 1e-8


def test_derivative_check_rejects_bad_grid(four_atom):
    direction = FiniteDistribution([((0.0, 1, 0.0), 1.0)])
    for bad in [(), (0.0, 1e-4), (1e-4, 1e-3), (1e-3, 1e-3), (math.nan,), (1e-3, math.nan),
                (math.inf,), (1e-3, -math.inf)]:
        with pytest.raises(ConfigError):
            pathwise_derivative_check("psi", four_atom, direction, step_grid=bad)
    with pytest.raises(ConfigError):
        pathwise_derivative_check("nope", four_atom, direction)


@given(st.integers(0, 2**32 - 1))
def test_derivative_check_random_pairs(seed):
    rng = np.random.default_rng(seed)
    base = random_distribution(rng)
    direction = direction_from(base, rng)
    grid = tuple(1e-3 * 0.5**j for j in range(6))
    for name in ("psi", "theta"):
        rep = pathwise_derivative_check(name, base, direction, step_grid=grid)
        assert rep.discrepancy < 1e-6


# ---------------------------------------------------------------------------
# the array law against the per-atom reference
#
# Random atom lists in shuffled order, with -0.0 and 0.0 in the covariates
# and outcomes.  Values are compared by repr, which is stricter than ``==``:
# it tells -0.0 from 0.0 and matches NaN, the q of a treated-only stratum.


@st.composite
def _shuffled_atoms(draw, max_size=10):
    d = draw(st.sampled_from([1, 2, 3]))
    w = st.tuples(*[st.sampled_from([-1.0, -0.0, 0.0, 0.5])] * d)
    keys = draw(st.lists(st.tuples(w, st.integers(0, 1), st.sampled_from([-1.0, -0.0, 0.0, 2.0])),
                         min_size=1, max_size=max_size, unique=True))
    counts = draw(st.lists(st.integers(1, 9), min_size=len(keys), max_size=len(keys)))
    return draw(st.permutations([(key, c / sum(counts)) for key, c in zip(keys, counts)]))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as err:  # compared by class and message
        return type(err).__name__, str(err)


def _flip_zeros(w):
    return tuple(-x if x == 0.0 else x for x in w)


def _law_state(dist, probes):
    """Every observable of a library law, as reprs, with the lookups at ``probes``."""
    table = dist.support_table
    return _state({name: getattr(table, name) for name in RefLaw.COLUMNS}, dist.atoms,
                  dist.w_support, lambda: psi_of(dist), lambda: theta_of(dist),
                  lambda w: q_of(dist, w), lambda w: g_of(dist, w), dist.w_mass, dist.mass_of,
                  probes)


def _ref_state(ref, probes):
    return _state(ref.table(), ref.atoms, tuple(ref.w_mass), ref.psi, ref.theta, ref.q, ref.g,
                  lambda w: ref.w_mass.get(tuple(map(float, w)), 0.0),
                  lambda key: ref.atom_mass.get(Observation(*key).key, 0.0), probes)


def _state(table, atoms, w_support, psi, theta, q, g, w_mass, mass_of, probes):
    state = {name: repr(value.tolist() if isinstance(value, np.ndarray) else value)
             for name, value in table.items()}
    state.update(atoms=repr([(obs.key, p) for obs, p in atoms]), w_support=repr(w_support),
                 psi=_outcome(psi), theta=_outcome(theta))
    for (w, a, y), _ in probes:
        for at in (w, _flip_zeros(w), (9.0,) * len(w)):
            state[f"q g w_mass at {at}"] = (_outcome(q, at), _outcome(g, at), _outcome(w_mass, at))
        for key in ((w, a, y), (_flip_zeros(w), a, y), (w, a, 7.0)):
            state[f"mass_of {key}"] = _outcome(mass_of, key)
    return state


@given(atoms=_shuffled_atoms(), e=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_array_law_equals_per_atom_reference(atoms, e, seed):
    dist, ref = FiniteDistribution(atoms), RefLaw(atoms)
    assert _law_state(dist, atoms) == _ref_state(ref, atoms)
    # the scalar influence functions, by ==: only the sign of a zero may differ
    for obs, _ in ref.atoms:
        for lib, want in ((eif_psi, ref.eif_psi), (eif_theta, ref.eif_theta)):
            got, expected = _outcome(lib, obs, dist), _outcome(want, obs)
            assert got == expected or float(got) == float(expected)
    # a mixture toward a random subset of the atoms
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(atoms), size=int(rng.integers(1, len(atoms) + 1)), replace=False)
    counts = rng.integers(1, 10, size=len(picks))
    direction = [(atoms[i][0], int(c) / float(counts.sum())) for i, c in zip(picks, counts)]
    got = _outcome(lambda: _law_state(
        mix(dist, FiniteDistribution(direction), e), atoms))
    assert got == _outcome(lambda: _ref_state(ref.mix(RefLaw(direction), e), atoms))
    # a seeded draw, with the treated rows' counterfactual outcomes
    n = int(rng.integers(1, 50))
    data = draw_dataset(dist, n, seed)
    _, y0 = generate_with_counterfactual(DGPSpec(kind="discrete-saturated", table=dist), n, seed)
    want = ref.draw(n, seed)
    assert repr([data.w.tolist(), data.a.tolist(), data.y.tolist(), y0.tolist()]) == \
        repr([column.tolist() for column in want])


@pytest.mark.parametrize("estimand", ["psi", "theta"])
def test_influence_selects_each_rows_arm_bit_for_bit(estimand):
    # the select form np.where(I(a=0), untreated arm, treated arm), compared
    # as int64 bits: the dropped arm is NaN, +-inf or an overflow on some
    # rows, and the kept values include -0.0
    rng = np.random.default_rng(3)
    n = 400
    a = rng.integers(0, 2, n)
    y, q = rng.normal(size=n), rng.normal(size=n)
    g = rng.uniform(0.05, 0.95, n)
    special = {  # row: (y, q, g), each set on an untreated and a treated row
        0: (np.inf, np.inf, 0.5),        # y - q is NaN
        2: (1.7e308, -1.7e308, 0.5),     # y - q overflows to +inf
        4: (-1.7e308, 1.7e308, 0.5),     # ... and to -inf
        6: (1.0, 0.0, 0.0),              # (y - q) / g is +inf, (1 - g) / g too
        8: (-0.0, -0.0, 0.5),            # y - q is +0.0, q is -0.0
        10: (-0.0, 0.0, 0.25),           # y - q is -0.0
        12: (np.nan, 1.0, 0.5),
        14: (np.inf, np.inf, np.nan),    # two NaNs of opposite sign meet
    }
    for row, values in special.items():
        a[row], a[row + 1] = 0, 1
        y[row], q[row], g[row] = y[row + 1], q[row + 1], g[row + 1] = values
    centre, p1 = (0.0, None) if estimand == "psi" else (-0.0, 0.375)
    untreated = a == 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if estimand == "psi":
            want = np.where(untreated, (y - q) / g, 0.0) + q - centre
        else:
            want = np.where(untreated, (1.0 - g) / g * (y - q), q - centre) / p1
        got = _influence(estimand, a, y, q, g, centre, p1)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.signbit(got).any() and np.isnan(got).any() and np.isinf(got).any()


# ---------------------------------------------------------------------------
# validation and conditioning errors


def test_constructor_rejects_bad_masses():
    with pytest.raises(InvalidDistribution):
        FiniteDistribution([((0.0, 0, 0.0), 0.6), ((1.0, 0, 1.0), 0.6)])
    with pytest.raises(InvalidDistribution):
        FiniteDistribution([((0.0, 0, 0.0), 0.0), ((1.0, 0, 1.0), 1.0)])
    with pytest.raises(InvalidDistribution):
        FiniteDistribution([])


def test_constructor_rejects_duplicates_and_ragged_w():
    with pytest.raises(InvalidDistribution):
        FiniteDistribution([((0.0, 0, 0.0), 0.5), ((0.0, 0, 0.0), 0.5)])
    # -0.0 and 0.0 are one key; the message names the first of the two given
    with pytest.raises(InvalidDistribution, match=r"duplicate atom \(\(-0\.0,\), 0, 1\.0\)"):
        FiniteDistribution([((-0.0, 0, 1.0), 0.5), ((0.0, 0, 1.0), 0.5)])
    with pytest.raises(InvalidDistribution):
        FiniteDistribution([(((0.0,), 0, 0.0), 0.5), (((0.0, 1.0), 0, 0.0), 0.5)])


@pytest.mark.parametrize("atom", [(0.0, 1), (0.0, 0, 1.0, 2.0), 5])
def test_constructor_rejects_an_observation_that_is_not_a_triple(atom):
    with pytest.raises(InvalidDistribution, match="not an"):
        FiniteDistribution([(atom, 1.0)])


@pytest.mark.parametrize("atom", [(0.0, 1), (0.0, 0, 1.0, 2.0), 5])
def test_mass_of_rejects_an_observation_that_is_not_a_triple(atom):
    dist = FiniteDistribution([(((0.0,), 0, 1.0), 1.0)])
    with pytest.raises(InvalidDistribution, match="not a"):
        dist.mass_of(atom)


def test_mass_of_matches_the_whole_table_match_on_every_atom():
    # one lookup per key against one sort-merge of every key with the whole
    # atom table, on the 31-node quadrature law: every atom, the other arm,
    # a y one step off, a y between atoms, a -0.0 for 0.0 and an absent w
    law = quadrature_distribution(default_logistic_linear(), nodes=31)
    t = law.support_table
    assert len(law) == 1922
    keys = []
    for obs, p in law.atoms:
        w, a, y = obs.key
        assert law.mass_of(obs) == p
        keys += [(w, a, y), (w, 1 - a, y), (w, a, np.nextafter(y, np.inf)), (w, a, y - 1e-3),
                 ((-0.0,) + w[1:], a, y), ((w[0] + 0.25,) + w[1:], a, y)]
    rows = _match((t.atom_w, t.atom_a, t.atom_y), _columns(*zip(*keys))[:3])
    want = np.where(rows < 0, 0.0, t.atom_p[rows])
    assert [law.mass_of(key) for key in keys] == want.tolist()
    zero = FiniteDistribution([(((0.0,), 0, 0.0), 0.5), (((0.0,), 1, -1.0), 0.5)])
    assert zero.mass_of(((-0.0,), 0, -0.0)) == 0.5
    assert zero.mass_of(((0.0,), 1, -1.0)) == 0.5
    assert zero.mass_of(((0.0,), 1, 0.0)) == 0.0


def test_a_one_probe_match_equals_its_row_of_the_batch_match():
    # one probe compares it with every reference row by ==, where a batch
    # sort-merges: the same rule, -0.0 equal to 0.0 and NaN equal to nothing
    ref = (np.array([[0.0, 1.0], [0.0, -2.0], [1.5, 1.0], [-0.0, 3.0]]), np.array([0, 1, 0, 1]),
           np.array([2.0, -0.0, 7.0, np.nan]))
    query = (np.array([[-0.0, 1.0], [0.0, -2.0], [1.5, 1.0], [0.0, 3.0], [0.0, 1.0], [9.0, 9.0]]),
             np.array([0, 1, 1, 1, 0, 0]), np.array([2.0, 0.0, 7.0, np.nan, np.nan, 2.0]))
    batch = _match(ref, query)
    assert batch.tolist() == [0, 1, -1, -1, -1, -1]
    for i in range(len(batch)):
        assert _match(ref, tuple(column[i:i + 1] for column in query)).tolist() == [batch[i]]
    # a probe of another covariate count matches nothing, by both routes
    other = (np.zeros((1, 3)), np.zeros(1, dtype=np.int64), np.full(1, 2.0))
    assert _match(ref, other).tolist() == [-1]


@pytest.mark.parametrize("a", [True, False, np.True_])
def test_observation_rejects_a_bool_treatment(a):
    with pytest.raises(InvalidDistribution, match="treatment"):
        Observation((0.0,), a, 1.0)
    with pytest.raises(InvalidDistribution, match="treatment"):
        FiniteDistribution([(((0.0,), a, 1.0), 1.0)])


def test_observation_validation():
    with pytest.raises(InvalidDistribution):
        Observation((0.0,), 2, 0.0)
    with pytest.raises(InvalidDistribution):
        Observation((math.nan,), 0, 0.0)
    with pytest.raises(InvalidDistribution):
        Observation((0.0,), 0, math.inf)


def test_conditioning_errors():
    dist = FiniteDistribution([((0.0, 0, 1.0), 0.5), ((1.0, 1, 2.0), 0.5)])
    with pytest.raises(ZeroMassConditioning):
        q_of(dist, (1.0,))  # no untreated mass at w=1
    with pytest.raises(ZeroMassConditioning):
        q_of(dist, (7.0,))  # off support entirely
    with pytest.raises(PositivityViolation):
        psi_of(dist)
    untreated_only = FiniteDistribution([((0.0, 0, 1.0), 1.0)])
    with pytest.raises(NoTreatedMass):
        theta_of(untreated_only)


def test_theta_tolerates_treated_only_strata():
    # positivity is only needed where treated mass sits; w=1 has both arms
    dist = FiniteDistribution(
        [((0.0, 0, 1.0), 0.4), ((1.0, 0, 2.0), 0.3), ((1.0, 1, 5.0), 0.3)]
    )
    assert theta_of(dist) == pytest.approx(2.0, abs=1e-14)


def test_eif_off_support_raises(four_atom):
    with pytest.raises(ZeroMassConditioning):
        eif_psi(Observation((7.0,), 0, 0.0), four_atom)
    with pytest.raises(ZeroMassConditioning):
        eif_theta(Observation((7.0,), 1, 0.0), four_atom)


def test_lookups_at_a_covariate_vector_of_another_dimension():
    # the 1-d law has no stratum at a 2-d w: every lookup misses, as an absent w does
    dist = load_distribution(SCRIPTS_DATA / "four_atom.json")
    w = (0.0, 1.0)
    for lookup in (q_of, g_of):
        with pytest.raises(ZeroMassConditioning,
                           match=r"^covariate value \(0\.0, 1\.0\) outside the support$"):
            lookup(dist, w)
    assert dist.w_mass(w) == 0.0
    assert dist.mass_of((w, 0, 0.0)) == 0.0 and dist.mass_of(Observation(w, 1, 0.0)) == 0.0
    weights = FiniteDistribution([((w, 0, 0.0), 0.5), ((w, 1, 1.0), 0.5)])
    for functional in ("psi", "theta"):
        with pytest.raises(ZeroMassConditioning,
                           match=r"^covariate value \(0\.0, 1\.0\) outside the support$"):
            eif_integral(functional, dist, weights)
    # a -0.0 probe finds the 0.0 stratum
    assert (q_of(dist, (-0.0,)), g_of(dist, (-0.0,)), dist.w_mass((-0.0,))) == (0.0, 0.5, 0.5)
    assert dist.mass_of(((-0.0,), 1, -0.0)) == 0.25
    assert dist.w_support == ((0.0,), (1.0,))


# ---------------------------------------------------------------------------
# serialization


def test_dict_round_trip(five_atom):
    doc = distribution_to_dict(five_atom)
    back = distribution_from_dict(doc)
    assert back.atoms == five_atom.atoms


def test_file_round_trip(tmp_path, five_atom):
    path = tmp_path / "law.json"
    save_distribution(five_atom, path)
    again = load_distribution(path)
    assert again.atoms == five_atom.atoms
    # the on-disk form is stable JSON
    doc = json.loads(path.read_text())
    assert set(doc) == {"atoms"}


@pytest.mark.parametrize("law", ["four_atom.json", "quadrature-31"])
def test_saved_file_is_byte_equal_to_the_writer_through_observations(tmp_path, law):
    # the writer built every atom as an Observation; the table's columns give the same bytes
    dist = (load_distribution(SCRIPTS_DATA / law) if law.endswith(".json")
            else quadrature_distribution(default_logistic_linear(), nodes=31))
    doc = {"atoms": [{"w": list(obs.w), "a": obs.a, "y": obs.y, "p": p} for obs, p in dist.atoms]}
    save_distribution(dist, tmp_path / "law.json")
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "law.json").read_bytes() == want.encode("utf-8")


def test_from_dict_rejects_malformed():
    with pytest.raises(InvalidDistribution):
        distribution_from_dict({"atoms": "nope"})
    with pytest.raises(InvalidDistribution):
        distribution_from_dict({"atoms": [{"w": [0.0], "a": 0, "y": 1.0}]})
    with pytest.raises(InvalidDistribution):
        distribution_from_dict({})
    good = {"w": [0.0], "a": 0, "y": 1.5, "p": 1.0}
    for atoms, i in (([1], 0), ([good, ["w", "a", "y", "p"]], 1)):
        with pytest.raises(InvalidDistribution, match=f"^atom {i} is not an object$"):
            distribution_from_dict({"atoms": atoms})
    # strings and bools are no numbers at the JSON boundary, and a is an integer
    assert distribution_from_dict({"atoms": [good]}).atoms[0][0].y == 1.5
    for key, value in [("y", "1.5"), ("p", "0.5"), ("p", "1"), ("w", ["0.0"]), ("w", [True]),
                       ("w", "05"), ("w", True), ("y", True), ("p", True), ("a", True),
                       ("a", "1"), ("a", 1.0), ("a", 2)]:
        with pytest.raises(InvalidDistribution, match=f"'{key}' must be"):
            distribution_from_dict({"atoms": [dict(good, **{key: value})]})


# ---------------------------------------------------------------------------
# one atom rule at every entry point
#
# Each entry point gets one bad value in one field; the law entry points put
# it in a second atom after a good one.  The string, bytes and dict cases
# were taken (iterated or parsed as numbers) by the Python entry points
# before the rule was shared with distribution files.

_LAW = FiniteDistribution([(((0.0,), 0, 1.0), 1.0)])
_GOOD_ATOM = {"w": [0.0], "a": 0, "y": 1.0, "p": 0.5}

# entry point -> (the fields it takes, a call with one atom's w, a, y, p)
_ENTRY_POINTS = {
    "constructor, triple": (
        "wayp", lambda w, a, y, p: FiniteDistribution([(((0.0,), 0, 1.0), 0.5), ((w, a, y), p)])),
    "constructor, Observation": (
        "wayp", lambda w, a, y, p: FiniteDistribution(
            [(Observation((0.0,), 0, 1.0), 0.5), (Observation(w, a, y), p)])),
    "Observation": ("way", lambda w, a, y, p: Observation(w, a, y)),
    "distribution_from_dict": (
        "wayp", lambda w, a, y, p: distribution_from_dict(
            {"atoms": [_GOOD_ATOM, {"w": w, "a": a, "y": y, "p": p}]})),
    "mass_of": ("way", lambda w, a, y, p: _LAW.mass_of((w, a, y))),
    "q_of": ("w", lambda w, a, y, p: q_of(_LAW, w)),
    "g_of": ("w", lambda w, a, y, p: g_of(_LAW, w)),
    "w_mass": ("w", lambda w, a, y, p: _LAW.w_mass(w)),
}
_BAD_VALUES = [("w", "12"), ("w", b"1"), ("w", {0.5: 1}), ("w", (math.nan,)),
               ("w", [[0.0], [1.0, 2.0]]), ("w", (10**400,)), ("w", -10**400),
               ("y", "2.5"), ("y", 10**400), ("p", "1.0"), ("p", 10**400), ("a", True),
               ("a", 1.0)]


@pytest.mark.parametrize("entry, field, value", [
    (entry, field, value) for entry, (fields, _) in _ENTRY_POINTS.items()
    for field, value in _BAD_VALUES if field in fields])
def test_every_entry_point_refuses_a_value_the_atom_rule_refuses(entry, field, value):
    atom = {"w": (1.0,), "a": 0, "y": 2.0, "p": 0.5, field: value}
    with pytest.raises(InvalidDistribution, match=f"'{field}' must be"):
        _ENTRY_POINTS[entry][1](**atom)


@pytest.mark.parametrize("entry", ["constructor, triple", "constructor, Observation",
                                   "distribution_from_dict"])
def test_law_entry_points_refuse_covariate_rows_of_two_lengths(entry):
    with pytest.raises(InvalidDistribution, match=r"share one dimension, got lengths \[1, 2\]"):
        _ENTRY_POINTS[entry][1]((1.0, 2.0), 0, 2.0, 0.5)


def test_entry_points_share_one_message_and_one_table():
    bad = {"w": [0.0], "a": 0, "y": 1.0, "p": 1.0}, {"w": "12", "a": 0, "y": 2.0, "p": 0.5}
    messages = set()
    for build in (lambda: distribution_from_dict({"atoms": list(bad)}),
                  lambda: FiniteDistribution([((b["w"], b["a"], b["y"]), b["p"]) for b in bad])):
        with pytest.raises(InvalidDistribution) as err:
            build()
        messages.add(str(err.value))
    assert messages == {"atom 1: 'w' must be a finite number or a non-empty list of them, "
                        "got '12'"}
    # numpy values, a bare number and a 1-d array are taken alike
    doc = {"atoms": [{"w": [0.5], "a": 0, "y": 1.0, "p": 0.25},
                     {"w": [0.5], "a": 1, "y": -2.0, "p": 0.75}]}
    want = distribution_from_dict(doc)
    got = FiniteDistribution([((np.array([0.5]), np.int64(0), np.float32(1.0)), np.float64(0.25)),
                              (Observation(0.5, 1, -2.0), 0.75)])
    assert repr(got.support_table) == repr(want.support_table)
    assert got.atoms == want.atoms and [type(obs.a) for obs, _ in got.atoms] == [int, int]


def test_observation_accepts_numpy_scalars():
    obs = Observation(np.array([0.5, -1.0]), np.int64(1), np.float32(2.5))
    assert obs.key == ((0.5, -1.0), 1, 2.5) and type(obs.a) is int


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidDistribution):
        load_distribution(path)
