"""Exact-arithmetic checks on the finite-support machinery."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eifkit import (
    DGPSpec,
    FiniteDistribution,
    Observation,
    SubmodelMix,
    distribution_from_dict,
    distribution_to_dict,
    draw_dataset,
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
from eifkit.distributions import DEFAULT_STEP_GRID, _extrapolate_to_zero
from eifkit.errors import (
    ConfigError,
    InvalidDistribution,
    NoTreatedMass,
    PositivityViolation,
    SupportViolation,
    ZeroMassConditioning,
)

from conftest import RefLaw, assert_close, direction_from, random_distribution


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
    mixed = mix(SubmodelMix(four_atom, direction, e))
    for obs, p in four_atom.atoms:
        want = (1 - e) * p + e * direction.mass_of(obs)
        assert mixed.mass_of(obs) == pytest.approx(want, abs=1e-15)


def test_mix_endpoints(four_atom):
    direction = FiniteDistribution([((1.0, 0, 1.0), 1.0)])
    at_zero = mix(SubmodelMix(four_atom, direction, 0.0))
    assert psi_of(at_zero) == pytest.approx(psi_of(four_atom), abs=1e-15)
    at_one = mix(SubmodelMix(four_atom, direction, 1.0))
    assert len(at_one.atoms) == 1


def test_mix_rejects_bad_inputs(four_atom):
    with pytest.raises(ValueError):
        SubmodelMix(four_atom, four_atom, 1.5)
    off_support = FiniteDistribution([((9.0, 0, 9.0), 1.0)])
    with pytest.raises(SupportViolation):
        SubmodelMix(four_atom, off_support, 0.5)


def test_psi_continuous_along_path(four_atom):
    direction = FiniteDistribution([((1.0, 0, 1.0), 1.0)])
    base_val = psi_of(four_atom)
    gaps = [
        abs(psi_of(mix(SubmodelMix(four_atom, direction, 10.0**-k))) - base_val)
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
        mix(SubmodelMix(dist, FiniteDistribution(direction), e)), atoms))
    assert got == _outcome(lambda: _ref_state(ref.mix(RefLaw(direction), e), atoms))
    # a seeded draw, with the treated rows' counterfactual outcomes
    n = int(rng.integers(1, 50))
    data = draw_dataset(dist, n, seed)
    _, y0 = generate_with_counterfactual(DGPSpec(kind="discrete-saturated", table=dist), n, seed)
    want = ref.draw(n, seed)
    assert repr([data.w.tolist(), data.a.tolist(), data.y.tolist(), y0.tolist()]) == \
        repr([column.tolist() for column in want])


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


def test_from_dict_rejects_malformed():
    with pytest.raises(InvalidDistribution):
        distribution_from_dict({"atoms": "nope"})
    with pytest.raises(InvalidDistribution):
        distribution_from_dict({"atoms": [{"w": [0.0], "a": 0, "y": 1.0}]})
    with pytest.raises(InvalidDistribution):
        distribution_from_dict({})
    # strings and bools are no numbers at the JSON boundary, and a is an integer
    good = {"w": [0.0], "a": 0, "y": 1.5, "p": 1.0}
    assert distribution_from_dict({"atoms": [good]}).atoms[0][0].y == 1.5
    for key, value in [("y", "1.5"), ("p", "0.5"), ("p", "1"), ("w", ["0.0"]), ("w", [True]),
                       ("w", "05"), ("w", True), ("y", True), ("p", True), ("a", True),
                       ("a", "1"), ("a", 1.0), ("a", 2)]:
        with pytest.raises(InvalidDistribution, match=f"'{key}' must be"):
            distribution_from_dict({"atoms": [dict(good, **{key: value})]})


def test_observation_accepts_numpy_scalars():
    obs = Observation(np.array([0.5, -1.0]), np.int64(1), np.float32(2.5))
    assert obs.key == ((0.5, -1.0), 1, 2.5) and type(obs.a) is int


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidDistribution):
        load_distribution(path)
