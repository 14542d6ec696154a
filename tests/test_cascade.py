import cmath
import copy
import dataclasses
import pickle
import tracemalloc
from collections import Counter
from itertools import permutations, product
from math import comb, factorial, lgamma, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickesim as ds
from dickesim.cascade import _ket_table, _product_polynomial
from dickesim.core import _sqrt_binomials
from conftest import (
    MINUS,
    PLUS,
    enumerate_paths,
    oracle_forward,
    product_polynomial_oracle,
    random_config,
    random_polarizer,
    reference_ket_table,
    reference_pyramid,
    reference_pyramid_edges,
    register_amps,
    slocc_config,
    slocc_qubit,
)


def test_all_plus_configuration():
    config = ds.PolarizerConfig((PLUS,) * 3)
    state = ds.dicke_coefficients(config)
    np.testing.assert_allclose(state.coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_uniformly_spread_angles_give_maximal_entanglement():
    config = ds.PolarizerConfig.from_angles([0.0, np.pi / 3, 2 * np.pi / 3])
    state = ds.dicke_coefficients(config)
    target = ds.SymmetricState.from_raw(3, [1.0, 0.0, 0.0, 1.0])
    assert ds.fidelity(state, target) >= 1 - 1e-10


def test_two_detector_closed_form_constants_match_oracle():
    rng = np.random.default_rng(21)
    p1, p2 = random_polarizer(rng), random_polarizer(rng)
    config = ds.PolarizerConfig((p1, p2))
    closed = ds.dicke_coefficients(config).canonicalized()
    brute = oracle_forward(config).canonicalized()
    np.testing.assert_allclose(closed.coeffs, brute.coeffs, atol=1e-12)
    # coefficient pattern (a1 a2, (a1 b2 + a2 b1)/sqrt(2), b1 b2), common scale
    pattern = np.array([p1.alpha * p2.alpha,
                        (p1.alpha * p2.beta + p2.alpha * p1.beta) / np.sqrt(2),
                        p1.beta * p2.beta])
    expected = ds.SymmetricState.from_raw(2, pattern)
    assert ds.fidelity(closed, expected) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_matches_brute_force_oracle():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        config = random_config(rng, n)
        assert ds.fidelity(ds.dicke_coefficients(config),
                           oracle_forward(config)) >= 1 - 1e-10


def test_polarizer_order_is_irrelevant():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        config = random_config(rng, n)
        shuffled = ds.PolarizerConfig(tuple(config[i] for i in rng.permutation(n)))
        assert ds.fidelity(ds.dicke_coefficients(config),
                           ds.dicke_coefficients(shuffled)) >= 1 - 1e-12


def test_coefficient_vanishing_bounds():
    rng = np.random.default_rng(24)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        n_plus = int(rng.integers(0, n))
        n_minus = int(rng.integers(0, n - n_plus))
        pols = ([PLUS] * n_plus
                + [MINUS] * n_minus
                + [random_polarizer(rng) for _ in range(n - n_plus - n_minus)])
        config = ds.PolarizerConfig(tuple(pols))
        coeffs = ds.dicke_coefficients(config).coeffs
        beta_count = sum(1 for p in config if p.beta != 0)
        alpha_count = sum(1 for p in config if p.alpha != 0)
        for k in range(n + 1):
            if k > beta_count or n - k > alpha_count:
                assert coeffs[k] == 0.0


@pytest.mark.parametrize("n", [68, 96, 200, 1030, 2000])
def test_identical_polarizers_give_binomial_product_state_at_large_n(n):
    # n identical polarizers give d_k = sqrt(C(n, k)) alpha^(n-k) beta^k,
    # normalized since |alpha|^2 + |beta|^2 = 1; spelled out in log space
    # because C(n, k) exceeds int64 from n = 68 on and the float range from
    # n = 1030 on
    p = random_polarizer(np.random.default_rng(n))
    log_d = np.array([0.5 * (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1))
                      + (n - k) * cmath.log(p.alpha) + k * cmath.log(p.beta)
                      for k in range(n + 1)])
    expected = np.exp(log_d)
    expected /= np.linalg.norm(expected)
    state = ds.dicke_coefficients(ds.PolarizerConfig((p,) * n))
    np.testing.assert_allclose(state.coeffs, expected, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("n", [2, 67, 500, 1029])
def test_binomial_roots_are_plain_float_roots_below_the_float_range(n):
    from dickesim.core import _sqrt_binomials

    plain = np.sqrt([float(comb(n, k)) for k in range(n + 1)])
    assert np.array_equal(_sqrt_binomials(n), plain)


@pytest.mark.parametrize("n", [2054, 2500])
def test_dicke_coefficients_beyond_the_float_range_are_too_large(n):
    config = ds.PolarizerConfig((ds.Polarizer.linear(0.3),) * n)
    with pytest.raises(ds.TooLargeError):
        ds.dicke_coefficients(config)


# ---------------------------------------------------------------------------
# pyramid
# ---------------------------------------------------------------------------

def test_pyramid_first_levels():
    rng = np.random.default_rng(25)
    config = random_config(rng, 3)
    levels = ds.build_pyramid(config)
    assert levels[0].terms == {"eee": 1.0 + 0.0j}
    assert len(levels[1].terms) == 6
    for ket, amp in levels[1].terms.items():
        expected = config[0].alpha if "+" in ket else config[0].beta
        assert amp == pytest.approx(expected)
    for m, level in enumerate(levels):
        assert level.step == m
        for ket in level.terms:
            assert ket.count("e") == 3 - m


def test_pyramid_single_emitter():
    p = random_polarizer(np.random.default_rng(26))
    levels = ds.build_pyramid(ds.PolarizerConfig((p,)))
    assert len(levels) == 2
    assert levels[1].terms["+"] == pytest.approx(p.alpha)
    assert levels[1].terms["-"] == pytest.approx(p.beta)


def test_pyramid_final_level_reproduces_closed_form():
    rng = np.random.default_rng(27)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        config = random_config(rng, n)
        levels = ds.build_pyramid(config)
        amps = register_amps(n, levels[-1].terms)
        projected = ds.project_symmetric(ds.EmitterRegister(n, amps))
        assert ds.fidelity(projected, ds.dicke_coefficients(config)) >= 1 - 1e-10


def test_pyramid_levels_match_register_cascade():
    rng = np.random.default_rng(30)
    for n in [2, 3, 4, 5, 6, 7] * 2:
        config = random_config(rng, n)
        levels = ds.build_pyramid(config)
        reg = ds.EmitterRegister.ground(n)
        for m, p in enumerate(config, start=1):
            reg = ds.apply_detection(reg, p)
            dense = register_amps(n, levels[m].terms)
            np.testing.assert_allclose(dense, reg.amps, rtol=0, atol=1e-12)


def _assert_pyramid_matches_string_reference(config, same_kets=True):
    """Levels within round-off of the string expansion, edges equal to its edges.

    With ``same_kets`` the key sets must be equal too.  Without it a ket may
    be missing on one side only if the other side holds a round-off residue
    there: the closed form can give an exact zero where the expansion's sums
    leave one, and vice versa.
    """
    n = len(config)
    want = reference_pyramid(config)
    levels = ds.build_pyramid(config)
    assert [level.step for level in levels] == list(range(n + 1))
    for level, terms in zip(levels, want):
        if same_kets:
            assert level.terms.keys() == terms.keys()
        scale = max(abs(amp) for amp in terms.values())
        for ket in level.terms.keys() | terms.keys():
            assert abs(level.terms.get(ket, 0.0) - terms.get(ket, 0.0)) <= 1e-13 * scale
    assert ds.pyramid_edges(config, levels) == reference_pyramid_edges(
        config, [level.terms for level in levels])


def test_pyramid_matches_string_reference():
    rng = np.random.default_rng(31)
    for n in range(1, 9):
        for trial in range(3):
            pols = list(random_config(rng, n))
            if trial:
                # sigma+/- polarizers leave structural zeros in the levels
                for i in rng.choice(n, size=(n + 1) // 2, replace=False):
                    pols[i] = PLUS if rng.random() < 0.5 else MINUS
            _assert_pyramid_matches_string_reference(ds.PolarizerConfig(tuple(pols)))
    # the named recipes cancel amplitudes on the way to their targets
    for n in range(3, 9):
        for phi in (0.0, 0.9):
            for recipe in (ds.ghz_config, ds.w_config, ds.s_config):
                _assert_pyramid_matches_string_reference(recipe(n, phi), same_kets=False)


_unit_parts = st.floats(-1.0, 1.0)
_polarizers = st.one_of(
    st.sampled_from([PLUS, MINUS]),
    st.tuples(_unit_parts, _unit_parts, _unit_parts, _unit_parts)
    .filter(lambda v: np.hypot(np.hypot(v[0], v[1]), np.hypot(v[2], v[3])) > 1e-3)
    .map(lambda v: ds.Polarizer(complex(v[0], v[1]), complex(v[2], v[3]))))
_configs = st.lists(_polarizers, min_size=1, max_size=64).map(
    lambda pols: ds.PolarizerConfig(tuple(pols)))


@settings(max_examples=200)
@given(config=_configs)
def test_product_polynomial_is_the_numpy_scalar_recurrence_bit_for_bit(config):
    want = product_polynomial_oracle(config)
    # bytes, so that the signs of zeros count too
    assert _product_polynomial(config).tobytes() == want.tobytes()
    closed = ds.SymmetricState.from_raw(len(config), want / _sqrt_binomials(len(config)))
    assert ds.dicke_coefficients(config).coeffs.tobytes() == closed.coeffs.tobytes()


def test_pyramid_edges_share_the_pyramid_ket_strings():
    # one string object per ket keeps the memory of a large pyramid and its
    # edge list to the kets themselves
    config = random_config(np.random.default_rng(32), 5)
    levels = ds.build_pyramid(config)
    kets = {id(ket) for level in levels for ket in level.terms}
    for _, parent, child, _ in ds.pyramid_edges(config, levels):
        assert id(parent) in kets and id(child) in kets


@pytest.mark.parametrize("n", range(1, 10))
def test_ket_table_matches_the_string_slicing_reference(n):
    table, want = _ket_table(n), reference_ket_table(n)
    assert len(table) == len(want) == n + 1
    probe = [complex(k, -k) for k in range(n + 1)]
    for m, ((kets, pick, known, parents, children),
            (want_kets, want_pick, want_known, want_parents, want_children)) in enumerate(
                zip(table, want)):
        assert type(kets) is tuple and kets == want_kets
        assert pick(probe) == want_pick(probe)
        assert known == want_known
        assert parents == want_parents and children == want_children
        # one string object per ket: edge endpoints are the kets of their levels
        level = {id(ket) for ket in kets}
        assert all(id(ket) in level for ket in parents)
        below = {id(ket) for ket in table[m + 1][0]} if m < n else set()
        assert all(id(ket) in below for ket in children)


def test_ket_table_build_peaks_near_its_retained_size():
    # the string build peaked at 1.18x; a table of int64 digits at 1.58x
    _ket_table.cache_clear()
    tracemalloc.start()
    try:
        _ket_table(8)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * retained


def test_pyramid_edges_reject_foreign_parent_kets():
    config = ds.PolarizerConfig.from_angles([0.0, 1.0, 2.0])
    levels = ds.build_pyramid(config)
    for bad in ("+e", "eeee", "e+x", "+++", 1, -(10 ** 5000)):
        forged = list(levels)
        forged[1] = ds.PyramidLevel(1, {**levels[1].terms, bad: 1.0 + 0.0j})
        with pytest.raises(ds.ConfigError):
            ds.pyramid_edges(config, forged)


@pytest.mark.parametrize("forge", [lambda levels: levels[:1],
                                   lambda levels: levels + levels[-1:],
                                   lambda levels: [None] * 4,
                                   lambda levels: 5],
                         ids=["short", "long", "not-levels", "not-a-sequence"])
def test_pyramid_edges_need_one_level_per_step(forge):
    config = ds.PolarizerConfig.from_angles([0.0, 1.0, 2.0])
    with pytest.raises(ds.ConfigError):
        ds.pyramid_edges(config, forge(ds.build_pyramid(config)))


def test_pyramid_final_level_matches_path_enumeration():
    rng = np.random.default_rng(28)
    config = random_config(rng, 3)
    final = ds.build_pyramid(config)[-1].terms
    for ket, amp in enumerate_paths(config).items():
        assert final.get(ket, 0.0) == pytest.approx(amp, abs=1e-12)


def test_pyramid_final_level_sums_path_classes():
    # the n! orderings that reach a ket with k minuses fall into C(n, k)
    # classes, one per set of detectors that put their emitter into "-",
    # each of k! (n-k)! orderings with one amplitude product
    rng = np.random.default_rng(30)
    for n in range(1, 6):
        config = random_config(rng, n)
        final = ds.build_pyramid(config)[-1].terms
        for ket in ("".join(letters) for letters in product("+-", repeat=n)):
            k = ket.count("-")
            classes = Counter(frozenset(d for d, e in enumerate(order) if ket[e] == "-")
                              for order in permutations(range(n)))
            assert len(classes) == comb(n, k)
            assert set(classes.values()) == {factorial(k) * factorial(n - k)}
            amp = sum(size * prod(p.beta if d in minus else p.alpha
                                  for d, p in enumerate(config))
                      for minus, size in classes.items())
            assert final[ket] == pytest.approx(amp, abs=1e-12)


@pytest.mark.parametrize("step", [-1, 1.5, None, "x", True, -(10 ** 5000), 1,
                                  np.array([0, 1])],
                         ids=["negative", "float", "none", "string", "bool", "huge",
                              "not-its-position", "array"])
def test_pyramid_text_rejects_malformed_steps(step):
    """The step check that guarded the pyramid text dump now guards ``pyramid_edges``:
    level ``m`` must have the int step ``m``."""
    config = ds.PolarizerConfig.from_angles([0.0, 1.0])
    levels = ds.build_pyramid(config)
    levels[0] = ds.PyramidLevel(step, levels[0].terms)
    with pytest.raises(ds.ConfigError):
        ds.pyramid_edges(config, levels)


def test_pyramid_edges_recompose_the_cascade():
    rng = np.random.default_rng(29)
    config = random_config(rng, 3)
    levels = ds.build_pyramid(config)
    edges = ds.pyramid_edges(config, levels)
    # walk the weighted transition graph level by level
    amps = {"eee": 1.0 + 0.0j}
    for m in range(1, 4):
        nxt: dict = {}
        for level, parent, child, weight in edges:
            if level == m and parent in amps:
                nxt[child] = nxt.get(child, 0.0) + amps[parent] * weight
        amps = nxt
    for ket, amp in levels[-1].terms.items():
        assert amps[ket] == pytest.approx(amp, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        ds.PolarizerConfig(())
    with pytest.raises(ds.ConfigError):
        ds.PolarizerConfig((1.0,))


def _signed_zero_config(zero):
    return ds.PolarizerConfig((ds.Polarizer(zero, 1.0), ds.Polarizer(complex(1.0, zero), zero),
                               ds.Polarizer.linear(0.4)))


def test_a_cached_hash_is_the_hash_of_an_equal_fresh_configuration():
    config = _signed_zero_config(-0.0)
    cached = hash(config)
    assert hash(config) == cached  # now from the cache
    for other in (_signed_zero_config(0.0), _signed_zero_config(-0.0), copy.copy(config),
                  pickle.loads(pickle.dumps(config))):
        assert other == config and hash(other) == cached
    # a copy or a pickle of a configuration never hashed computes its own
    fresh = _signed_zero_config(-0.0)
    assert hash(copy.copy(fresh)) == hash(pickle.loads(pickle.dumps(fresh))) == cached


def test_caching_the_hash_leaves_equality_repr_and_fields_alone():
    config, twin = _signed_zero_config(0.0), _signed_zero_config(0.0)
    before = repr(config)
    hash(config)
    assert repr(config) == repr(twin) == before
    assert [f.name for f in dataclasses.fields(config)] == ["polarizers"]
    assert config == twin and not config != twin
    assert config != ds.PolarizerConfig(config.polarizers[::-1])
    rebuilt = dataclasses.replace(config)
    assert rebuilt == config and hash(rebuilt) == hash(twin)


@st.composite
def _invertible_maps(draw):
    """``U diag(1, s) V``, ``U`` and ``V`` unitary, ``s`` in [0.1, 1]: condition number <= 10."""
    def unitary(theta, phi, lam):
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -np.exp(1j * lam) * s],
                         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])
    angles = [draw(st.floats(-np.pi, np.pi)) for _ in range(6)]
    return unitary(*angles[:3]) @ np.diag([1.0, draw(st.floats(0.1, 1.0))]) @ unitary(*angles[3:])


@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), a=_invertible_maps())
def test_an_invertible_map_of_every_polarizer_maps_the_output_by_its_tensor_power(n, seed, a):
    # SLOCC covariance: c_i -> A c_i for every polarizer gives A^{(x)n} psi
    assert np.linalg.cond(a) <= 10.0 + 1e-9
    config = random_config(np.random.default_rng(seed), n)
    mapped = ds.dicke_coefficients(slocc_config(config, a)).to_qubit_amplitudes()
    want = slocc_qubit(ds.dicke_coefficients(config).to_qubit_amplitudes(), a)
    assert 1.0 - abs(np.vdot(want, mapped)) ** 2 / np.vdot(want, want).real <= 1e-12
