import hashlib
import warnings
from itertools import permutations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dickesim as ds
from dickesim.synthesis import _polynomial_roots, _synthesis_polynomial
from conftest import (
    ghz_qubit,
    orientation_distance,
    qubit_fidelity,
    random_config,
    roots_oracle,
    s_qubit,
    slocc_config,
    slocc_state,
    synthesis_polynomial_reference,
    w_qubit,
)


def _forward_qubits(config):
    return ds.dicke_coefficients(config).to_qubit_amplitudes()


# ---------------------------------------------------------------------------
# named recipes
# ---------------------------------------------------------------------------

def test_ghz_angles_odd_count():
    config = ds.ghz_config(3, 0.0)
    angles = sorted(np.mod(np.angle(p.beta / p.alpha) / 2, np.pi) for p in config)
    np.testing.assert_allclose(angles, [0.0, np.pi / 3, 2 * np.pi / 3], atol=1e-12)


def test_ghz_angles_even_count_carry_offset():
    config = ds.ghz_config(4, 0.0)
    angles = sorted(np.mod(np.angle(p.beta / p.alpha) / 2, np.pi) for p in config)
    np.testing.assert_allclose(
        angles, [np.pi / 8, np.pi / 8 + np.pi / 4, np.pi / 8 + np.pi / 2,
                 np.pi / 8 + 3 * np.pi / 4], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("phi", [0.0, np.pi / 4, np.pi])
def test_ghz_recipe_reproduces_target(n, phi):
    psi = _forward_qubits(ds.ghz_config(n, phi))
    assert qubit_fidelity(psi, ghz_qubit(n, phi)) >= 1 - 1e-10


def test_ghz_two_emitters_opposite_phase():
    psi = _forward_qubits(ds.ghz_config(2, np.pi))
    target = np.zeros(4, dtype=complex)
    target[0], target[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    assert qubit_fidelity(psi, target) >= 1 - 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("phi", [0.0, np.pi / 4, np.pi])
def test_product_recipe_reproduces_target(n, phi):
    psi = _forward_qubits(ds.s_config(n, phi))
    assert qubit_fidelity(psi, s_qubit(n, phi)) >= 1 - 1e-10


def test_product_recipe_coefficients():
    state = ds.dicke_coefficients(ds.s_config(3, 0.0)).canonicalized()
    expected = np.array([np.sqrt(comb(3, k)) for k in range(4)]) / np.sqrt(8)
    np.testing.assert_allclose(state.coeffs, expected, atol=1e-12)
    state4 = ds.dicke_coefficients(ds.s_config(4, np.pi / 2)).canonicalized()
    expected4 = np.array([np.sqrt(comb(4, k)) * np.exp(1j * k * np.pi / 2)
                          for k in range(5)]) / 4.0
    np.testing.assert_allclose(state4.coeffs, expected4, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("phi", [0.0, np.pi / 4, np.pi])
def test_single_excitation_recipe_reproduces_target(n, phi):
    psi = _forward_qubits(ds.w_config(n, phi))
    assert qubit_fidelity(psi, w_qubit(n, phi)) >= 1 - 1e-10


def test_single_excitation_two_emitters_equals_bell_like_state():
    psi = _forward_qubits(ds.w_config(2, 0.0))
    # |1 0> + |0 1> in the rotated basis expands to |++> - |-->
    direct = np.zeros(4, dtype=complex)
    direct[0], direct[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    assert qubit_fidelity(psi, direct) >= 1 - 1e-12
    assert qubit_fidelity(w_qubit(2, 0.0), direct) >= 1 - 1e-12


def test_recipes_classify_as_expected():
    assert ds.classify_from_config(ds.ghz_config(3, 0.3)).predicted_class == ds.GHZ_CLASS
    assert ds.classify_from_config(ds.w_config(3, 0.3)).predicted_class == ds.W_CLASS
    assert ds.classify_from_config(ds.s_config(3, 0.3)).predicted_class == ds.S_CLASS
    for recipe, expected in ((ds.ghz_config, ds.GHZ_CLASS), (ds.w_config, ds.W_CLASS),
                             (ds.s_config, ds.S_CLASS)):
        state = ds.dicke_coefficients(recipe(3, 0.3))
        assert ds.entanglement_report(state).inferred_class == expected


def test_recipe_preconditions():
    with pytest.raises(ValueError):
        ds.ghz_config(1, 0.0)
    with pytest.raises(ValueError):
        ds.w_config(1, 0.0)
    with pytest.raises(ValueError):
        ds.s_config(0, 0.0)


# ---------------------------------------------------------------------------
# generic synthesis
# ---------------------------------------------------------------------------

def test_synthesize_pure_plus_target_needs_no_roots():
    target = ds.SymmetricState.from_raw(4, [1.0, 0.0, 0.0, 0.0, 0.0])
    config = ds.synthesize(target)
    assert len(config) == 4
    assert all(p.beta == 0.0 for p in config)


def test_companion_overflow_is_a_root_finding_error_without_a_warning():
    # the companion row holds d_1000 / d_2000 scaled by sqrt(C(2000, k)) ratios
    raw = np.zeros(2001)
    raw[1000], raw[2000] = 1.0, 1e-11
    target = ds.SymmetricState.from_raw(2000, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ds.RootFindingError):
            ds.synthesize(target)


@pytest.mark.parametrize("eigvals", ["raise", "nan", "inf"])
def test_a_failing_eigensolver_is_a_root_finding_error(monkeypatch, eigvals):
    def broken(matrix):
        if eigvals == "raise":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.full(len(matrix), float(eigvals), dtype=complex)

    monkeypatch.setattr(np.linalg, "eigvals", broken)
    with pytest.raises(ds.RootFindingError):
        ds.synthesize(ds.dicke_coefficients(ds.ghz_config(3, 0.3)))


def test_synthesize_fully_inverted_target():
    target = ds.SymmetricState.from_raw(4, [0.0, 0.0, 0.0, 0.0, 1.0])
    config = ds.synthesize(target)
    assert all(p.alpha == 0.0 for p in config)
    assert ds.fidelity(ds.dicke_coefficients(config), target) >= 1 - 1e-12


def test_synthesize_maximally_entangled_target_recovers_known_angles():
    target = ds.SymmetricState.from_raw(3, [1.0, 0.0, 0.0, 1.0])
    config = ds.synthesize(target)
    reference = ds.ghz_config(3, 0.0)
    matched = set()
    for p in config:
        hits = [i for i in range(3)
                if i not in matched and ds.same_orientation(p, reference[i])]
        assert hits, "no matching reference orientation"
        matched.add(hits[0])
    assert ds.fidelity(ds.dicke_coefficients(config), target) >= 1 - 1e-10


def test_synthesize_round_trip_random_targets():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        target = ds.SymmetricState.from_raw(
            n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
        config = ds.synthesize(target)
        assert len(config) == n
        assert ds.fidelity(ds.dicke_coefficients(config), target) >= 1 - 1e-8


def test_synthesize_is_idempotent_in_state_space():
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        target = ds.SymmetricState.from_raw(
            n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
        once = ds.dicke_coefficients(ds.synthesize(target))
        twice = ds.dicke_coefficients(ds.synthesize(once))
        assert ds.fidelity(once, twice) >= 1 - 1e-8


def test_synthesize_orientations_ignore_global_phase():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        raw = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        config_a = ds.synthesize(ds.SymmetricState.from_raw(n, raw))
        config_b = ds.synthesize(ds.SymmetricState.from_raw(
            n, raw * np.exp(1j * rng.uniform(0, 2 * np.pi))))
        unmatched = list(config_b)
        for p in config_a:
            hits = [q for q in unmatched if ds.same_orientation(p, q)]
            assert hits
            unmatched.remove(hits[0])
        assert not unmatched


def test_synthesize_pads_with_plus_polarizers():
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        k_top = int(rng.integers(1, n))
        raw = np.zeros(n + 1, dtype=complex)
        raw[:k_top + 1] = rng.normal(size=k_top + 1) + 1j * rng.normal(size=k_top + 1)
        raw[k_top] += 2.0  # keep the leading coefficient well above DEGREE_TOL
        config = ds.synthesize(ds.SymmetricState.from_raw(n, raw))
        assert sum(1 for p in config if p.beta == 0.0) == n - k_top


def _recorded_target(case):
    """``(n, raw coefficients)`` of a target of ``test_synthesized_polarizers_keep_their_bits``."""
    if case == "ghz3":
        return 3, [1.0, 0.0, 0.0, 1.0]
    n, seed = {"random3": (3, 31), "trailing8": (8, 32), "random64": (64, 33),
               "leading12": (12, 34), "tiny20": (20, 35)}[case]
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    if case == "trailing8":
        raw[6:] = 0.0  # five roots, then three pure-+ polarizers
    if case == "leading12":
        raw[:4] = 0.0  # four exact zero roots, appended after the companion's
    if case == "tiny20":
        raw *= 1e-200  # from_raw lifts it by a power of two
    return n, raw


@pytest.mark.parametrize("case, digest", [
    ("ghz3", "e272088461dd6a56f71f5143ae95739b141cceff9195f77f6dfa61cc90f88f48"),
    ("random3", "24d772acfced81a1c5d63352e4fea55dc01e137e6f2451f8bdd88961f28f576e"),
    ("trailing8", "39b67fd8e75a4deba89a752b28d0c768dc925ff251607055dbf917a1d2d8b288"),
    ("random64", "f05047cb9ee1b938cc55427091c4740fea7a3983c02e55ead8514d4c6c164184"),
    ("leading12", "242714e30bf39f2ae44d00230d532da451a7cbc2393b414cc9e9c7f0c34a1076"),
    ("tiny20", "c144b16c6a696f16c55d61dfa21a5339d3bc6ad3f3deb296c5079348bd096ef8"),
])
def test_synthesized_polarizers_keep_their_bits(case, digest):
    # sha256 of every component's float.hex, recorded once from the library
    # with numpy's bundled LAPACK; a change in how a root becomes a
    # polarizer moves a last bit somewhere
    n, raw = _recorded_target(case)
    config = ds.synthesize(ds.SymmetricState.from_raw(n, raw))
    assert len(config) == n
    assert all(type(p.alpha) is type(p.beta) is complex for p in config)
    bits = " ".join(x.hex() for p in config
                    for x in (p.alpha.real, p.alpha.imag, p.beta.real, p.beta.imag))
    assert hashlib.sha256(bits.encode()).hexdigest() == digest


def test_synthesis_polynomial_shape():
    target = ds.SymmetricState.from_raw(3, [0.3, 0.0, 0.4, 0.0])
    coeffs = _synthesis_polynomial(target)
    assert len(coeffs) - 1 == 2
    assert abs(coeffs[-1]) > ds.DEGREE_TOL
    assert len(_polynomial_roots(coeffs)) == 2


@st.composite
def _targets(draw):
    """Random targets at n = 1..64, often with vanishing low-order coefficients."""
    n = draw(st.integers(1, 64))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n + 2,
                          max_size=2 * n + 2))
    raw = np.array(parts[:n + 1]) + 1j * np.array(parts[n + 1:])
    raw[:draw(st.integers(0, n))] = 0.0
    raw[draw(st.integers(0, n))] += 1.0  # never the zero vector
    return ds.SymmetricState.from_raw(n, raw)


@st.composite
def _truncated_targets(draw):
    """Targets whose top coefficients vanish, so the polynomial's degree is below n."""
    n = draw(st.integers(1, 64))
    top = draw(st.integers(0, n - 1))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * top + 2,
                          max_size=2 * top + 2))
    raw = np.zeros(n + 1, dtype=complex)
    raw[:top + 1] = np.array(parts[:top + 1]) + 1j * np.array(parts[top + 1:])
    raw[top] += 1.0  # never the zero vector
    return ds.SymmetricState.from_raw(n, raw)


def _at_the_degree_tolerance(n, k, tail):
    """A normalized state whose last coefficient, at index ``k``, is ``tail``."""
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0], coeffs[k] = np.sqrt(1.0 - abs(tail) ** 2), tail
    return ds.SymmetricState(n, coeffs)


_JUST_ABOVE = np.nextafter(ds.DEGREE_TOL, 1.0)
#: Above DEGREE_TOL by numpy's vectorized modulus, not by Python's abs (libm's
#: hypot), on machines where the two differ in the last bit.
_SPLIT_MODULUS = complex(float.fromhex("0x1.f6275c6dc43adp-41"),
                         float.fromhex("0x1.fcefe97be0732p-42"))


@settings(max_examples=200)
@given(target=st.one_of(_targets(), _truncated_targets()))
@example(target=_at_the_degree_tolerance(3, 2, _JUST_ABOVE))
@example(target=_at_the_degree_tolerance(5, 3, 1j * _JUST_ABOVE))
@example(target=_at_the_degree_tolerance(4, 4, _JUST_ABOVE))
@example(target=_at_the_degree_tolerance(4, 2, ds.DEGREE_TOL))
@example(target=_at_the_degree_tolerance(6, 5, _SPLIT_MODULUS))
def test_synthesis_polynomial_is_the_array_formula_bit_for_bit(target):
    got = _synthesis_polynomial(target)
    assert got.tobytes() == synthesis_polynomial_reference(target).tobytes()


@settings(max_examples=200)
@given(target=_targets())
def test_synthesis_roots_are_np_roots_bit_for_bit(target):
    coeffs = _synthesis_polynomial(target)
    want = roots_oracle(coeffs).astype(complex)
    # bytes, so that the signs of zeros count too
    assert _polynomial_roots(coeffs).tobytes() == want.tobytes()
    assert ds.synthesize(target)[:len(want)] == tuple(ds.Polarizer(r, 1.0) for r in want)


# ---------------------------------------------------------------------------
# SLOCC covariance of inverse design
# ---------------------------------------------------------------------------

#: An invertible map of condition number about 3.
_SLOCC_MAP = np.array([[1.2, 0.4 - 0.3j], [0.5j, 0.7]])
_DEGENERATE = ("eigvals splits a multiple root by about eps**(1/m), so the design of "
               "the mapped state misses the mapped design")


@pytest.mark.parametrize("recipe", [
    ds.ghz_config,
    pytest.param(ds.w_config, marks=pytest.mark.xfail(strict=True, reason=_DEGENERATE)),
    pytest.param(ds.s_config, marks=pytest.mark.xfail(strict=True, reason=_DEGENERATE)),
], ids=["ghz3", "w3", "s3"])
def test_designing_a_mapped_state_maps_the_design(recipe):
    # synthesize(A^{(x)n} psi) is A synthesize(psi), as a multiset of orientations
    psi = ds.dicke_coefficients(recipe(3, 0.3))
    got = ds.synthesize(slocc_state(psi, _SLOCC_MAP))
    want = slocc_config(ds.synthesize(psi), _SLOCC_MAP)
    miss = min(max(map(orientation_distance, got, order)) for order in permutations(want))
    assert miss <= 1e-12
