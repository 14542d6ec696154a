import itertools
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dickesim as ds
from dickesim.core import REGISTER_SIZE_LIMIT, _unit_vector
from dickesim.synthesis import _polynomial_roots, _synthesis_polynomial
from conftest import (
    MINUS,
    PLUS,
    enumerate_paths,
    ghz_qubit,
    ket_amplitudes,
    ket_string,
    qubit_fidelity,
    random_config,
    random_polarizer,
    register_amps,
    s_qubit,
    unit_vector_reference,
)


# ---------------------------------------------------------------------------
# polarizers
# ---------------------------------------------------------------------------

def test_make_polarizer_passes_through_normalized():
    p = ds.Polarizer(1.0, 0.0)
    assert p.alpha == 1.0 and p.beta == 0.0


def test_make_polarizer_rescales():
    p = ds.Polarizer(2.0, 0.0)
    assert p.alpha == pytest.approx(1.0) and p.beta == 0.0


def test_make_polarizer_matches_linear_angle():
    theta = np.pi / 4
    p = ds.Polarizer(np.exp(-1j * theta), np.exp(1j * theta))
    q = ds.Polarizer.linear(theta)
    assert p.alpha == pytest.approx(np.exp(-1j * theta) / np.sqrt(2))
    assert p.beta == pytest.approx(np.exp(1j * theta) / np.sqrt(2))
    assert ds.same_orientation(p, q)
    np.testing.assert_allclose([p.alpha, p.beta], [q.alpha, q.beta], atol=1e-15)


def test_make_polarizer_rejects_zero_vector():
    with pytest.raises(ds.ConfigError):
        ds.Polarizer(0.0, 0.0)


def test_make_polarizer_rejects_nonfinite():
    with pytest.raises(ValueError):
        ds.Polarizer(np.nan, 1.0)


@pytest.mark.parametrize("alpha, beta", [(np.nan, 1.0), (1.0, np.inf),
                                         (complex(1.0, -np.inf), 0.0),
                                         (0.0, complex(np.nan, 0.0))])
def test_non_finite_polarizer_is_a_config_error(alpha, beta):
    with pytest.raises(ds.ConfigError):
        ds.Polarizer(alpha, beta)


@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
def test_non_finite_linear_angle_is_a_config_error(theta):
    with pytest.raises(ds.ConfigError):
        ds.Polarizer.linear(theta)


def test_polarizer_unit_norm_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = random_polarizer(rng)
        assert abs(abs(p.alpha) ** 2 + abs(p.beta) ** 2 - 1.0) <= 1e-12


def test_linear_angle_reduced_to_half_turn():
    def at(t):
        return pytest.approx([np.exp(-1j * t) / np.sqrt(2), np.exp(1j * t) / np.sqrt(2)])

    p = ds.Polarizer.linear(np.pi + 0.3)
    assert [p.alpha, p.beta] == at(0.3)
    p = ds.Polarizer.linear(-0.2)
    assert [p.alpha, p.beta] == at(np.pi - 0.2)
    # pi itself, and a tiny negative angle that wraps onto pi, land on 0
    assert ds.Polarizer.linear(np.pi) == ds.Polarizer.linear(0.0)
    assert ds.Polarizer.linear(-1e-17) == ds.Polarizer.linear(0.0)
    # reduction only changes a global phase, never the orientation
    a = ds.Polarizer.linear(0.7)
    b = ds.Polarizer.linear(0.7 + np.pi)
    assert ds.same_orientation(a, b)


def test_same_orientation_examples():
    assert ds.same_orientation(PLUS, PLUS)
    horizontal = ds.Polarizer.linear(0.0)
    vertical = ds.Polarizer.linear(np.pi / 2)
    assert not ds.same_orientation(horizontal, vertical)
    p = random_polarizer(np.random.default_rng(5))
    phased = ds.Polarizer(np.exp(0.73j) * p.alpha, np.exp(0.73j) * p.beta)
    assert ds.same_orientation(p, phased)


def test_same_orientation_equivalence_relation():
    rng = np.random.default_rng(7)
    # well-separated base orientations, each duplicated with a random phase
    base = []
    while len(base) < 6:
        p = random_polarizer(rng)
        if all(abs(p.alpha * q.beta - q.alpha * p.beta) > 1e-3 for q in base):
            base.append(p)
    sample = []
    for p in base:
        sample.append(p)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        sample.append(ds.Polarizer(phase * p.alpha, phase * p.beta))
    for p in sample:
        assert ds.same_orientation(p, p)
    for p, q in itertools.combinations(sample, 2):
        assert ds.same_orientation(p, q) == ds.same_orientation(q, p)
    for p, q, r in itertools.permutations(sample, 3):
        if ds.same_orientation(p, q) and ds.same_orientation(q, r):
            assert ds.same_orientation(p, r)


# ---------------------------------------------------------------------------
# detection operator
# ---------------------------------------------------------------------------

def test_apply_detection_single_emitter():
    reg = ds.apply_detection(ds.EmitterRegister.ground(1), PLUS)
    np.testing.assert_allclose(reg.amps, [0.0, 1.0, 0.0])


def test_apply_detection_two_emitters_branches_coherently():
    p = random_polarizer(np.random.default_rng(2))
    amps = ket_amplitudes(ds.apply_detection(ds.EmitterRegister.ground(2), p))
    assert amps["+e"] == pytest.approx(p.alpha)
    assert amps["-e"] == pytest.approx(p.beta)
    assert amps["e+"] == pytest.approx(p.alpha)
    assert amps["e-"] == pytest.approx(p.beta)
    assert amps["ee"] == 0.0


def test_three_detections_match_path_enumeration():
    rng = np.random.default_rng(3)
    config = random_config(rng, 3)
    reg = ds.EmitterRegister.ground(3)
    for p in config:
        reg = ds.apply_detection(reg, p)
    amps = ket_amplitudes(reg)
    for ket, amp in enumerate_paths(config).items():
        assert amps[ket] == pytest.approx(amp, abs=1e-12)


def test_corner_ket_collects_all_orderings():
    rng = np.random.default_rng(4)
    config = random_config(rng, 3)
    reg = ds.EmitterRegister.ground(3)
    for p in config:
        reg = ds.apply_detection(reg, p)
    product = config[0].alpha * config[1].alpha * config[2].alpha
    assert reg.amps.reshape(3, 3, 3)[1, 1, 1] == pytest.approx(6 * product)


def test_apply_detection_raises_when_nothing_excited():
    reg = ds.EmitterRegister.ground(2)
    p = ds.Polarizer.linear(0.3)
    reg = ds.apply_detection(reg, p)
    reg = ds.apply_detection(reg, p)
    with pytest.raises(ds.ZeroStateError):
        ds.apply_detection(reg, p)


def _two_emitter_register(amp):
    amps = np.zeros(9, dtype=complex)
    amps[3] = amps[1] = amp  # kets (e,+) and (+,e): both feed (+,+)
    return ds.EmitterRegister(2, amps)


def test_overflowing_detection_is_a_config_error():
    # the two branches into (+,+) add to sqrt(2) * amp, beyond the float range
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ds.ConfigError, match="amplitudes must be finite"):
            ds.apply_detection(_two_emitter_register(1.7e308), ds.Polarizer(1, 1))
    reg = ds.apply_detection(_two_emitter_register(1.2e308), ds.Polarizer(1, 1))
    assert np.isfinite(reg.amps).all() and reg.amps[4] != 0.0


def test_apply_detection_is_linear():
    rng = np.random.default_rng(8)
    n = 3
    p = random_polarizer(rng)
    for _ in range(100):
        u = rng.normal(size=3 ** n) + 1j * rng.normal(size=3 ** n)
        v = rng.normal(size=3 ** n) + 1j * rng.normal(size=3 ** n)
        x, y = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        combined = ds.apply_detection(ds.EmitterRegister(n, x * u + y * v), p)
        du = ds.apply_detection(ds.EmitterRegister(n, u), p)
        dv = ds.apply_detection(ds.EmitterRegister(n, v), p)
        np.testing.assert_allclose(combined.amps, x * du.amps + y * dv.amps,
                                   atol=1e-10)


def test_detection_excitation_bookkeeping():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        config = random_config(rng, n)
        reg = ds.EmitterRegister.ground(n)
        for m, p in enumerate(config, start=1):
            reg = ds.apply_detection(reg, p)
            for idx in np.nonzero(np.abs(reg.amps) > 0)[0]:
                assert ket_string(int(idx), n).count("e") == n - m


def test_register_invariant_under_emitter_permutation():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        config = random_config(rng, n)
        reg = ds.EmitterRegister.ground(n)
        for p in config:
            reg = ds.apply_detection(reg, p)
        # permuting the emitters permutes the axes of the (3,)*n tensor
        tensor = reg.amps.reshape((3,) * n)
        np.testing.assert_allclose(tensor.transpose(rng.permutation(n)), tensor, atol=1e-10)


# ---------------------------------------------------------------------------
# symmetric projection and states
# ---------------------------------------------------------------------------

def test_project_symmetric_zero_excitation_sector():
    amps = register_amps(2, {"++": 1.0})
    state = ds.project_symmetric(ds.EmitterRegister(2, amps))
    np.testing.assert_allclose(state.coeffs, [1.0, 0.0, 0.0], atol=1e-15)


def test_project_symmetric_single_excitation_sector():
    amps = register_amps(2, {"+-": 1 / np.sqrt(2), "-+": 1 / np.sqrt(2)})
    state = ds.project_symmetric(ds.EmitterRegister(2, amps))
    np.testing.assert_allclose(state.coeffs, [0.0, 1.0, 0.0], atol=1e-15)


def test_cascade_with_one_flipped_polarizer_lands_in_one_sector():
    config = [PLUS, PLUS, MINUS]
    reg = ds.EmitterRegister.ground(3)
    for p in config:
        reg = ds.apply_detection(reg, p)
    state = ds.project_symmetric(reg)
    np.testing.assert_allclose(np.abs(state.coeffs), [0.0, 1.0, 0.0, 0.0],
                               atol=1e-15)


def test_project_symmetric_rejects_residual_excitation():
    amps = register_amps(2, {"+e": 1.0})
    with pytest.raises(ds.ResidualExcitationError):
        ds.project_symmetric(ds.EmitterRegister(2, amps))


def test_project_symmetric_rejects_antisymmetric_part():
    amps = register_amps(2, {"+-": 1 / np.sqrt(2), "-+": -1 / np.sqrt(2)})
    with pytest.raises(ds.AsymmetricResidueError):
        ds.project_symmetric(ds.EmitterRegister(2, amps))


def test_states_and_registers_keep_their_own_read_only_arrays():
    coeffs = np.array([0.6, 0.8j])
    amps = np.array([0.0, 1.0, 0.0], dtype=complex)
    state, reg = ds.SymmetricState(1, coeffs), ds.EmitterRegister(1, amps)
    twin = ds.SymmetricState(1, coeffs.copy())
    coeffs[0], amps[1] = 5.0, 7.0  # a later edit of the caller's arrays
    np.testing.assert_array_equal(state.coeffs, [0.6, 0.8j])
    np.testing.assert_array_equal(reg.amps, [0.0, 1.0, 0.0])
    assert ds.fidelity(state, twin) == pytest.approx(1.0)
    for array in (state.coeffs, reg.amps):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _array(obj):
    return obj.coeffs if isinstance(obj, ds.SymmetricState) else obj.amps


#: Raw coefficients with many exact zeros and ones, so that leading and
#: trailing zeros (targets of low degree, roots at zero) and coefficients
#: that are already normalized come up often.
_RAW_ENTRIES = st.one_of(st.sampled_from([0j, 1 + 0j]), st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False))


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(_RAW_ENTRIES, min_size=n + 1, max_size=n + 1).filter(any)))
def test_objects_the_library_builds_pass_their_own_public_checks(raw):
    # states and registers built inside the library skip the constructor's
    # checks; each must still be what the constructor would build, with
    # read-only arrays of its own
    raw = np.array(raw, dtype=complex)
    n = len(raw) - 1
    state = ds.SymmetricState.from_raw(n, raw)
    config = ds.synthesize(state)
    made = [(state, [raw]), (state.canonicalized(), [state.coeffs]),
            (ds.dicke_coefficients(config), [state.coeffs])]
    register = ds.EmitterRegister.ground(n)
    made.append((register, []))
    for polarizer in config:
        previous, register = register, ds.apply_detection(register, polarizer)
        made.append((register, [previous.amps]))
    made.append((ds.project_symmetric(register), [register.amps]))
    for obj, inputs in made:
        array = _array(obj)
        assert _same_bits(_array(type(obj)(obj.n, array)), array)
        assert not array.flags.writeable
        assert not any(np.shares_memory(array, other) for other in inputs)
    # synthesize's polarizers are Polarizer(root, 1.0), padded with Polarizer(1.0, 0.0)
    roots = _polynomial_roots(_synthesis_polynomial(state))
    public = ds.PolarizerConfig(tuple([ds.Polarizer(r, 1.0) for r in roots]
                                      + [ds.Polarizer(1.0, 0.0)] * (n - len(roots))))
    assert type(config.polarizers) is tuple
    assert all(type(p) is ds.Polarizer and type(p.alpha) is type(p.beta) is complex
               for p in config)
    components = [[p.alpha, p.beta] for p in config]
    assert _same_bits(np.array(components), np.array([[p.alpha, p.beta] for p in public]))
    assert config == public and hash(config) == hash(public)
    assert ds.PolarizerConfig(config.polarizers) == config


def test_project_symmetric_rejects_zero_register():
    with pytest.raises(ds.ZeroStateError):
        ds.project_symmetric(ds.EmitterRegister(2, np.zeros(9, dtype=complex)))


def test_symmetric_state_requires_normalized_coefficients():
    with pytest.raises(ValueError):
        ds.SymmetricState(2, np.array([1.0, 1.0, 0.0]))
    state = ds.SymmetricState.from_raw(2, [3.0, 0.0, 4.0j])
    assert abs(np.linalg.norm(state.coeffs) - 1.0) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), None],
                         ids=["nan", "inf", "imag-inf", "none"])
def test_non_finite_coefficients_are_a_config_error(bad):
    # numpy converts None to NaN
    with pytest.raises(ds.ConfigError):
        ds.SymmetricState(1, np.array([bad, 0.0]))
    with pytest.raises(ds.ConfigError):
        ds.SymmetricState.from_raw(2, [1.0, bad, 0.0])
    with pytest.raises(ds.ConfigError):
        ds.EmitterRegister(1, [bad, 0.0, 0.0])
    # a complex array is checked too, not passed through
    with pytest.raises(ds.ConfigError):
        ds.EmitterRegister(1, np.array([bad, 0.0, 0.0], dtype=complex))


#: ``size`` -> an array or list that numpy turns into numbers, although an
#: entry is a boolean, a string or bytes.
_DISGUISED_NUMBERS = {
    "object-strings": lambda size: np.array(["1"] + [0] * (size - 1), dtype=object),
    "object-bytes": lambda size: np.array([b"1"] + [0] * (size - 1), dtype=object),
    "object-bool": lambda size: np.array([True] + [0] * (size - 1), dtype=object),
    "object-numpy-bool": lambda size: np.array([np.True_] + [0] * (size - 1), dtype=object),
    "bool-array": lambda size: np.array([True] + [False] * (size - 1)),
    "bool-list": lambda size: [True] + [False] * (size - 1),
    "bool-in-float-list": lambda size: [True] + [0.5] * (size - 1),
    "string-array": lambda size: np.array(["1"] + ["0"] * (size - 1)),
    "bytes-array": lambda size: np.array([b"1"] + [b"0"] * (size - 1)),
}


@pytest.mark.parametrize("make", _DISGUISED_NUMBERS.values(), ids=_DISGUISED_NUMBERS.keys())
def test_booleans_and_strings_inside_arrays_are_not_numbers(make):
    with pytest.raises(ds.ConfigError):
        ds.EmitterRegister(1, make(3))
    with pytest.raises(ds.ConfigError):
        ds.SymmetricState.from_raw(1, make(2))
    with pytest.raises(ds.ConfigError):
        ds.entanglement_report(make(8))
    with pytest.raises(ds.ConfigError):
        ds.tangle_hyperdeterminant(make(8))


_NON_NUMERIC_INPUTS = {
    "polarizer-none": lambda: ds.Polarizer(None, 1),
    "polarizer-str": lambda: ds.Polarizer("x", 1),
    "polarizer-huge-int": lambda: ds.Polarizer(10 ** 400, 1),
    "angle-huge-int": lambda: ds.Polarizer.linear(10 ** 400),
    "angle-none": lambda: ds.Polarizer.linear(None),
    "from-raw-str": lambda: ds.SymmetricState.from_raw(1, ["a", 1]),
    "from-raw-huge-int": lambda: ds.SymmetricState.from_raw(1, [10 ** 400, 1]),
    "from-raw-not-iterable": lambda: ds.SymmetricState.from_raw(1, None),
    "state-str": lambda: ds.SymmetricState(1, ["a", 1]),
    "synthesize-none": lambda: ds.synthesize(None),
    "amplitudes-str": lambda: ds.entanglement_report(["a"] + [0] * 7),
    # ragged nesting fails inside numpy's conversion
    "register-ragged-list": lambda: ds.EmitterRegister(1, [[1.0, 0.0], [0.0]]),
    "register-ragged-arrays": lambda: ds.EmitterRegister(1, [np.zeros((1, 2)),
                                                             np.zeros((1, 1))]),
    "register-unbroadcastable-arrays": lambda: ds.EmitterRegister(1, [np.zeros((2, 2)),
                                                                      np.zeros((2, 1))]),
    "empty-config": lambda: ds.PolarizerConfig(()),
    "dicke-empty": lambda: ds.dicke_coefficients([]),
    # booleans are not numbers anywhere in the library
    "angle-bool": lambda: ds.Polarizer.linear(True),
    "polarizer-bool": lambda: ds.Polarizer(True, 0),
    "polarizer-numpy-bool": lambda: ds.Polarizer(1, np.True_),
    "chain-spacing-bool": lambda: ds.DetectionGeometry.linear_chain(3, spacing=True),
    "ghz-phi-bool": lambda: ds.ghz_config(3, True),
    # recipe phases and the chain spacing are checked like every other real
    "ghz-phi-none": lambda: ds.ghz_config(3, None),
    "s-phi-str": lambda: ds.s_config(3, "0.5"),
    "w-phi-list": lambda: ds.w_config(3, []),
    "chain-spacing-str": lambda: ds.DetectionGeometry.linear_chain(3, spacing="x"),
    # a configuration is a sequence of Polarizers
    "dicke-none": lambda: ds.dicke_coefficients(None),
    "dicke-int": lambda: ds.dicke_coefficients(5),
    "dicke-float-entry": lambda: ds.dicke_coefficients([1.0]),
    "config-int-entry": lambda: ds.PolarizerConfig((1,)),
    "from-angles-none": lambda: ds.PolarizerConfig.from_angles(None),
    "tangle-closed-form-none": lambda: ds.tangle_closed_form(None),
    "classify-none": lambda: ds.classify_from_config(None),
}


@pytest.mark.parametrize("call", _NON_NUMERIC_INPUTS.values(), ids=_NON_NUMERIC_INPUTS.keys())
def test_non_numeric_or_empty_input_is_a_config_error(call):
    with pytest.raises(ds.ConfigError):
        call()


_INVALID_INPUTS = {
    "state-size-none": (lambda: ds.SymmetricState(None, [1]), ds.ConfigError),
    "state-size-bool": (lambda: ds.SymmetricState(True, [1, 0]), ds.ConfigError),
    "state-size-float": (lambda: ds.SymmetricState(2.0, [1, 0, 0]), ds.ConfigError),
    "angle-numeric-str": (lambda: ds.Polarizer.linear("0.5"), ds.ConfigError),
    "polarizer-numeric-str": (lambda: ds.Polarizer("1", "1j"), ds.ConfigError),
    "from-raw-numeric-str": (lambda: ds.SymmetricState.from_raw(1, ["1", "1"]), ds.ConfigError),
    # finite, but its modulus overflows
    "from-raw-modulus-overflow": (lambda: ds.SymmetricState.from_raw(1, [1.5e308 + 1.5e308j, 0]),
                                  ds.ConfigError),
    "ghz-size-1": (lambda: ds.ghz_config(1, 0), ds.ConfigError),
    "w-size-1": (lambda: ds.w_config(1, 0), ds.ConfigError),
    "s-size-0": (lambda: ds.s_config(0, 0), ds.ConfigError),
    "register-length": (lambda: ds.EmitterRegister(2, [1]), ds.ConfigError),
    "chain-size-0": (lambda: ds.DetectionGeometry.linear_chain(0), ds.ConfigError),
    "chain-size-float": (lambda: ds.DetectionGeometry.linear_chain(1.5), ds.ConfigError),
    "empty-geometry": (lambda: ds.DetectionGeometry(np.zeros((0, 3)), 0.0, 1e-6,
                                                    np.zeros((0, 3)), 0.0), ds.ConfigError),
    "ket-alphabet": (lambda: ds.pyramid_edges([PLUS], [ds.PyramidLevel(0, {"x": 1.0}),
                                                       ds.PyramidLevel(1, {})]), ds.ConfigError),
    "ket-length": (lambda: ds.pyramid_edges([PLUS], [ds.PyramidLevel(0, {"ee": 1.0}),
                                                     ds.PyramidLevel(1, {})]), ds.ConfigError),
}


@pytest.mark.parametrize("call, error", _INVALID_INPUTS.values(), ids=_INVALID_INPUTS.keys())
def test_invalid_size_string_or_ket_is_a_typed_error(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning is no answer either
        with pytest.raises(error):
            call()


_ABOVE_THE_SIZE_LIMIT = {
    "register": lambda n: ds.EmitterRegister(n, [0.0]),
    "ground-register": lambda n: ds.EmitterRegister.ground(n),
    "pyramid": lambda n: ds.build_pyramid(ds.s_config(n, 0.3)),
    "pyramid-edges": lambda n: ds.pyramid_edges(ds.s_config(n, 0.3), []),
    "window": lambda n: ds.estimate_fidelity(
        ds.s_config(n, 0.3), ds.DetectionGeometry.linear_chain(n), samples=1),
    "qubit-expansion": lambda n: ds.SymmetricState(n, np.eye(n + 1)[0]).to_qubit_amplitudes(),
}


@pytest.mark.parametrize("call", _ABOVE_THE_SIZE_LIMIT.values(), ids=_ABOVE_THE_SIZE_LIMIT.keys())
def test_entry_points_above_the_size_limit_raise_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(ds.TooLargeError):
            call(REGISTER_SIZE_LIMIT + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # a 3**13 register alone takes 25 MB


def test_from_raw_normalizes_any_finite_magnitude():
    # the squared norm of these overflows or underflows
    state = ds.SymmetricState.from_raw(2, [1.0, 1e-300, 1e300])
    np.testing.assert_allclose(state.coeffs, [1e-300, 0.0, 1.0], rtol=1e-15, atol=0.0)
    state = ds.SymmetricState.from_raw(2, [5e-324, 0.0, 0.0])
    assert state.coeffs.tolist() == [1.0, 0.0, 0.0]
    state = ds.SymmetricState.from_raw(1, [1e-200, -1e-200j])
    np.testing.assert_allclose(state.coeffs, np.array([1.0, -1.0j]) / np.sqrt(2.0),
                               rtol=1e-15)
    state = ds.SymmetricState.from_raw(1, [10 ** 30, 1])  # an int beyond int64
    np.testing.assert_allclose(state.coeffs, [1.0, 1e-30], rtol=1e-15, atol=0.0)
    with pytest.raises(ds.ZeroStateError):
        ds.SymmetricState.from_raw(2, [0.0, 0.0, 0.0])


_PEAKS = (5e-324, 1e-310, 2.0 ** -1022, 1e-300, 1e-150, 1e-20, 1.0, 3.0, 1e20, 1e150, 1e300)


def test_unit_vector_is_the_norm_formula_bit_for_bit():
    rng = np.random.default_rng(36)
    for size in [*range(2, 66), 2054]:
        for peak in _PEAKS:
            z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            for v in (z, z.real + 0j, 1j * z.imag):
                v = v / np.abs(v).max() * peak
                assert _unit_vector(v).tobytes() == unit_vector_reference(v).tobytes()
    # from_raw reads a nested list as a matrix and rejects its shape only afterwards
    v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    assert _unit_vector(v).tobytes() == unit_vector_reference(v).tobytes()


@pytest.mark.parametrize("v, error, message", [
    ([1.0, np.nan], ds.ConfigError, "state coefficients must be finite"),
    ([complex(0.0, np.inf), 1.0], ds.ConfigError, "state coefficients must be finite"),
    ([0.0, 0.0, 0.0], ds.ZeroStateError, "state vector vanishes"),
], ids=["nan", "inf", "zero"])
def test_unit_vector_rejects_what_has_no_direction(v, error, message):
    with pytest.raises(error) as info:
        _unit_vector(np.array(v, dtype=complex))
    assert str(info.value) == message


def test_canonicalization_is_explicit_and_phase_only():
    raw = np.array([0.0, -1.0j, 1.0])
    state = ds.SymmetricState.from_raw(2, raw)
    fixed = state.canonicalized()
    # original untouched, first nonzero coefficient rotated onto +1
    assert state.coeffs[1] == pytest.approx(-1.0j / np.sqrt(2))
    assert fixed.coeffs[1] == pytest.approx(1.0 / np.sqrt(2))
    assert fixed.coeffs[1].imag == 0.0
    assert ds.fidelity(state, fixed) == pytest.approx(1.0)


def test_qubit_expansion_little_endian():
    state = ds.SymmetricState(2, np.array([0.0, 1.0, 0.0], dtype=complex))
    psi = state.to_qubit_amplitudes()
    np.testing.assert_allclose(psi, [0.0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])


def test_dicke_basis_state_expansion():
    vec = ds.SymmetricState(4, np.eye(5)[2]).to_qubit_amplitudes()
    support = np.nonzero(vec)[0]
    assert len(support) == comb(4, 2) == 6
    np.testing.assert_allclose(vec[support], 1 / np.sqrt(6))
    with pytest.raises(ValueError):
        ds.SymmetricState(3, np.eye(5)[4])


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_identity_and_orthogonal():
    rng = np.random.default_rng(12)
    x = ds.SymmetricState.from_raw(3, rng.normal(size=4) + 1j * rng.normal(size=4))
    assert ds.fidelity(x, x) == pytest.approx(1.0)
    top = ds.SymmetricState.from_raw(3, [1.0, 0.0, 0.0, 0.0])
    bottom = ds.SymmetricState.from_raw(3, [0.0, 0.0, 0.0, 1.0])
    assert ds.fidelity(top, bottom) == 0.0


def test_fidelity_between_maximally_entangled_and_product():
    ghz = ds.SymmetricState.from_raw(3, [1.0, 0.0, 0.0, 1.0])
    product = ds.SymmetricState.from_raw(
        3, [np.sqrt(comb(3, k)) for k in range(4)])
    assert ds.fidelity(ghz, product) == pytest.approx(0.25, abs=1e-12)
    # same number from the explicit tensor-product construction
    assert qubit_fidelity(ghz_qubit(3, 0.0), s_qubit(3, 0.0)) == pytest.approx(0.25)


def test_fidelity_dimension_mismatch():
    a = ds.SymmetricState.from_raw(2, [1.0, 0.0, 0.0])
    b = ds.SymmetricState.from_raw(3, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ds.DimensionMismatchError):
        ds.fidelity(a, b)


def test_ket_string_roundtrip():
    for idx in range(27):
        ket = ket_string(idx, 3)
        assert np.flatnonzero(register_amps(3, {ket: 1.0})).tolist() == [idx]
        # emitter j is digit j of the index and axis n-1-j of the (3,)*n tensor
        assert ket == "".join("e+-"[d] for d in np.unravel_index(idx, (3,) * 3)[::-1])
    assert ket_string(0, 3) == "eee"
