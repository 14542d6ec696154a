import tracemalloc
from math import comb

import numpy as np
import pytest

import dickesim as ds
from conftest import (
    dense_estimate_fidelity,
    dense_from_level,
    level_from_dense,
    random_config,
)
from dickesim.core import REGISTER_SIZE_LIMIT, _ket_index, _level_detection
from dickesim.window import _CHUNK_ENTRIES


def _chain_positions(n, spacing):
    xs = (np.arange(n) - (n - 1) / 2.0) * spacing
    return np.column_stack([xs, np.zeros(n), np.zeros(n)])


# ---------------------------------------------------------------------------
# level-restricted detection kernel against the dense register
# ---------------------------------------------------------------------------

def _positional_weights(polarizer, direction, positions, wavelength):
    """Emitter ``j``'s (+, -) components times ``exp(i k r_j . nhat)``, batch of one."""
    phases = np.exp(1j * 2 * np.pi / wavelength * (positions @ direction))
    return (phases[:, None] * [polarizer.alpha, polarizer.beta])[None], phases


def _cascade_levels(config):
    """Dense registers after each plain detection of ``config``, level-restricted."""
    n = len(config)
    reg = ds.EmitterRegister.ground(n)
    levels = [level_from_dense(reg.amps, n, 0)]
    for p in config:
        reg = ds.apply_detection(reg, p)
        levels.append(level_from_dense(reg.amps, n, len(levels)))
    return levels


def test_level_detection_with_common_phase_matches_plain_detection():
    rng = np.random.default_rng(51)
    config = random_config(rng, 3)
    positions = np.tile([1.3e-6, -0.4e-6, 2.0e-6], (3, 1))  # all emitters coincide
    phase = np.exp(1j * 2 * np.pi / 493e-9 * 2.0e-6)
    plain = _cascade_levels(config)
    for m, p in enumerate(config):
        weights, phases = _positional_weights(p, np.array([0.0, 0.0, 1.0]),
                                              positions, 493e-9)
        np.testing.assert_allclose(phases, phase, atol=1e-12)
        weighted = _level_detection(plain[m][None], weights)[0]
        np.testing.assert_allclose(weighted, phase * plain[m + 1], atol=1e-12)


def test_level_detection_orthogonal_direction_is_exact_identity():
    rng = np.random.default_rng(52)
    config = random_config(rng, 4)
    positions = _chain_positions(4, 5e-6)
    plain = _cascade_levels(config)
    levels = np.ones((1, 1, 1), dtype=complex)
    for m, p in enumerate(config):
        weights, phases = _positional_weights(p, np.array([0.0, 1.0, 0.0]),
                                              positions, 493e-9)
        np.testing.assert_array_equal(phases, np.ones(4))
        levels = _level_detection(levels, weights)
        np.testing.assert_array_equal(levels[0], plain[m + 1])


def test_level_detection_half_wavelength_flips_sign():
    wavelength = 493e-9
    p = ds.Polarizer(0.6, 0.8j)
    positions = np.array([[0.0, 0.0, 0.0], [wavelength / 2, 0.0, 0.0]])
    weights, phases = _positional_weights(p, np.array([1.0, 0.0, 0.0]),
                                          positions, wavelength)
    assert phases[0] == pytest.approx(1.0)
    assert phases[1] == pytest.approx(-1.0)
    weighted = dense_from_level(
        _level_detection(np.ones((1, 1, 1), dtype=complex), weights)[0], 2)
    plain = ds.apply_detection(ds.EmitterRegister.ground(2), p).amps
    for ket in ("+e", "-e"):     # emitter 0 keeps its sign
        idx = _ket_index(ket)
        assert weighted[idx] == pytest.approx(plain[idx], abs=1e-12)
    for ket in ("e+", "e-"):     # emitter 1 sits half a wavelength further on
        idx = _ket_index(ket)
        assert weighted[idx] == pytest.approx(-plain[idx], abs=1e-12)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_linear_chain_geometry_defaults():
    geo = ds.DetectionGeometry.linear_chain(4)
    assert geo.n == 4
    np.testing.assert_allclose(np.diff(geo.emitter_positions[:, 0]), 5e-6)
    np.testing.assert_allclose(np.linalg.norm(geo.detector_directions, axis=1), 1.0)
    # detectors look perpendicular to the chain
    np.testing.assert_allclose(geo.detector_directions[:, 0], 0.0, atol=1e-15)


def test_geometry_validation():
    pos = _chain_positions(2, 5e-6)
    dirs = np.tile([0.0, 1.0, 0.0], (2, 1))
    with pytest.raises(ds.ConfigError):
        ds.DetectionGeometry(pos, -1e-9, 493e-9, dirs, 0.0)
    with pytest.raises(ds.ConfigError):
        ds.DetectionGeometry(pos, 0.0, 0.0, dirs, 0.0)
    with pytest.raises(ds.ConfigError):
        ds.DetectionGeometry(pos, 0.0, 493e-9, dirs, -0.1)
    with pytest.raises(ds.ConfigError):
        ds.DetectionGeometry(pos, 0.0, 493e-9, np.zeros((2, 3)), 0.0)
    with pytest.raises(ds.ConfigError):
        ds.DetectionGeometry(pos[:1], 0.0, 493e-9, dirs, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(pos, bad, 493e-9, dirs, 0.0)
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(pos, 0.0, 493e-9, dirs, bad)
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(pos, 0.0, bad, dirs, 0.0)
    for bad in ("wide", None):
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(pos, 0.0, 493e-9, dirs, bad)
    with pytest.raises(ds.ConfigError):
        ds.DetectionGeometry([["a", 0.0, 0.0]] * 2, 0.0, 493e-9, dirs, 0.0)
    # integers beyond the float range and booleans are not geometry values
    for bad in (10 ** 400, True):
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(pos, bad, 493e-9, dirs, 0.0)
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(pos, 0.0, bad, dirs, 0.0)
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(pos, 0.0, 493e-9, dirs, bad)
    with pytest.raises(ds.ConfigError):
        ds.DetectionGeometry([[10 ** 400, 0, 0], [0, 0, 0]], 0.0, 493e-9, dirs, 0.0)


def test_transverse_basis_is_fixed_at_construction():
    geo = ds.DetectionGeometry.linear_chain(3)
    t1, t2 = geo.transverse_basis
    axis = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose([t1 @ axis, t2 @ axis, t1 @ t2], 0.0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(geo.transverse_basis, axis=1), 1.0)
    assert not geo.transverse_basis.flags.writeable


# ---------------------------------------------------------------------------
# Monte-Carlo estimate
# ---------------------------------------------------------------------------

def test_ideal_limit_is_exact():
    config = ds.ghz_config(4, 0.0)
    geo = ds.DetectionGeometry.linear_chain(4, transverse_sigma=0.0,
                                            window_halfangle=0.0)
    est = ds.estimate_fidelity(config, geo, samples=20, seed=7)
    assert est.mean_fidelity == pytest.approx(1.0, abs=1e-12)
    assert est.standard_error <= 1e-15
    assert est.sample_count == 20
    assert est.excluded_count == 0


def test_vanishing_window_and_confinement_converge_to_one():
    config = ds.ghz_config(3, 0.0)
    geo = ds.DetectionGeometry.linear_chain(3, transverse_sigma=1e-15,
                                            window_halfangle=1e-9)
    est = ds.estimate_fidelity(config, geo, samples=50, seed=7)
    assert est.mean_fidelity >= 1 - 1e-10


def test_estimate_is_deterministic_for_fixed_seed():
    config = ds.ghz_config(3, 0.0)
    geo = ds.DetectionGeometry.linear_chain(3)
    a = ds.estimate_fidelity(config, geo, samples=200, seed=123)
    b = ds.estimate_fidelity(config, geo, samples=200, seed=123)
    assert a == b
    c = ds.estimate_fidelity(config, geo, samples=200, seed=124)
    assert a.mean_fidelity != c.mean_fidelity


def test_widening_the_window_cannot_help():
    config = ds.ghz_config(4, 0.0)
    means = []
    for half in (np.deg2rad(0.5), np.deg2rad(1.0)):
        geo = ds.DetectionGeometry.linear_chain(4, window_halfangle=half)
        means.append(ds.estimate_fidelity(config, geo, samples=800,
                                          seed=55).mean_fidelity)
    assert means[1] <= means[0]


def test_default_geometry_beats_entanglement_threshold():
    config = ds.ghz_config(4, 0.0)
    geo = ds.DetectionGeometry.linear_chain(4)
    est = ds.estimate_fidelity(config, geo, samples=2000, seed=5)
    assert est.mean_fidelity - 0.5 > 5 * est.standard_error
    assert est.excluded_count == 0


def test_every_sample_annihilated_raises():
    # two detections through the same orientation, with a half-wavelength
    # path difference on the second detector: the register cancels exactly
    p = ds.LinearAngle(0.0).to_polarizer()
    config = ds.PolarizerConfig((p, p))
    wavelength = 4e-6
    positions = np.array([[0.0, 0.0, 0.0], [wavelength / 2, 0.0, 0.0]])
    directions = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    geo = ds.DetectionGeometry(positions, 0.0, wavelength, directions, 0.0)
    with pytest.raises(ds.ZeroStateError):
        ds.estimate_fidelity(config, geo, samples=5, seed=1)
    with pytest.raises(ds.ZeroStateError):
        dense_estimate_fidelity(config, geo, samples=5, seed=1)


def _window_cases():
    rng = np.random.default_rng(60)
    for n in range(1, 8):
        yield pytest.param(random_config(rng, n), None, id=f"random{n}")
        if n > 1:
            yield pytest.param(ds.ghz_config(n, 0.4), None, id=f"ghz{n}")
            yield pytest.param(ds.w_config(n, 0.2), None, id=f"w{n}")
            yield pytest.param(ds.ghz_config(n, 0.0),
                               ds.dicke_coefficients(ds.w_config(n, 0.3)),
                               id=f"ghz{n}-vs-w")


@pytest.mark.parametrize("config, target", _window_cases())
def test_estimate_matches_dense_reference(config, target):
    n = len(config)
    geo = ds.DetectionGeometry.linear_chain(n, transverse_sigma=20e-9,
                                            window_halfangle=np.deg2rad(2.0))
    # two full chunks and a partial one
    chunk = _CHUNK_ENTRIES // max(comb(n, m) << m for m in range(n + 1))
    samples = 2 * max(1, chunk) + 1
    got = ds.estimate_fidelity(config, geo, target=target, samples=samples,
                               seed=100 + n)
    want = dense_estimate_fidelity(config, geo, target=target, samples=samples,
                                   seed=100 + n)
    assert got.mean_fidelity == pytest.approx(want.mean_fidelity, abs=1e-12)
    assert got.standard_error == pytest.approx(want.standard_error, abs=1e-12)
    assert (got.sample_count, got.excluded_count) == (want.sample_count,
                                                      want.excluded_count)


def test_memory_does_not_grow_with_the_sample_count():
    # one float per sample would take 1.6 MB
    config = ds.PolarizerConfig.from_angles([0.3])
    geo = ds.DetectionGeometry.linear_chain(1)
    tracemalloc.start()
    try:
        est = ds.estimate_fidelity(config, geo, samples=200_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.sample_count == 200_000
    assert peak < 8 * 200_000


def test_size_guard_rejects_systems_above_the_limit():
    n = REGISTER_SIZE_LIMIT + 1
    geo = ds.DetectionGeometry.linear_chain(n)
    with pytest.raises(ds.TooLargeError):
        ds.estimate_fidelity(ds.ghz_config(n, 0.0), geo, samples=1)


def test_mismatched_sizes_are_rejected():
    config = ds.ghz_config(3, 0.0)
    geo = ds.DetectionGeometry.linear_chain(4)
    with pytest.raises(ds.DimensionMismatchError):
        ds.estimate_fidelity(config, geo, samples=10)
    geo3 = ds.DetectionGeometry.linear_chain(3)
    wrong_target = ds.SymmetricState.from_raw(4, [1, 0, 0, 0, 1])
    with pytest.raises(ds.DimensionMismatchError):
        ds.estimate_fidelity(config, geo3, target=wrong_target, samples=10)
    with pytest.raises(ds.ConfigError):
        ds.estimate_fidelity(config, geo3, samples=0)


@pytest.mark.parametrize("samples", [2.5, "3", True, None],
                         ids=["float", "str", "bool", "none"])
def test_non_integer_samples_are_a_config_error(samples):
    config = ds.ghz_config(3, 0.0)
    geo = ds.DetectionGeometry.linear_chain(3)
    with pytest.raises(ds.ConfigError):
        ds.estimate_fidelity(config, geo, samples=samples)
    assert ds.estimate_fidelity(config, geo, samples=np.int64(2)).sample_count == 2


@pytest.mark.parametrize("seed", [-1, True, 1.0, "x", None],
                         ids=["negative", "bool", "float", "str", "none"])
def test_invalid_seed_is_a_config_error(seed):
    config = ds.ghz_config(3, 0.0)
    geo = ds.DetectionGeometry.linear_chain(3)
    with pytest.raises(ds.ConfigError):
        ds.estimate_fidelity(config, geo, samples=2, seed=seed)
    assert ds.estimate_fidelity(config, geo, samples=2,
                                seed=np.int64(2 ** 40)).sample_count == 2
