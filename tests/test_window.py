import dataclasses
import itertools
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dickesim as ds
from conftest import (dense_estimate_fidelity, dense_sample_output, permanent,
                      quadrature_fidelity, random_config)
from dickesim import window
from dickesim.core import REGISTER_SIZE_LIMIT
from dickesim.window import _cascade_outputs, _sample_phases


def _chain_positions(n, spacing):
    xs = (np.arange(n) - (n - 1) / 2.0) * spacing
    return np.column_stack([xs, np.zeros(n), np.zeros(n)])


# ---------------------------------------------------------------------------
# the joined half cascades against the dense register
# ---------------------------------------------------------------------------

def _fixed_outputs(config, positions, directions, wavelength=493e-9):
    """Cascade output of one sample with no jitter and no window, in qubit order."""
    geo = ds.DetectionGeometry(positions, 0.0, wavelength, directions, 0.0)
    components = np.array([[p.alpha, p.beta] for p in config])
    n = len(config)
    return _cascade_outputs(components, _sample_phases(
        geo, np.zeros((1, 2 * n)), np.zeros((1, n))))[0]


def _positional_phases(direction, positions, wavelength=493e-9):
    """``exp(i k r_j . nhat)`` of every emitter ``j`` for one detector."""
    return np.exp(1j * 2 * np.pi / wavelength * (positions @ direction))


def _dense_output(config):
    """Plain dense cascade of ``config``, block with no emitter in ``e``, qubit order."""
    n = len(config)
    reg = ds.EmitterRegister.ground(n)
    for p in config:
        reg = ds.apply_detection(reg, p)
    return reg.amps.reshape((3,) * n)[(slice(1, None),) * n].reshape(-1)


def test_coinciding_emitters_give_a_common_phase_times_the_ideal_output():
    rng = np.random.default_rng(51)
    config = random_config(rng, 3)
    positions = np.tile([1.3e-6, -0.4e-6, 2.0e-6], (3, 1))  # all emitters coincide
    phase = np.exp(1j * 2 * np.pi / 493e-9 * 2.0e-6)
    np.testing.assert_allclose(
        _positional_phases(np.array([0.0, 0.0, 1.0]), positions), phase, atol=1e-12)
    got = _fixed_outputs(config, positions, np.tile([0.0, 0.0, 1.0], (3, 1)))
    # one detection per emitter, each with the same phase
    np.testing.assert_allclose(got, phase ** 3 * _dense_output(config), atol=1e-12)


def test_orthogonal_direction_gives_the_ideal_cascade():
    rng = np.random.default_rng(52)
    # past n = 8 a chunk holds one or two samples, and odd n splits unevenly
    for n in range(1, 11):
        config = random_config(rng, n)
        positions = _chain_positions(n, 5e-6)
        direction = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(_positional_phases(direction, positions),
                                      np.ones(n))
        got = _fixed_outputs(config, positions, np.tile(direction, (n, 1)))
        want = _dense_output(config)
        # the same terms as the dense cascade, summed in another order
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", range(1, 9))
def test_phases_that_factor_give_a_global_phase_times_the_ideal_output(n):
    # with phi_ji = a_i + b_j every assignment of detectors to emitters picks
    # up the same phase exp(i (sum a + sum b)), so interference is untouched
    rng = np.random.default_rng(70 + n)
    config = random_config(rng, n)
    components = np.array([[p.alpha, p.beta] for p in config])
    a, b = rng.uniform(-np.pi, np.pi, (2, 3, n))  # three samples
    phases = a[:, None, :] + b[:, :, None]  # phases[s, j, i] = a_i + b_j
    got = _cascade_outputs(components, phases)
    ideal = (ds.dicke_coefficients(config).to_qubit_amplitudes()
             * np.linalg.norm(_dense_output(config)))
    for s in range(3):
        want = np.exp(1j * (a[s].sum() + b[s].sum())) * ideal
        assert np.abs(got[s] - want).max() <= 1e-13 * np.abs(want).max()


def test_the_permanent_oracle_sums_every_assignment():
    rng = np.random.default_rng(55)
    for n in range(1, 7):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = sum(np.prod(a[range(n), sigma]) for sigma in itertools.permutations(range(n)))
        assert permanent(a) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_each_overlap_is_the_ideal_one_times_a_permanent(n):
    # every target is symmetric, so a sample's overlap factors as
    # <t|psi_s> = <t|psi_0> perm(E_s) / n!, E_s = exp(i phases[s])
    rng = np.random.default_rng(170 + n)
    config = random_config(rng, n)
    geo = ds.DetectionGeometry.linear_chain(n, transverse_sigma=50e-9,
                                            window_halfangle=np.deg2rad(3.0))
    components, bra, _ = window._config_arrays(config)
    normals, deviates = rng.standard_normal((5, 2 * n)), rng.uniform(-1.0, 1.0, (5, n))
    overlaps, _ = window._chunk_terms(components, bra, geo, normals, deviates)
    ideal = _cascade_outputs(components, np.zeros((1, n, n)))[0] @ bra
    want = [abs(ideal * permanent(np.exp(1j * phases)) / factorial(n)) ** 2
            for phases in _sample_phases(geo, normals, deviates)]
    np.testing.assert_allclose(overlaps, want, rtol=1e-12, atol=0)


def test_complements_of_the_half_sets_come_in_reverse_order():
    # at every size the kernel accepts: this is why the larger half lists its
    # sets in reverse order, so that the join pairs row r of each half with
    # row r of the other
    for n in range(1, REGISTER_SIZE_LIMIT + 1):
        rest = [tuple(sorted(set(range(n)) - set(s)))
                for s in itertools.combinations(range(n), n // 2)]
        assert rest == list(itertools.combinations(range(n), n - n // 2))[::-1]


def _lexicographic_tables(n, top):
    """``(src, detector)`` of levels 2..top with the sets in ``combinations`` order."""
    tables, row_of = [], {(i,): i for i in range(n)}
    for m in range(2, top + 1):
        sets = list(itertools.combinations(range(n), m))
        tables.append((np.array([[row_of[s[:p] + s[p + 1:]] for s in sets] for p in range(m)]),
                       np.array(sets).T))
        row_of = {s: row for row, s in enumerate(sets)}
    return tables


def test_the_larger_half_reads_the_lexicographic_tables_backwards():
    # its level m >= 2 lists the sets in reverse order, so a source row r of
    # level m - 1 >= 2 becomes row C(n, m - 1) - 1 - r; level 1 is reversed
    # only when it is the half's last
    for n in range(1, REGISTER_SIZE_LIMIT + 1):
        (high_first, high), (low_first, low) = window._level_tables(n)
        tables = _lexicographic_tables(n, n - n // 2)
        rows = list(range(n))
        assert rows[high_first] == (rows[::-1] if n <= 2 else rows)
        assert rows[low_first] == rows
        assert (len(high), len(low)) == (len(tables), max(0, n // 2 - 1))
        for m, (src, detector) in enumerate(tables, start=2):
            np.testing.assert_array_equal(high[m - 2][1], detector[:, ::-1])
            moved = src if m == 2 else comb(n, m - 1) - 1 - src
            np.testing.assert_array_equal(high[m - 2][0], moved[:, ::-1])
            if m - 2 < len(low):
                np.testing.assert_array_equal(low[m - 2][0], src)
                np.testing.assert_array_equal(low[m - 2][1], detector)
        for half in (high, low):
            for m, (src, detector, block) in enumerate(half, start=2):
                assert src.dtype == detector.dtype == np.intp
                assert not (src.flags.writeable or detector.flags.writeable)
                # a block's gathered rows are no larger than the level it builds
                assert 1 <= block and block * m <= 2 ** m < (block + 1) * m


@st.composite
def _window_samples(draw):
    """Random polarizers, emitters and detectors, with directions off the y-z plane."""
    n = draw(st.integers(1, 6))
    count = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    parts = draw(hnp.arrays(float, (n, 4), elements=unit))
    config = ds.PolarizerConfig(tuple(
        ds.Polarizer(complex(r[0], r[1]), complex(r[2] + 2.0, r[3])) for r in parts))
    positions = draw(hnp.arrays(float, (n, 3), elements=st.floats(-1e-6, 1e-6)))
    directions = draw(hnp.arrays(float, (n, 3), elements=unit))
    # v_x != 0: the window then turns part of x into y, which no chain test does
    directions[:, 0] = draw(hnp.arrays(float, n, elements=st.floats(0.1, 1.0)
                                       | st.floats(-1.0, -0.1)))
    geo = ds.DetectionGeometry(positions, draw(st.floats(0.0, 50e-9)), 493e-9,
                               directions, draw(st.floats(0.0, 0.3)))
    normals = draw(hnp.arrays(float, (count, 2 * n), elements=st.floats(-3.0, 3.0)))
    deviates = draw(hnp.arrays(float, (count, n), elements=st.floats(-1.0, 1.0)))
    return config, geo, normals, deviates


@given(_window_samples())
def test_sample_outputs_match_the_dense_kernel_sample_by_sample(case):
    config, geo, normals, deviates = case
    components = np.array([[p.alpha, p.beta] for p in config])
    got = _cascade_outputs(components, _sample_phases(geo, normals, deviates))
    for s in range(len(normals)):
        want = dense_sample_output(config, geo, normals[s], deviates[s])
        # each amplitude sums n! products of unit-bounded terms
        np.testing.assert_allclose(got[s], want, rtol=0, atol=1e-13 * factorial(len(config)))


@pytest.mark.parametrize("n", range(7, 11))
def test_blocked_steps_match_the_dense_kernel_at_larger_n(monkeypatch, n):
    # past the Hypothesis test's sizes, with steps whose labels split into blocks
    rng = np.random.default_rng(80 + n)
    config = random_config(rng, n)
    positions = rng.uniform(-2e-6, 2e-6, (n, 3))
    directions = rng.normal(size=(n, 3))
    directions[:, 0] = rng.choice([-1.0, 1.0], n) * rng.uniform(0.2, 1.0, n)  # v_x != 0
    geo = ds.DetectionGeometry(positions, 30e-9, 493e-9, directions, 0.2)
    count = 2
    normals = rng.normal(size=(count, 2 * n))
    deviates = rng.uniform(-1.0, 1.0, (count, n))
    components = np.array([[p.alpha, p.beta] for p in config])
    contractions = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        contractions.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    got = _cascade_outputs(components, _sample_phases(geo, normals, deviates))
    monkeypatch.undo()
    steps = (n // 2 - 1) + (n - n // 2 - 1)
    assert len(contractions) > steps  # some step took two or more blocks
    for s in range(count):
        want = dense_sample_output(config, geo, normals[s], deviates[s])
        np.testing.assert_allclose(got[s], want, rtol=0, atol=1e-13 * factorial(n))


def test_half_wavelength_flips_the_sign_of_the_displaced_emitters_terms():
    wavelength = 493e-9
    config = random_config(np.random.default_rng(53), 3)
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [wavelength / 2, 0.0, 0.0]])
    directions = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    along = _positional_phases(directions[0], positions, wavelength)
    np.testing.assert_array_equal(along[:2], np.ones(2))
    assert along[2] == pytest.approx(-1.0)
    np.testing.assert_array_equal(
        _positional_phases(directions[1], positions, wavelength), np.ones(3))
    got = _fixed_outputs(config, positions, directions, wavelength)
    components = [(p.alpha, p.beta) for p in config]
    for x in range(8):
        want = 0j
        # detector i took the photon of emitter emitter_of[i]
        for emitter_of in itertools.permutations(range(3)):
            term = np.prod([components[i][x >> j & 1] for i, j in enumerate(emitter_of)])
            # detector 0 sees emitter 2 half a wavelength further on
            want += -term if emitter_of[0] == 2 else term
        assert got[x] == pytest.approx(want, abs=1e-12)
    assert np.abs(got - _dense_output(config)).max() > 1e-3


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
    # numeric strings too, which numpy would parse
    for strings in ([["0", "0", "0"], ["5e-6", "0", "0"]], [[0, 0, 0], [5e-6, "0", 0]]):
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(strings, 0.0, 493e-9, dirs, 0.0)
    with pytest.raises(ds.ConfigError):
        ds.DetectionGeometry(pos, 0.0, 493e-9, [["0", "1", "0"], [0, "-1", 0]], 0.0)
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
    # object arrays of strings, boolean arrays and booleans among floats
    for disguised in (pos.astype(str).astype(object), pos.astype(bool),
                      [[True, 0.0, 0.0], [5e-6, 0.0, 0.0]]):
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(disguised, 0.0, 493e-9, dirs, 0.0)
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(pos, 0.0, 493e-9, disguised, 0.0)


@pytest.mark.parametrize("imaginary", [
    lambda pos: pos + 1e-6j,
    lambda pos: pos.astype(complex),
    lambda pos: pos.astype(complex).astype(object),
    lambda pos: [[complex(x) for x in row] for row in pos.tolist()],
], ids=["complex-array", "real-valued-complex-array", "object-complex", "complex-list"])
def test_complex_geometry_is_a_config_error(imaginary):
    # a complex position or direction is not a real number, even with no
    # imaginary part; numpy would drop it with only a ComplexWarning
    pos = _chain_positions(2, 5e-6)
    dirs = np.tile([0.0, 1.0, 0.0], (2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(imaginary(pos), 0.0, 493e-9, dirs, 0.0)
        with pytest.raises(ds.ConfigError):
            ds.DetectionGeometry(pos, 0.0, 493e-9, imaginary(dirs), 0.0)


def test_transverse_basis_is_fixed_at_construction():
    geo = ds.DetectionGeometry.linear_chain(3)
    t1, t2 = geo.transverse_basis
    axis = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose([t1 @ axis, t2 @ axis, t1 @ t2], 0.0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(geo.transverse_basis, axis=1), 1.0)
    assert not geo.transverse_basis.flags.writeable


@pytest.mark.parametrize("line", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)],
                         ids=["x", "y", "z", "oblique"])
def test_a_power_of_two_scale_of_every_length_keeps_the_estimate(line):
    # scaling positions, sigma and wavelength by 2**k is exact and leaves every
    # phase's bits alone, so the emitter line may not depend on the unit of length
    chain = ds.DetectionGeometry.linear_chain(3)
    positions = np.outer([-1.0, 0.0, 1.0], line) * 5e-6
    config = ds.ghz_config(3, 0.0)

    def estimate(k):
        geo = ds.DetectionGeometry(positions * 2.0 ** k, chain.transverse_sigma * 2.0 ** k,
                                   chain.wavelength * 2.0 ** k, chain.detector_directions,
                                   chain.window_halfangle)
        est = ds.estimate_fidelity(config, geo, samples=64, seed=5)
        return est.mean_fidelity.hex(), est.standard_error.hex()

    reference = estimate(0)
    assert [k for k in range(-30, 31) if estimate(k) != reference] == []


def test_geometry_does_not_follow_later_edits_of_the_callers_arrays():
    n = 3
    pos = _chain_positions(n, 5e-6)
    dirs = np.array(ds.DetectionGeometry.linear_chain(n).detector_directions)
    geo = ds.DetectionGeometry(pos, 5e-9, 493e-9, dirs, np.deg2rad(0.5))
    config = ds.ghz_config(n, 0.0)
    want = ds.estimate_fidelity(config, geo, samples=50, seed=4)
    # moving one emitter off the chain or turning one detector would dephase
    pos[1, 1] += 1e-7
    dirs[0] = [0.3, 0.0, 1.0]
    assert ds.estimate_fidelity(config, geo, samples=50, seed=4) == want
    for name in ("emitter_positions", "detector_directions", "transverse_basis",
                 "phase_table"):
        array = getattr(geo, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_replace_builds_the_phase_table_anew():
    geo = ds.DetectionGeometry.linear_chain(3)
    moved = geo.emitter_positions + [[0.0, 1e-7, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    got = dataclasses.replace(geo, emitter_positions=moved)
    want = ds.DetectionGeometry(moved, geo.transverse_sigma, geo.wavelength,
                                geo.detector_directions, geo.window_halfangle)
    np.testing.assert_array_equal(got.phase_table, want.phase_table)
    assert got.phase_table.shape == (3, 3 + 2, 3)
    assert not np.array_equal(got.phase_table, geo.phase_table)
    wider = dataclasses.replace(geo, window_halfangle=0.1)
    np.testing.assert_array_equal(wider.phase_table, geo.phase_table)


def test_replace_at_the_same_window_keeps_every_direction_bit():
    # a second normalization of a unit vector can move its last bit; it did
    # for 136 of 200 such geometries while every row was normalized
    rng = np.random.default_rng(27)
    for _ in range(20):
        geo = ds.DetectionGeometry(rng.standard_normal((3, 3)) * 1e-6, 5e-9, 493e-9,
                                   rng.standard_normal((3, 3)), 0.01)
        same = dataclasses.replace(geo, window_halfangle=geo.window_halfangle)
        assert same.detector_directions.tobytes() == geo.detector_directions.tobytes()


@pytest.mark.parametrize("bad", [-0.1, -1e-300, np.nan, np.inf, -np.inf, True,
                                 np.bool_(False), "0.1", None])
def test_a_window_copy_checks_its_window_as_the_constructor_does(bad):
    geo = ds.DetectionGeometry.linear_chain(3)
    with pytest.raises(ds.ConfigError):
        window._at_window(geo, bad)
    with pytest.raises(ds.ConfigError):
        ds.DetectionGeometry(geo.emitter_positions, geo.transverse_sigma, geo.wavelength,
                             geo.detector_directions, bad)


def test_a_window_copy_shares_every_array_and_the_phase_table():
    rng = np.random.default_rng(28)
    geo = ds.DetectionGeometry(rng.standard_normal((3, 3)) * 1e-6, 5e-9, 493e-9,
                               rng.standard_normal((3, 3)), 0.01)
    wider = window._at_window(geo, np.float64(0.02))
    assert type(wider) is ds.DetectionGeometry
    assert type(wider.window_halfangle) is float and wider.window_halfangle == 0.02
    assert geo.window_halfangle == 0.01
    for name in ("emitter_positions", "detector_directions", "transverse_basis",
                 "phase_table"):
        assert getattr(wider, name) is getattr(geo, name), name
    assert (wider.transverse_sigma, wider.wavelength) == (geo.transverse_sigma, geo.wavelength)
    # the estimate of a chain built at that window
    config = ds.ghz_config(3, 0.0)
    chain = ds.DetectionGeometry.linear_chain(3)
    assert (ds.estimate_fidelity(config, window._at_window(chain, 0.02), samples=40, seed=3)
            == ds.estimate_fidelity(config, ds.DetectionGeometry.linear_chain(
                3, window_halfangle=0.02), samples=40, seed=3))


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


@pytest.mark.parametrize("state, n, samples, seed, mean, stderr", [
    ("ghz", 3, 200, 123, "0x1.d174d3a698e05p-1", "0x1.40890115a33e5p-8"),
    ("w", 5, 100, 7, "0x1.e1d540a2a7006p-1", "0x1.575582021eba1p-8"),
    ("ghz", 8, 16, 11, "0x1.d26096acc16bep-2", "0x1.384cec4df8e55p-4"),
], ids=["ghz3", "w5", "ghz8"])
def test_seeded_estimates_keep_their_recorded_values(state, n, samples, seed, mean, stderr):
    # recorded once from the library at the default chain; a changed stream
    # or sample order moves these at the percent level, while the join's
    # BLAS rounding stays far below the bound
    config = (ds.ghz_config if state == "ghz" else ds.w_config)(n, 0.0)
    geo = ds.DetectionGeometry.linear_chain(n)
    est = ds.estimate_fidelity(config, geo, samples=samples, seed=seed)
    assert est.mean_fidelity == pytest.approx(float.fromhex(mean), abs=1e-12)
    assert est.standard_error == pytest.approx(float.fromhex(stderr), abs=1e-12)
    assert (est.sample_count, est.excluded_count) == (samples, 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_the_default_target_is_the_ideal_output_bit_for_bit(n):
    # the default bra is the closed form's state, built once per configuration
    config = random_config(np.random.default_rng(90 + n), n)
    geo = ds.DetectionGeometry.linear_chain(n, transverse_sigma=20e-9,
                                            window_halfangle=np.deg2rad(2.0))
    implicit = ds.estimate_fidelity(config, geo, samples=30, seed=12)
    explicit = ds.estimate_fidelity(config, geo, target=ds.dicke_coefficients(config),
                                    samples=30, seed=12)
    assert implicit == explicit


def _hex(est):
    return (est.mean_fidelity.hex(), est.standard_error.hex(), est.sample_count,
            est.excluded_count)


#: ``(state, n, samples, window halfangles in degrees, transverse sigma)``: the
#: window Monte Carlo cases of the benchmark (a paired n = 4 sweep and a
#: zero-window, zero-jitter control among them)
_BENCHMARK_CASES = [
    ("ghz", 3, 48, [0.5], 5e-9), ("ghz", 4, 36, [0.5], 5e-9), ("ghz", 5, 26, [0.5], 5e-9),
    ("ghz", 6, 18, [0.5], 5e-9), ("ghz", 8, 16, [0.5], 5e-9), ("w", 5, 26, [0.5], 5e-9),
    ("ghz", 4, 12, [0.0, 0.25, 0.5, 1.0], 5e-9), ("ghz", 4, 36, [0.0], 0.0),
]


@pytest.mark.parametrize("state, n, samples, halfangles, sigma", _BENCHMARK_CASES,
                         ids=["ghz3", "ghz4", "ghz5", "ghz6", "ghz8", "w5", "sweep4",
                              "control4"])
def test_cached_configuration_arrays_leave_every_estimate_bit_for_bit(
        state, n, samples, halfangles, sigma):
    make = ds.ghz_config if state == "ghz" else ds.w_config
    config, equal = make(n, 0.0), make(n, 0.0)
    assert config == equal and config is not equal
    for half in halfangles:
        geo = ds.DetectionGeometry.linear_chain(n, transverse_sigma=sigma,
                                                window_halfangle=np.deg2rad(half))
        for seed in (0, 1, 12345, 2 ** 31 - 1):
            # the explicit target scales the cached ideal's estimate by exactly 1
            want = _hex(ds.estimate_fidelity(config, geo, target=ds.dicke_coefficients(config),
                                             samples=samples, seed=seed))
            window._config_arrays.cache_clear()
            cold = ds.estimate_fidelity(config, geo, samples=samples, seed=seed)
            again = ds.estimate_fidelity(config, geo, samples=samples, seed=seed)
            other = ds.estimate_fidelity(equal, geo, samples=samples, seed=seed)
            assert window._config_arrays.cache_info()[:2] == (2, 1)  # hits, misses
            assert _hex(cold) == _hex(again) == _hex(other) == want, (half, seed)


def test_cached_configuration_arrays_are_read_only():
    config = ds.w_config(3, 0.2)
    geo = ds.DetectionGeometry.linear_chain(3)
    want = ds.estimate_fidelity(config, geo, samples=40, seed=5)
    components, bra, ideal = window._config_arrays(config)
    for array in (components, bra, ideal.coeffs):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
        with pytest.raises(ValueError):
            array *= 2.0
    assert _hex(ds.estimate_fidelity(config, geo, samples=40, seed=5)) == _hex(want)


def test_an_explicit_target_scales_the_cached_estimate_and_builds_no_qubit_vector(
        monkeypatch):
    config, equal = ds.w_config(5, 0.2), ds.w_config(5, 0.2)
    geo = ds.DetectionGeometry.linear_chain(5, transverse_sigma=20e-9,
                                            window_halfangle=np.deg2rad(2.0))
    rng = np.random.default_rng(31)
    target = ds.SymmetricState.from_raw(5, rng.normal(size=6) + 1j * rng.normal(size=6))
    ideal = ds.dicke_coefficients(config)
    scale = ds.fidelity(target, ideal) / ds.fidelity(ideal, ideal)
    window._config_arrays.cache_clear()
    default = ds.estimate_fidelity(config, geo, samples=40, seed=9)

    def refuse(state):
        raise AssertionError("a 2**n qubit vector was built")

    monkeypatch.setattr(ds.SymmetricState, "to_qubit_amplitudes", refuse)
    got = ds.estimate_fidelity(equal, geo, target=target, samples=40, seed=9)
    assert window._config_arrays.cache_info()[:2] == (1, 1)  # hits, misses
    assert _hex(got) == _hex(ds.FidelityEstimate(
        default.mean_fidelity * scale, default.standard_error * scale,
        default.sample_count, default.excluded_count))


def test_configurations_equal_but_for_signed_zeros_share_one_entry():
    # -0.0 == 0.0 and both hash alike, so these two configurations are equal
    # and the second call reuses the first one's arrays
    def config(zero):
        return ds.PolarizerConfig((ds.Polarizer(zero, 1.0), ds.Polarizer.linear(0.4),
                                   ds.Polarizer(complex(1.0, zero), zero),
                                   ds.Polarizer(0.6, complex(zero, 0.8))))
    plus, minus = config(0.0), config(-0.0)
    assert plus == minus and hash(plus) == hash(minus)
    assert np.signbit(np.array([[p.alpha, p.beta] for p in minus]).view(float)).any()
    geo = ds.DetectionGeometry.linear_chain(4, transverse_sigma=20e-9,
                                            window_halfangle=np.deg2rad(2.0))
    own = {}
    for name, c in (("plus", plus), ("minus", minus)):
        window._config_arrays.cache_clear()
        own[name] = _hex(ds.estimate_fidelity(c, geo, samples=50, seed=8))
    shared = _hex(ds.estimate_fidelity(plus, geo, samples=50, seed=8))  # minus's entry
    assert window._config_arrays.cache_info()[:2] == (1, 1)
    assert own["plus"] == own["minus"] == shared


@pytest.mark.parametrize("seed", [0, 1, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 63,
                                  2 ** 64 + 3, 2 ** 96, 2 ** 128 + 5, 2 ** 200, 10 ** 400])
def test_the_seeded_streams_are_the_spawned_children(seed):
    # seeds of one to more than four 32-bit words: the padding changes at four
    want = [np.random.default_rng(child).bit_generator.state
            for child in np.random.SeedSequence(seed).spawn(2)]
    assert [rng.bit_generator.state for rng in window._seeded_streams(seed)] == want


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2 ** 64 - 1)], ids=["int64", "uint64"])
def test_a_numpy_integer_seed_gives_the_estimate_of_the_equal_int(seed):
    config, geo = ds.ghz_config(3, 0.3), ds.DetectionGeometry.linear_chain(3)
    assert ds.estimate_fidelity(config, geo, samples=20, seed=seed) == ds.estimate_fidelity(
        config, geo, samples=20, seed=int(seed))


def test_repeated_calls_at_one_size_build_its_steps_once():
    window._level_tables.cache_clear()
    for n in (5, 5, 5):
        for config in (ds.ghz_config(n, 0.1), ds.w_config(n, 0.7)):
            for half in (0.0, 1.0):
                geo = ds.DetectionGeometry.linear_chain(n, window_halfangle=np.deg2rad(half))
                ds.estimate_fidelity(config, geo, samples=250, seed=n)  # three chunks
    assert window._level_tables.cache_info()[:2] == (35, 1)  # hits, misses


@lru_cache(maxsize=None)
def _quadrature(state, halfangle, line="chain"):
    """GHZ3 or W3 at phi = 0.3 at a ``halfangle`` in degrees, q = 4.

    ``line`` is the default chain, or an oblique one: three emitters 5 um
    apart along (1, 2, 3), so the transverse basis comes from the SVD, 20 nm
    jitter, and detectors perpendicular to the line with a z part.
    """
    config = (ds.ghz_config if state == "ghz" else ds.w_config)(3, 0.3)
    if line == "chain":
        geo = ds.DetectionGeometry.linear_chain(3, window_halfangle=np.deg2rad(halfangle))
    else:
        axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        geo = ds.DetectionGeometry(np.outer([-5e-6, 0.0, 5e-6], axis), 20e-9, 493e-9,
                                   [[3.0, 0.0, -1.0], [0.0, 3.0, -2.0], [1.0, 1.0, -1.0]],
                                   np.deg2rad(halfangle))
    return config, geo, quadrature_fidelity(config, geo, 4)


def test_the_quadrature_reference_keeps_its_values():
    # the q = 4 rule's own values: q = 5 moves them by 9e-8, 7e-6 and 1.5e-7
    _, _, (ghz, _) = _quadrature("ghz", 0.5)
    _, _, (_, heralded_w) = _quadrature("w", 1.0)
    _, oblique, (ghz_oblique, _) = _quadrature("ghz", 1.0, "oblique")
    assert ghz == pytest.approx(0.91612699, abs=1e-6)
    assert heralded_w == pytest.approx(0.838836, abs=1e-6)
    assert ghz_oblique == pytest.approx(0.89470472, abs=1e-6)
    assert oblique.phase_table[2].any()  # the directions' z part enters the phases


@pytest.mark.parametrize("state, halfangle, line", [
    ("ghz", 0.5, "chain"), ("w", 0.5, "chain"), ("ghz", 1.0, "chain"), ("w", 1.0, "chain"),
    ("ghz", 1.0, "oblique")], ids=["0.5-ghz", "0.5-w", "1.0-ghz", "1.0-w", "1.0-ghz-oblique"])
def test_seeded_estimates_agree_with_the_quadrature_reference(state, halfangle, line):
    config, geo, (reference, _) = _quadrature(state, halfangle, line)
    est = ds.estimate_fidelity(config, geo, samples=20_000, seed=7)
    assert est.excluded_count == 0
    assert abs(est.mean_fidelity - reference) <= 5 * est.standard_error


# the chain defaults stand in for any scale a case leaves out
_SCALES = {"spacing": 5e-6, "transverse_sigma": 5e-9, "wavelength": 493e-9,
           "window_halfangle": np.deg2rad(0.5)}
#: scales at which the phase table (or, for the first, a sample's phases)
#: overflows the float range; each once gave a record with excluded samples
#: or a ZeroStateError
_OVERFLOWING_SCALES = [{"transverse_sigma": 1e301}, {"transverse_sigma": 2e301},
                       {"wavelength": 1e-300, "spacing": 1e300}, {"spacing": 1.7e308}]
_LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@given(n=st.integers(1, 4), spacing=_LOG_UNIFORM, transverse_sigma=_LOG_UNIFORM,
       wavelength=_LOG_UNIFORM, window_halfangle=_LOG_UNIFORM)
@settings(max_examples=60, deadline=None)
@example(n=3, **{**_SCALES, **_OVERFLOWING_SCALES[0]})
@example(n=3, **{**_SCALES, **_OVERFLOWING_SCALES[1]})
@example(n=3, **{**_SCALES, **_OVERFLOWING_SCALES[2]})
@example(n=3, **{**_SCALES, **_OVERFLOWING_SCALES[3]})
def test_any_geometry_scale_gives_a_finite_estimate_or_a_typed_error(n, **scales):
    # and no numpy warning on the way to either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            geo = ds.DetectionGeometry.linear_chain(n, **scales)
            est = ds.estimate_fidelity(ds.ghz_config(n, 0.3), geo, samples=8, seed=1)
        except ds.DickesimError:
            return
    assert np.isfinite([est.mean_fidelity, est.standard_error]).all()
    assert est.sample_count + est.excluded_count == 8


@pytest.mark.parametrize("scales", _OVERFLOWING_SCALES,
                         ids=["sample-phases", "sigma", "wavelength", "spacing"])
def test_overflowing_phases_are_a_config_error(scales):
    # on construction, not as samples excluded as annihilated, nor a ZeroStateError
    with pytest.raises(ds.ConfigError, match="overflow"):
        ds.DetectionGeometry.linear_chain(3, **scales)


_DIRECTION = hnp.arrays(float, 3, elements=st.floats(-1.0, 1.0)).filter(
    lambda v: np.linalg.norm(v) >= 0.1)


@given(scale=_LOG_UNIFORM, direction=_DIRECTION)
@settings(max_examples=100, deadline=None)
@example(scale=1e308, direction=np.array([0.0, 1.0, 1.0]))  # the squares overflow
@example(scale=1e-200, direction=np.array([0.0, 1.0, 0.0]))  # the squares underflow
@example(scale=1e-170, direction=np.array([0.0, 1.0, 1.0]))  # the squares underflow
def test_any_direction_scale_gives_the_same_direction_and_phases(scale, direction):
    pos = _chain_positions(3, 5e-6)
    dirs = np.tile([0.0, 1.0, 0.0], (3, 1))
    plain = ds.DetectionGeometry(pos, 5e-9, 493e-9, np.vstack([dirs[:2], direction]), 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = ds.DetectionGeometry(pos, 5e-9, 493e-9,
                                      np.vstack([dirs[:2], scale * direction]), 0.01)
    np.testing.assert_allclose(scaled.detector_directions, plain.detector_directions,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(scaled.phase_table, plain.phase_table, rtol=0,
                               atol=1e-15 * np.abs(plain.phase_table).max())


_ANY_DIRECTION = hnp.arrays(float, 3, elements=st.floats(-1.7e308, 1.7e308)).filter(
    lambda v: v.any())


@given(direction=_ANY_DIRECTION)
@settings(max_examples=200, deadline=None)
@example(direction=np.array([1.7e308, 1.7e308, 0.0]))  # its unscaled norm overflows
@example(direction=np.array([2.0, 0.0, 0.0]))  # stored as (1, 0, 0), not kept
@example(direction=np.array([0.0, 1e-200, 1e-200]))  # its squares underflow
def test_a_geometry_rebuilt_from_its_own_fields_keeps_every_direction_bit(direction):
    # a row already unit to 4 ulps is stored as given, every other one
    # normalized; either way the stored row is unit and rebuilds to itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geo = ds.DetectionGeometry(_chain_positions(1, 5e-6), 5e-9, 493e-9, [direction],
                                   0.01)
        rebuilt = dataclasses.replace(geo)
    assert rebuilt.detector_directions.tobytes() == geo.detector_directions.tobytes()
    stored = geo.detector_directions[0]
    assert abs(np.linalg.norm(stored) - 1.0) <= 4 * np.finfo(float).eps
    peak = direction / np.abs(direction).max()
    np.testing.assert_allclose(stored, peak / np.linalg.norm(peak), rtol=0, atol=1e-15)


def test_positions_too_large_to_average_are_a_config_error():
    # their mean overflows; the SVD behind the transverse basis then gives a
    # NaN basis here, and never returns at all on [[x], [-x], [x]], x = 1.7e308
    pos = np.array([[1.7e308, 0.0, 0.0], [1.7e308, 1.0, 0.0]])
    with pytest.raises(ds.ConfigError, match="average"):
        ds.DetectionGeometry(pos, 0.0, 493e-9, np.tile([0.0, 1.0, 0.0], (2, 1)), 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 31 - 1])
def test_streams_are_the_children_that_spawn_gives(seed):
    # _seeded_streams mixes the words of SeedSequence(seed, spawn_key=(i,)),
    # which are the words of SeedSequence(seed).spawn(2)'s child i
    spawned = np.random.SeedSequence(seed).spawn(2)
    for i, (child, stream) in enumerate(zip(spawned, window._seeded_streams(seed))):
        direct = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        assert direct.bit_generator.state == np.random.default_rng(child).bit_generator.state
        np.testing.assert_array_equal(direct.standard_normal(6), stream.standard_normal(6))


@pytest.mark.parametrize("cap", [1, 1 << 16], ids=["one-sample-chunks", "one-chunk"])
def test_a_partly_annihilated_run_pools_only_the_survivors(monkeypatch, cap):
    # exact cancellation has probability zero under continuous draws, so a
    # patched kernel zeroes chosen samples, alone in their chunk or among
    # survivors in one chunk
    n, samples, dead = 4, 40, {0, 3, 4, 17, 39}
    config = ds.ghz_config(n, 0.3)
    geo = ds.DetectionGeometry.linear_chain(n, transverse_sigma=20e-9,
                                            window_halfangle=np.deg2rad(2.0))
    kernel = window._cascade_outputs
    outputs = []

    def zeroing(components, phases):
        out = kernel(components, phases)
        start = sum(map(len, outputs))
        outputs.append(out.copy())
        for s in range(len(out)):
            if start + s in dead:
                out[s] = 0.0
        return out

    monkeypatch.setattr(window, "_CHUNK_ENTRIES", cap)
    monkeypatch.setattr(window, "_cascade_outputs", zeroing)
    est = ds.estimate_fidelity(config, geo, samples=samples, seed=21)
    psi = np.concatenate(outputs)
    assert len(psi) == samples
    target = ds.dicke_coefficients(config).to_qubit_amplitudes()
    fidelity = np.abs(psi @ target.conj()) ** 2 / np.linalg.norm(psi, axis=1) ** 2
    alive = fidelity[[s not in dead for s in range(samples)]]
    assert (est.sample_count, est.excluded_count) == (samples - len(dead), len(dead))
    assert est.mean_fidelity == pytest.approx(alive.mean(), abs=1e-12)
    assert est.standard_error == pytest.approx(
        alive.std(ddof=1) / np.sqrt(alive.size), abs=1e-12)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("cap", [1, 1 << 16])
def test_seeded_estimate_does_not_depend_on_the_chunking(monkeypatch, n, cap):
    config = ds.ghz_config(n, 0.3)
    geo = ds.DetectionGeometry.linear_chain(n, transverse_sigma=20e-9,
                                            window_halfangle=np.deg2rad(2.0))
    want = ds.estimate_fidelity(config, geo, samples=150, seed=9)
    monkeypatch.setattr(window, "_CHUNK_ENTRIES", cap)
    got = ds.estimate_fidelity(config, geo, samples=150, seed=9)
    assert got.mean_fidelity == pytest.approx(want.mean_fidelity, abs=1e-12)
    assert got.standard_error == pytest.approx(want.standard_error, abs=1e-12)
    assert (got.sample_count, got.excluded_count) == (want.sample_count,
                                                      want.excluded_count)


@pytest.mark.parametrize("n", range(1, 13))
def test_chunks_hold_the_budget_over_the_widest_half_level(monkeypatch, n):
    # level m of a half cascade holds C(n, m) 2**m entries per sample
    chunk = max(1, window._CHUNK_ENTRIES
                // max(comb(n, m) << m for m in range(n - n // 2 + 1)))
    counts = []

    def counting(components, phases):
        counts.append(len(phases))
        return _cascade_outputs(components, phases)

    monkeypatch.setattr(window, "_cascade_outputs", counting)
    geo = ds.DetectionGeometry.linear_chain(n)
    config = random_config(np.random.default_rng(n), n)
    est = ds.estimate_fidelity(config, geo, samples=2 * chunk + 1, seed=3)
    assert counts == [chunk, chunk, 1]
    assert est.sample_count + est.excluded_count == 2 * chunk + 1


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
    p = ds.Polarizer.linear(0.0)
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
    for n in range(1, 9):
        yield pytest.param(random_config(rng, n), None, id=f"random{n}")
        if n > 1:
            yield pytest.param(ds.ghz_config(n, 0.4), None, id=f"ghz{n}")
            yield pytest.param(ds.w_config(n, 0.2), None, id=f"w{n}")
            yield pytest.param(ds.ghz_config(n, 0.0),
                               ds.dicke_coefficients(ds.w_config(n, 0.3)),
                               id=f"ghz{n}-vs-w")
    # generic explicit targets, drawn apart so the cases above keep their draws
    rng = np.random.default_rng(61)
    for n in range(1, 9):
        target = ds.SymmetricState.from_raw(n, rng.normal(size=n + 1)
                                            + 1j * rng.normal(size=n + 1))
        yield pytest.param(random_config(rng, n), target, id=f"random{n}-vs-random")


@pytest.mark.parametrize("config, target", _window_cases())
def test_estimate_matches_dense_reference(monkeypatch, config, target):
    n = len(config)
    geo = ds.DetectionGeometry.linear_chain(n, transverse_sigma=20e-9,
                                            window_halfangle=np.deg2rad(2.0))
    # two full chunks and a partial one; a small budget keeps the dense
    # one-sample-at-a-time oracle short whatever the library's budget
    monkeypatch.setattr(window, "_CHUNK_ENTRIES", 2048)
    chunk = window._CHUNK_ENTRIES // max(comb(n, m) << m for m in range(n - n // 2 + 1))
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


@pytest.mark.parametrize("n, samples, bound", [(8, 64, 1_600_000), (10, 8, 1_200_000)],
                         ids=["n8", "n10"])
def test_memory_per_chunk_stays_bounded_at_large_n(n, samples, bound):
    # a thread's first chunk of 7 samples grows its buffers to about 0.6 MB at
    # n = 8, and its first of one sample to about 0.54 MB at n = 10, which
    # later chunks reuse; a budget that packed many more samples
    # together would pass 1.6 MB at n = 8, and a single cascade over the
    # full levels (15360 entries at n = 10) would reach about 1.4 MB
    config = ds.ghz_config(n, 0.0)
    geo = ds.DetectionGeometry.linear_chain(n)
    ds.estimate_fidelity(config, geo, samples=1, seed=3)  # build cached tables
    tracemalloc.start()
    try:
        est = ds.estimate_fidelity(config, geo, samples=samples, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.sample_count + est.excluded_count == samples
    assert peak < bound


def _bits(est):
    return (est.mean_fidelity.hex(), est.standard_error.hex(), est.sample_count,
            est.excluded_count)


def test_threads_give_the_serial_estimates_bit_for_bit():
    # each thread works in its own buffers; shared ones would mix the chunks
    # of concurrent calls
    inputs = [(ds.ghz_config(n, 0.2), ds.DetectionGeometry.linear_chain(
        n, transverse_sigma=20e-9, window_halfangle=np.deg2rad(2.0)), samples)
        for n, samples in [(3, 1500), (4, 40), (5, 230), (8, 16), (2, 900), (6, 60)]]
    jobs = [(config, geo, samples, seed) for seed in range(3)
            for config, geo, samples in inputs]

    def run(job):
        config, geo, samples, seed = job
        return _bits(ds.estimate_fidelity(config, geo, samples=samples, seed=seed))

    want = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside chunks, not only between calls
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(run, jobs * 5, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 5


@pytest.mark.parametrize("n", range(1, 13))
def test_a_call_keeps_its_bits_with_the_workspaces_cleared_or_reused(n):
    # two full chunks and a partial one, from new buffers, from the call's
    # own, and from buffers another size has just written in its own layout
    m = n - n // 2
    samples = 2 * max(1, window._CHUNK_ENTRIES // (comb(n, m) << m)) + 1
    config = random_config(np.random.default_rng(70 + n), n)
    geo = ds.DetectionGeometry.linear_chain(n, transverse_sigma=20e-9,
                                            window_halfangle=np.deg2rad(2.0))
    other = ds.w_config(3, 0.4), ds.DetectionGeometry.linear_chain(3)
    runs = []
    for step in ("cleared", "reused", "overwritten", "cleared"):
        if step == "cleared":
            window._workspaces.buffers.clear()
            window._workspaces.shapes.clear()
        elif step == "overwritten":
            ds.estimate_fidelity(*other, samples=700, seed=1)
        runs.append(_bits(ds.estimate_fidelity(config, geo, samples=samples, seed=n)))
    assert runs == runs[:1] * 4


@pytest.mark.parametrize("n, samples", [(8, 16), (3, 2000)], ids=["ghz8x16", "ghz3x2000"])
def test_a_repeated_call_allocates_less_than_one_level_array(n, samples):
    # page faults depend on the allocator, so the reuse is pinned by what is
    # allocated: once a call has grown the buffers, a chunk allocates only
    # its outputs (2**n entries per sample, against C(n, m) 2**m in a level
    # array of the larger half) and its pooled terms
    config = ds.ghz_config(n, 0.0)
    geo = ds.DetectionGeometry.linear_chain(n)
    m = n - n // 2
    count = min(samples, max(1, window._CHUNK_ENTRIES // (comb(n, m) << m)))
    ds.estimate_fidelity(config, geo, samples=samples, seed=1)
    tracemalloc.start()
    try:
        est = ds.estimate_fidelity(config, geo, samples=samples, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.sample_count + est.excluded_count == samples
    assert peak < 16 * count * (comb(n, m) << m)


def test_shapes_past_the_bound_are_evicted_and_share_the_buffers():
    n, bound = 4, window._WORKSPACES
    components, _, _ = window._config_arrays(ds.ghz_config(n, 0.3))
    phases = np.random.default_rng(5).uniform(-3.0, 3.0, (3 * bound, n, n))
    _cascade_outputs(components, phases)  # buffers for the largest shape
    buffers = {name: b.nbytes for name, b in window._workspaces.buffers.items()}
    window._workspaces.shapes.clear()
    retained = []
    tracemalloc.start()
    try:
        for count in range(1, 3 * bound + 1):
            _cascade_outputs(components, phases[:count])
            if count in (bound, 3 * bound):
                retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert list(window._workspaces.shapes) == [(n, count)
                                               for count in range(2 * bound + 1, 3 * bound + 1)]
    assert {name: b.nbytes for name, b in window._workspaces.buffers.items()} == buffers
    # the views of the kept shapes only: without eviction they would triple
    assert retained[1] < 1.5 * retained[0]


def test_growing_a_buffer_drops_the_views_of_the_old_one():
    # a kept view of a replaced buffer would keep that buffer alive
    components, _, _ = window._config_arrays(ds.ghz_config(4, 0.3))
    phases = np.random.default_rng(6).uniform(-3.0, 3.0, (40, 4, 4))
    window._workspaces.buffers.clear()
    window._workspaces.shapes.clear()
    for count in (3, 40, 40):  # the second call grows every buffer
        _cascade_outputs(components, phases[:count])
    (shape, work), = window._workspaces.shapes.items()
    assert shape == (4, 40)
    for name, buffer in window._workspaces.buffers.items():
        if name in work.__slots__:
            assert np.shares_memory(getattr(work, name), buffer), name


def test_the_kernel_returns_new_outputs_each_call():
    # the working arrays are reused, but a caller may keep the outputs
    n = 5
    components, _, _ = window._config_arrays(ds.w_config(n, 0.3))
    phases = np.random.default_rng(8).uniform(-3.0, 3.0, (2, 4, n, n))
    first = _cascade_outputs(components, phases[0])
    kept = first.copy()
    second = _cascade_outputs(components, phases[1])
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert np.array_equal(_cascade_outputs(components, phases[0]), kept)


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
