import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickesim as ds
from conftest import (
    SPIN_FLIP,
    concurrence_oracle,
    entropy_oracle,
    ghz_qubit,
    orientation_distance,
    qubit_kron,
    random_config,
    random_polarizer,
    reduced_density,
    separated_config,
    s_qubit,
    tangle_oracle,
    w_qubit,
)


def _concurrence_oracle(rho):
    flipped = rho @ SPIN_FLIP @ rho.conj() @ SPIN_FLIP
    lams = np.sqrt(np.sort(np.abs(np.linalg.eigvals(flipped).real))[::-1])
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


# ---------------------------------------------------------------------------
# tangle
# ---------------------------------------------------------------------------

def test_tangle_anchors():
    assert ds.tangle_hyperdeterminant(ghz_qubit(3, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert ds.tangle_hyperdeterminant(w_qubit(3, 0.0)) <= 1e-12
    assert ds.tangle_hyperdeterminant(s_qubit(3, 0.7)) <= 1e-12
    state = ds.SymmetricState.from_raw(3, [1.0, 0.0, 0.0, 1.0])
    assert ds.tangle_hyperdeterminant(state) == pytest.approx(1.0, abs=1e-12)


def test_tangle_matches_residual_decomposition():
    # residual tangle = one-to-rest tangle minus both pair concurrences squared
    rng = np.random.default_rng(41)
    for _ in range(100):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        tau = ds.tangle_hyperdeterminant(psi)
        one_to_rest = 4.0 * np.linalg.det(reduced_density(psi, (0,))).real
        c01 = _concurrence_oracle(reduced_density(psi, (0, 1)))
        c02 = _concurrence_oracle(reduced_density(psi, (0, 2)))
        assert tau == pytest.approx(one_to_rest - c01 ** 2 - c02 ** 2, abs=5e-7)


def test_tangle_closed_form_anchor():
    assert ds.tangle_closed_form(ds.ghz_config(3, 0.0)) == pytest.approx(1.0, abs=1e-9)


def test_tangle_closed_form_trivial_zeros():
    # identical polarizer objects cancel exactly in every cross term
    assert ds.tangle_closed_form(ds.s_config(3, 1.3)) == 0.0
    assert ds.tangle_closed_form(ds.w_config(3, 0.4)) == 0.0


def test_tangle_closed_form_matches_hyperdeterminant():
    rng = np.random.default_rng(42)
    for _ in range(200):
        config = random_config(rng, 3)
        closed = ds.tangle_closed_form(config)
        oracle = ds.tangle_hyperdeterminant(ds.dicke_coefficients(config))
        assert closed == pytest.approx(oracle, abs=1e-8)


def test_tangle_vanishes_iff_two_orientations_coincide():
    rng = np.random.default_rng(43)
    for _ in range(50):
        p, q = random_polarizer(rng), random_polarizer(rng)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        config = ds.PolarizerConfig((p, ds.Polarizer(phase * p.alpha, phase * p.beta), q))
        assert ds.tangle_closed_form(config) <= 1e-12
    for _ in range(50):
        config = separated_config(rng, min_sep=1e-2)
        assert ds.tangle_closed_form(config) > 1e-12


def test_tangle_closed_form_requires_three_polarizers():
    with pytest.raises(ds.DimensionMismatchError):
        ds.tangle_closed_form(ds.s_config(4, 0.0))


def test_tangle_decreases_monotonically_while_orientations_merge():
    # rotate the first polarizer of the maximally-entangled setting onto the
    # second one; tau must fall continuously from 1 to 0
    thetas = np.linspace(0.0, np.pi / 3, 60)
    taus = [ds.tangle_closed_form(ds.PolarizerConfig.from_angles(
        [t, np.pi / 3, 2 * np.pi / 3])) for t in thetas]
    assert taus[0] == pytest.approx(1.0, abs=1e-9)
    assert taus[-1] <= 1e-12
    diffs = np.diff(taus)
    assert np.all(diffs <= 1e-9)          # never increases along the merge
    assert np.max(np.abs(diffs)) < 0.08   # and degrades continuously


# ---------------------------------------------------------------------------
# entropies and concurrences
# ---------------------------------------------------------------------------

def test_entropy_anchors():
    for q in range(3):
        assert ds.entanglement_report(s_qubit(3, 0.4)).entropies[q] <= 1e-12
        assert ds.entanglement_report(ghz_qubit(3, 0.0)).entropies[q] == pytest.approx(
            1.0, abs=1e-12)
        assert ds.entanglement_report(w_qubit(3, 0.0)).entropies[q] == pytest.approx(
            np.log2(3) - 2.0 / 3.0, abs=1e-10)


def test_pair_concurrence_anchors():
    for pair in ((0, 1), (0, 2), (1, 2)):
        assert ds.entanglement_report(w_qubit(3, 0.0)).pair_concurrences[pair] == \
            pytest.approx(2.0 / 3.0, abs=1e-10)
        assert ds.entanglement_report(ghz_qubit(3, 0.0)).pair_concurrences[pair] <= 1e-10
        assert ds.entanglement_report(s_qubit(3, 1.1)).pair_concurrences[pair] <= 1e-10


def test_index_validation():
    with pytest.raises(ds.DimensionMismatchError):
        ds.tangle_hyperdeterminant(np.ones(4))
    with pytest.raises(ds.DimensionMismatchError):
        ds.entanglement_report(ds.SymmetricState.from_raw(2, [1, 0, 0]))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_from_config_examples():
    assert ds.classify_from_config(
        ds.PolarizerConfig.from_angles([0.0, np.pi / 3, 2 * np.pi / 3])
    ) == ds.ClassPrediction(3, ds.GHZ_CLASS)
    assert ds.classify_from_config(
        ds.PolarizerConfig.from_angles([0.0, 0.0, np.pi / 2])
    ) == ds.ClassPrediction(2, ds.W_CLASS)
    assert ds.classify_from_config(
        ds.PolarizerConfig.from_angles([0.35, 0.35, 0.35])
    ) == ds.ClassPrediction(1, ds.S_CLASS)


def test_entanglement_report_class_examples():
    w_like = ds.dicke_coefficients(ds.PolarizerConfig.from_angles([0.0, 0.0, np.pi / 2]))
    assert ds.entanglement_report(w_like).inferred_class == ds.W_CLASS
    product = ds.SymmetricState.from_raw(3, [1.0, 0.0, 0.0, 0.0])
    assert ds.entanglement_report(product).inferred_class == ds.S_CLASS
    assert ds.entanglement_report(ghz_qubit(3, 0.2)).inferred_class == ds.GHZ_CLASS


def test_classifications_agree_on_separated_configurations():
    rng = np.random.default_rng(44)
    for _ in range(200):
        config = separated_config(rng)
        predicted = ds.classify_from_config(config).predicted_class
        measured = ds.entanglement_report(ds.dicke_coefficients(config)).inferred_class
        assert predicted == measured == ds.GHZ_CLASS


def test_classification_tracks_forced_coincidences():
    rng = np.random.default_rng(45)
    for _ in range(50):
        p, q = random_polarizer(rng), random_polarizer(rng)
        while orientation_distance(p, q) < 1e-2:
            q = random_polarizer(rng)
        two_equal = ds.PolarizerConfig((p, p, q))
        assert ds.classify_from_config(two_equal).predicted_class == ds.W_CLASS
        state = ds.dicke_coefficients(two_equal)
        assert ds.entanglement_report(state).inferred_class == ds.W_CLASS
        all_equal = ds.PolarizerConfig((p, p, p))
        assert ds.classify_from_config(all_equal).predicted_class == ds.S_CLASS
        state = ds.dicke_coefficients(all_equal)
        assert ds.entanglement_report(state).inferred_class == ds.S_CLASS


def test_entropies_collapse_only_with_third_coincidence():
    rng = np.random.default_rng(46)
    for _ in range(25):
        p, q = random_polarizer(rng), random_polarizer(rng)
        while orientation_distance(p, q) < 1e-2:
            q = random_polarizer(rng)
        report_two = ds.entanglement_report(
            ds.dicke_coefficients(ds.PolarizerConfig((p, p, q))))
        assert report_two.tangle <= 1e-12
        assert max(report_two.entropies) > ds.CLASS_TOL
        report_all = ds.entanglement_report(
            ds.dicke_coefficients(ds.PolarizerConfig((p, p, p))))
        assert max(report_all.entropies) <= 1e-10


def test_report_is_internally_consistent():
    rng = np.random.default_rng(47)
    for _ in range(50):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        report = ds.entanglement_report(psi)
        assert 0.0 <= report.tangle <= 1.0
        assert all(0.0 <= s <= 1.0 + 1e-12 for s in report.entropies)
        assert all(0.0 <= c <= 1.0 for c in report.pair_concurrences.values())
        if report.tangle > ds.CLASS_TOL:
            assert report.inferred_class == ds.GHZ_CLASS
        elif max(report.entropies) > ds.CLASS_TOL:
            assert report.inferred_class == ds.W_CLASS
        else:
            assert report.inferred_class == ds.S_CLASS


# ---------------------------------------------------------------------------
# agreement with the numpy oracles
# ---------------------------------------------------------------------------

_parts = st.floats(-1.0, 1.0)


def _complex_vector(size):
    return st.lists(_parts, min_size=2 * size, max_size=2 * size).map(
        lambda v: np.array(v[:size]) + 1j * np.array(v[size:]))


_states = _complex_vector(8).filter(lambda psi: np.linalg.norm(psi) > 1e-3)


@st.composite
def _near_product_states(draw):
    """A random product state plus a kick of relative size 1e-10 .. 1e-4."""
    qubits = [draw(_complex_vector(2).filter(lambda v: np.linalg.norm(v) > 1e-2))
              for _ in range(3)]
    product = qubit_kron(qubits)
    kick = draw(_states)
    eps = 10.0 ** draw(st.floats(-10.0, -4.0))
    return product / np.linalg.norm(product) + eps * kick / np.linalg.norm(kick)


def _assert_measures_match_oracles(psi):
    report = ds.entanglement_report(psi)
    assert report.tangle == pytest.approx(tangle_oracle(psi), abs=1e-12)
    assert ds.tangle_hyperdeterminant(psi) == report.tangle
    for q in range(3):
        assert report.entropies[q] >= 0.0
        assert report.entropies[q] == pytest.approx(entropy_oracle(psi, q), abs=1e-12)
    for pair in ((0, 1), (0, 2), (1, 2)):
        want = concurrence_oracle(psi, pair)
        assert report.pair_concurrences[pair] == pytest.approx(want, abs=1e-12)


@settings(max_examples=200)
@given(psi=_states)
def test_measures_match_numpy_oracles_on_random_states(psi):
    _assert_measures_match_oracles(psi)


@settings(max_examples=200)
@given(psi=_near_product_states())
def test_measures_match_numpy_oracles_near_product_states(psi):
    _assert_measures_match_oracles(psi)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "-inf", "imag-nan"])
def test_non_finite_amplitudes_are_a_config_error(bad):
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    psi[7] = bad
    with pytest.raises(ds.ConfigError):
        ds.entanglement_report(psi)
    with pytest.raises(ds.ConfigError):
        ds.tangle_hyperdeterminant(psi)


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_amplitude_scale_does_not_change_the_measures(scale):
    report = ds.entanglement_report(scale * w_qubit(3, 0.0))
    assert report.inferred_class == ds.W_CLASS
    assert report.pair_concurrences[(0, 1)] == pytest.approx(2.0 / 3.0, abs=1e-12)
    with pytest.raises(ds.ZeroStateError):
        ds.entanglement_report(np.zeros(8))


# ---------------------------------------------------------------------------
# concurrence precision against 50-digit arithmetic
# ---------------------------------------------------------------------------

_PAIRS = ((0, 1), (0, 2), (1, 2))


def _concurrence_mp(psi, pair):
    """``sqrt(|T|_F**2 - 2 |det T|)`` for ``T = M^T (sy x sy) M`` at 50 digits.

    The root cancels near a product state, which 50 digits leave harmless;
    ``psi`` is normalized at that precision too.
    """
    i, j = pair
    rest = ({0, 1, 2} - {i, j}).pop()
    rows = np.transpose(np.asarray(psi).reshape(2, 2, 2, order="F"), (i, j, rest)).reshape(4, 2)
    with mpmath.workdps(50):
        m = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in rows])
        norm2 = mpmath.fsum(abs(m[k, l]) ** 2 for k in range(4) for l in range(2))
        t = m.T * mpmath.matrix(SPIN_FLIP.tolist()) * m / norm2
        frobenius2 = mpmath.fsum(abs(t[k, l]) ** 2 for k in range(2) for l in range(2))
        det = abs(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0])
        return float(mpmath.sqrt(max(frobenius2 - 2 * det, 0)))


def _random_amplitudes(rng, size):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def test_concurrences_match_50_digit_arithmetic():
    rng = np.random.default_rng(53)
    states = [_random_amplitudes(rng, 8) for _ in range(100)]
    for eps in 10.0 ** np.arange(-16.0, -5.0):
        for _ in range(20):
            product = qubit_kron([_random_amplitudes(rng, 2) for _ in range(3)])
            states.append(product + eps * _random_amplitudes(rng, 8))
    for psi in states:
        report = ds.entanglement_report(psi)
        for pair in _PAIRS:
            want = _concurrence_mp(psi, pair)
            assert abs(report.pair_concurrences[pair] - want) <= 1e-15


def test_a_tiny_kick_off_a_product_keeps_its_relative_precision():
    # every entry of T is about 1e-200, so its squares underflow unless scaled
    rng = np.random.default_rng(59)
    for _ in range(20):
        psi = 1e-200 * _random_amplitudes(rng, 8)
        psi[0] = 1.0
        report = ds.entanglement_report(psi)
        for pair in _PAIRS:
            want = _concurrence_mp(psi, pair)
            assert 0.0 < want < 1e-199
            assert report.pair_concurrences[pair] == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("qubits", [
    [(1, 0), (1, 0), (1, 0)],
    [(0, 1), (1, 0), (0, 1)],
    [(1, 1), (1, 1), (1, 1)],
    [(1, 1j), (1, 0), (1, -1)],
], ids=["000", "101", "plus-plus-plus", "mixed"])
def test_an_exact_product_has_zero_concurrences(qubits):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ds.entanglement_report(qubit_kron(qubits))
    assert list(report.pair_concurrences.values()) == [0.0, 0.0, 0.0]
