"""Monte-Carlo fidelity under finite detection windows and emitter motion.

The ideal cascade assumes every photodetection projects all emitters with a
common weight.  A real detector accepts photons over a finite angular window
and the emitters jitter around their trap centers, so emitter ``j``'s term
acquires the far-field phase ``exp(i k r_j . nhat)`` (``k = 2 pi /
wavelength``, ``nhat`` the detection direction).  When those phases do not
factor into a per-detector times per-emitter form, the interfering paths
dephase and the prepared state degrades.

Sampling model (all of it overridable through :class:`DetectionGeometry`):

* emitter positions are their means plus an isotropic Gaussian displacement
  in the plane transverse to the emitter line, drawn once per sample and
  held fixed for all detections of that sample (trap motion is slow against
  the detection cascade);
* each detection direction is drawn uniformly within the azimuthal window,
  i.e. the nominal direction rotated about the vertical (z) axis by an angle
  in ``[-window_halfangle, +window_halfangle]``;
* the default arrangement puts the emitter line along x and the detectors
  on a ring of directions perpendicular to it, which makes the nominal path
  differences vanish exactly (the zero-window, zero-jitter limit reproduces
  the ideal cascade to round-off).

The wavelength and detector arrangement are free parameters of the model;
defaults use a 493 nm dipole transition typical of trapped ions.

Computation: every emitter gives up exactly one photon, so a sample's
amplitude on ``|x_0 ... x_{n-1}>`` is a sum over which detector took which
emitter's photon.  The sum is built in emitter order: once emitters
``0..j-1`` are placed, only ``C(n, j) 2**j`` partial sums remain, one per
set of detectors used and labels of those emitters (layout in
``_level_tables``), never the dense ``3**n`` register.  Each step is
one row gather and one batched matrix product, emitter ``j``'s label is the
new top column bit, and the last level is in qubit order.  Samples are
propagated together in chunks of at most ``_CHUNK_ENTRIES`` = 8192 entries
(samples times widest level; about 100 B of peak memory each, so roughly
0.8 MB a chunk), and their fidelities are pooled into a running mean and
variance, so memory does not grow with the sample count.
Two seeded streams, drawn one block per chunk and read in sample order, give
the transverse normals and the window deviates, so a seeded estimate does not
depend on the chunking and agrees to round-off with applying the dense
detection kernel one sample at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, sqrt

import numpy as np

from .cascade import _as_config, dicke_coefficients
from .core import SymmetricState, _check_register_size, _integer, _numbers, _real, _system_size
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ZeroStateError,
)

DEFAULT_WAVELENGTH = 493e-9

#: Register norm below which a sample counts as annihilated by cancellation.
ANNIHILATION_TOL = 1e-12

#: Samples times widest level propagated together, whatever the sample
#: count.  A full chunk's tracemalloc peak is 75-141 B per such entry at
#: every n = 1..10 (the levels, the row gather and the per-sample weights),
#: so about 0.8 MB here.  At n = 8 a chunk holds 4 samples; from n = 9 on it
#: is a single sample and memory no longer depends on this budget.
_CHUNK_ENTRIES = 8192


@dataclass(frozen=True, eq=False)
class DetectionGeometry:
    """Spatial layout of emitters and detectors for window sampling.

    Parameters
    ----------
    emitter_positions : (n, 3) array
        Mean emitter positions in meters.
    transverse_sigma : float
        Standard deviation (meters, per transverse axis) of the Gaussian
        positional jitter in the plane orthogonal to the emitter line.
    wavelength : float
        Emission wavelength in meters.
    detector_directions : (n, 3) array
        Nominal unit direction of each detector (normalized on construction).
    window_halfangle : float
        Angular half-width (radians) of each detector's azimuthal window.

    ``transverse_basis`` is derived on construction: two unit vectors, shape
    ``(2, 3)``, spanning the plane orthogonal to the emitter line, along
    which the jitter is drawn.  Invalid values raise ``ConfigError``.
    """

    emitter_positions: np.ndarray
    transverse_sigma: float
    wavelength: float
    detector_directions: np.ndarray
    window_halfangle: float
    transverse_basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        wavelength = _real(self.wavelength, "wavelength")
        window = _real(self.window_halfangle, "window_halfangle")
        sigma = _real(self.transverse_sigma, "transverse_sigma")
        pos = _numbers(self.emitter_positions, float, "geometry values")
        dirs = _numbers(self.detector_directions, float, "geometry values")
        if pos.ndim != 2 or pos.shape[1] != 3 or len(pos) < 1:
            raise ConfigError(f"emitter_positions must be (n >= 1, 3), got {pos.shape}")
        if dirs.shape != pos.shape:
            raise ConfigError(
                f"detector_directions {dirs.shape} must match emitter_positions {pos.shape}")
        if wavelength <= 0:
            raise ConfigError("wavelength must be positive")
        if window < 0:
            raise ConfigError("window_halfangle must be >= 0")
        if sigma < 0:
            raise ConfigError("transverse_sigma must be >= 0")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms == 0):
            raise ConfigError("detector directions must be nonzero")
        object.__setattr__(self, "emitter_positions", pos)
        object.__setattr__(self, "wavelength", wavelength)
        object.__setattr__(self, "window_halfangle", window)
        object.__setattr__(self, "transverse_sigma", sigma)
        object.__setattr__(self, "detector_directions", dirs / norms[:, None])
        basis = _transverse_basis(pos)
        basis.setflags(write=False)
        object.__setattr__(self, "transverse_basis", basis)

    @property
    def n(self) -> int:
        return self.emitter_positions.shape[0]

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @classmethod
    def linear_chain(cls, n: int, spacing: float = 5e-6,
                     transverse_sigma: float = 5e-9,
                     wavelength: float = DEFAULT_WAVELENGTH,
                     window_halfangle: float = np.deg2rad(0.5),
                     ) -> "DetectionGeometry":
        """Equally spaced emitters on the x axis, detectors on a transverse ring.

        Detector ``i`` looks along ``(0, cos a_i, sin a_i)`` with the ring
        angles ``a_i = 2 pi i / n`` in the plane orthogonal to the chain.
        Defaults follow a typical trapped-ion setting: 5 um spacing, 5 nm
        transverse confinement, 493 nm light, a 1-degree detection window.
        An ``n`` that is not an integer >= 1 is ``ConfigError``.
        """
        _system_size(n)
        spacing = _real(spacing, "spacing")
        xs = (np.arange(n) - (n - 1) / 2.0) * spacing
        positions = np.column_stack([xs, np.zeros(n), np.zeros(n)])
        ring = 2.0 * np.pi * np.arange(n) / n
        directions = np.column_stack([np.zeros(n), np.cos(ring), np.sin(ring)])
        return cls(positions, transverse_sigma, wavelength, directions,
                   window_halfangle)


@dataclass(frozen=True, slots=True)
class FidelityEstimate:
    """Monte-Carlo mean with its standard error (sample std / sqrt(count)).

    Slotted: sweeps and pooled checks keep many of these records.
    """

    mean_fidelity: float
    standard_error: float
    sample_count: int
    excluded_count: int = 0


def _transverse_basis(positions: np.ndarray) -> np.ndarray:
    """Two unit vectors spanning the plane orthogonal to the emitter line."""
    centered = positions - positions.mean(axis=0)
    if np.allclose(centered, 0.0):
        axis = np.array([1.0, 0.0, 0.0])
    else:
        _, _, vt = np.linalg.svd(centered)
        axis = vt[0]
    seed = np.array([0.0, 0.0, 1.0])
    if abs(axis @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    t1 = np.cross(axis, seed)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(axis, t1)
    return np.array([t1, t2])


def estimate_fidelity(config, geometry: DetectionGeometry,
                      target: SymmetricState | None = None,
                      samples: int = 1000, seed: int = 0) -> FidelityEstimate:
    """Mean fidelity of the sampled cascade output against a symmetric target.

    ``SeedSequence(seed).spawn(2)`` gives two streams, each read in sample
    order: one of the ``2n`` emitter displacements, one of the per-detector
    window deviates that the halfangle scales.  So sweeps over the window
    with a shared seed are paired sample by sample, whatever the chunking.
    The position-dependent detections are then applied and the squared
    overlap with the target taken in the full qubit space: the positional
    phases break permutation symmetry, so a symmetric projection cannot be
    used here.

    ``target`` defaults to the ideal (zero window, zero jitter) output of
    ``config``.  Samples whose register norm falls below ``ANNIHILATION_TOL``
    are excluded as annihilated and counted separately.

    Raises
    ------
    TooLargeError
        If the configuration has more than ``REGISTER_SIZE_LIMIT`` emitters.
    ConfigError
        If ``geometry`` is not a :class:`DetectionGeometry`, ``target`` not
        a :class:`SymmetricState` or ``None``, ``samples`` not a positive
        integer or ``seed`` not a non-negative one.
    DimensionMismatchError
        If configuration, geometry, and target sizes disagree.
    ZeroStateError
        If every sample was annihilated.
    """
    config = _as_config(config)
    n = len(config)
    _check_register_size(n, "window Monte Carlo")
    if not isinstance(geometry, DetectionGeometry):
        raise ConfigError(
            f"geometry must be a DetectionGeometry, got {type(geometry).__name__}")
    if target is not None and not isinstance(target, SymmetricState):
        raise ConfigError(
            f"target must be a SymmetricState or None, got {type(target).__name__}")
    if geometry.n != n:
        raise DimensionMismatchError(
            f"geometry has {geometry.n} emitters, configuration has {n}")
    _integer(samples, "samples", 1)
    _integer(seed, "seed", 0)
    if target is None:
        target = dicke_coefficients(config)
    if target.n != n:
        raise DimensionMismatchError(
            f"target has {target.n} qubits, configuration has {n}")
    target_qubit = target.to_qubit_amplitudes()

    normal_rng, window_rng = map(np.random.default_rng,
                                 np.random.SeedSequence(seed).spawn(2))
    widest = max(comb(n, m) << m for m in range(n + 1))
    chunk = max(1, _CHUNK_ENTRIES // widest)
    components = np.array([[p.alpha, p.beta] for p in config])
    # running count, mean and sum of squared deviations, merged chunk by
    # chunk (Chan et al.); unlike a running sum of squares this does not
    # cancel when every fidelity is (nearly) the same
    kept, mean, m2 = 0, 0.0, 0.0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        psi = _sample_outputs(components, geometry,
                              normal_rng.standard_normal((count, 2 * n)),
                              window_rng.uniform(-1.0, 1.0, (count, n)))
        nrm = np.linalg.norm(psi, axis=1)
        alive = nrm >= ANNIHILATION_TOL
        overlap = (psi[alive] * target_qubit.conj()).sum(axis=1) / nrm[alive]
        if overlap.size == 0:
            continue
        values = np.abs(overlap) ** 2
        count = kept + values.size
        chunk_mean = float(values.mean())
        delta = chunk_mean - mean
        mean += delta * values.size / count
        m2 += (float(((values - chunk_mean) ** 2).sum())
               + delta * delta * kept * values.size / count)
        kept = count

    if kept == 0:
        raise ZeroStateError("every sample was annihilated")
    stderr = sqrt(m2 / (kept - 1)) / sqrt(kept) if kept > 1 else 0.0
    return FidelityEstimate(mean, stderr, kept, samples - kept)


@lru_cache(maxsize=None)
def _level_tables(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Gather tables for the cascade of :func:`_sample_outputs`, in emitter order.

    Once emitters ``0..m-1`` have each given their photon to a different
    detector, a partial sum is indexed by the set of ``m`` detectors used
    and by those emitters' labels.  Level ``m`` is stored as an array of
    shape ``(C(n, m), 2**m)``: rows are the sets of ``m`` detectors in the
    order of ``itertools.combinations(range(n), m)``, and bit ``p`` of the
    column is 1 when emitter ``p`` sits in ``-`` (else ``+``).  Level ``n``
    therefore has a single row whose columns are the qubit indices of
    :meth:`SymmetricState.to_qubit_amplitudes`.

    Entry ``m`` is ``(src, detector)``, both of shape ``(m + 1, C(n, m + 1))``:
    for each level-``m + 1`` set and position ``p``, ``detector[p]`` is the
    set's ``p``-th smallest detector and ``src[p]`` the level-``m`` row of
    the set without it.
    """
    tables = []
    row_of = {(): 0}  # set of m detectors -> its row in level m
    for m in range(1, n + 1):
        sets = list(combinations(range(n), m))
        detector = np.array(sets, dtype=np.intp).T
        src = np.array([[row_of[s[:p] + s[p + 1:]] for s in sets] for p in range(m)],
                       dtype=np.intp)
        row_of = {s: row for row, s in enumerate(sets)}
        for a in (src, detector):
            a.setflags(write=False)
        tables.append((src, detector))
    return tuple(tables)


def _sample_outputs(components: np.ndarray, geometry: DetectionGeometry,
                    normals: np.ndarray, deviates: np.ndarray) -> np.ndarray:
    """Unnormalized cascade outputs of ``count`` samples, shape ``(count, 2**n)``.

    ``components[i]`` holds detector ``i``'s polarizer ``(alpha, beta)``.
    Row ``s`` of ``normals`` ``(count, 2n)`` and ``deviates`` ``(count, n)``
    holds sample ``s``'s unit emitter displacements along the two transverse
    axes and its window deviates in ``[-1, 1)``.  Columns are qubit indices
    (bit ``j`` set = emitter ``j`` in ``-``).
    """
    n = geometry.n
    count = len(normals)
    sigma = geometry.transverse_sigma
    t1, t2 = geometry.transverse_basis
    positions = (geometry.emitter_positions
                 + (normals[:, :n, None] * sigma) * t1
                 + (normals[:, n:, None] * sigma) * t2)
    # emitter axis second, detector axis last: path[s, j, i] is emitter j's
    # path length along detector i's direction, rotated about z by its deviate
    delta = deviates * geometry.window_halfangle
    c, s = np.cos(delta)[:, None], np.sin(delta)[:, None]
    vx, vy, vz = geometry.detector_directions.T
    px, py, pz = positions.transpose(2, 0, 1)[..., None]
    path = (c * vx - s * vy) * px + (s * vx + c * vy) * py + vz * pz
    # weights[s, j, i, b]: detector i's term for emitter j's photon in label b
    weights = np.exp(1j * geometry.wavenumber * path)[..., None] * components
    # emitter order: step j hands emitter j's photon to each detector not yet
    # used, and its label becomes the new top column bit
    levels = np.ones((count, 1, 1), dtype=complex)
    for j, (src, detector) in enumerate(_level_tables(n)):
        # (S, rows, 2, j + 1) @ (S, rows, j + 1, 2**j)
        terms = np.take(weights[:, j], detector.T, axis=1).swapaxes(-1, -2)
        levels = terms @ np.take(levels, src.T, axis=1)
        levels = levels.reshape(count, src.shape[1], -1)
    return levels[:, 0, :]
