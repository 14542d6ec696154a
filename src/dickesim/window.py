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
emitter's photon, never the dense ``3**n`` register.  The sum meets in the
middle.  Emitters ``0..h-1`` and ``h..n-1`` (``h = n // 2``) each run a half
cascade in emitter order: once ``m`` of a half's emitters are placed, only
``C(n, m) 2**m`` partial sums remain, one per set of detectors used and
labels of those emitters (layout in ``_level_tables``).  A step is a few
elementwise multiply-adds over all samples of a chunk at once.  One matrix
product per sample then joins the halves, pairing each detector set of the
low half with its complement in the high half, and lands in qubit order.
The phases ``k r_j . nhat_i`` of a chunk are built first as one
``(count, n, n)`` array (``_sample_phases``) from a table that the geometry
builds once (``DetectionGeometry.phase_table``), and the cascade reads only
those phases and the polarizers (``_cascade_outputs``).  Samples are propagated
together in chunks of at most ``_CHUNK_ENTRIES`` = 8192 entries (samples
times the widest half level, about 100-170 B of peak memory each, so
roughly 0.8-1.4 MB a chunk), and their fidelities are pooled into a running
mean and variance, so memory does not grow with the sample count.
Two seeded streams, drawn one block per chunk and read in sample order, give
the transverse normals and the window deviates, so a seeded estimate does not
depend on the chunking and agrees to round-off with applying the dense
detection kernel one sample at a time.  What does not depend on the samples
(the geometry's table, the seeded streams, the target's bra) is built once
per call or per geometry, outside the chunk loop.
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

#: Samples times widest half level propagated together, whatever the sample
#: count.  A full chunk's tracemalloc peak is 98-169 B per such entry at
#: every n = 1..10 (highest at n <= 4, where the phases and weights of many
#: samples dominate; the two half levels, their row gathers and the join
#: otherwise), so 0.8-1.4 MB here.  A chunk holds 7 samples at n = 8 and 2
#: at n = 9; from n = 10 on it is a single sample and memory no longer
#: depends on this budget.
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

    Two fields are derived on construction.  ``transverse_basis``: two unit
    vectors, shape ``(2, 3)``, spanning the plane orthogonal to the emitter
    line, along which the jitter is drawn.  ``phase_table``: shape
    ``(3, n + 2, n)``, the wavenumber times each point along each part of
    each detector's direction.  The points are the ``n`` mean positions and
    the two basis vectors scaled by ``transverse_sigma``.  The parts are the
    flat direction, the flat direction turned by 90 degrees about z, and its
    z component; a window rotation weights the first two with the cosine and
    sine of its angle.  The positions and directions are copies, and those
    four arrays are read-only, so a later edit of the caller's arrays cannot
    change the geometry, and ``dataclasses.replace`` builds them anew.
    Invalid values raise ``ConfigError``.
    """

    emitter_positions: np.ndarray
    transverse_sigma: float
    wavelength: float
    detector_directions: np.ndarray
    window_halfangle: float
    transverse_basis: np.ndarray = field(init=False, repr=False)
    phase_table: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "wavelength", wavelength)
        object.__setattr__(self, "window_halfangle", window)
        object.__setattr__(self, "transverse_sigma", sigma)
        pos = np.copy(pos)  # the caller's array may change later; this may not
        dirs = dirs / norms[:, None]
        basis = _transverse_basis(pos)
        vx, vy, vz = dirs.T
        zero = np.zeros(len(pos))
        # a direction rotated by delta about z is cos(delta) flat + sin(delta) turned + up
        parts = np.array([[vx, vy, zero], [-vy, vx, zero], [zero, zero, vz]])
        # the mean emitter positions, then the two jitter axes scaled by sigma
        points = np.vstack([pos, sigma * basis])
        table = self.wavenumber * (points @ parts)
        for name, value in (("emitter_positions", pos), ("detector_directions", dirs),
                            ("transverse_basis", basis), ("phase_table", table)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

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
    bra = target.to_qubit_amplitudes().conj()

    # the children of SeedSequence(seed).spawn(2), without building the parent
    normal_rng, window_rng = (
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) for i in range(2))
    widest = max(comb(n, m) << m for m in range(n - n // 2 + 1))
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
        if not alive.all():
            psi, nrm = psi[alive], nrm[alive]
        overlap = (psi * bra).sum(axis=1) / nrm
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
    """Gather tables for the half cascades of :func:`_cascade_outputs`.

    Once emitters ``0..m-1`` of a half have each given their photon to a
    different detector, a partial sum is indexed by the set of ``m``
    detectors used and by those emitters' labels.  Level ``m`` is stored as
    an array of shape ``(2**m, C(n, m), count)``: bit ``p`` of the first
    index is 1 when emitter ``p`` sits in ``-`` (else ``+``), the second
    index runs over the sets of ``m`` detectors in the order of
    ``itertools.combinations(range(n), m)``, and samples come last.

    Level 1 needs no table: its row ``i`` is the set ``{i}``, so a half's
    first emitter's weights are level 1 as they stand.  Entry ``m - 1``
    leads from level ``m >= 1`` to ``m + 1`` and is ``(src, detector)``, both
    of shape ``(m + 1, C(n, m + 1))``: for each level-``m + 1`` set and
    position ``p``, ``detector[p]`` is the set's ``p``-th smallest detector
    and ``src[p]`` the level-``m`` row of the set without it.  The entries
    stop at level ``n - n // 2``, the larger half's last, so ``n <= 3`` has
    none.
    """
    tables = []
    row_of = {(i,): i for i in range(n)}  # set of m detectors -> its row in level m
    for m in range(2, n - n // 2 + 1):
        sets = list(combinations(range(n), m))
        detector = np.array(sets, dtype=np.intp).T
        src = np.array([[row_of[s[:p] + s[p + 1:]] for s in sets] for p in range(m)],
                       dtype=np.intp)
        row_of = {s: row for row, s in enumerate(sets)}
        for a in (src, detector):
            a.setflags(write=False)
        tables.append((src, detector))
    return tuple(tables)


def _sample_phases(geometry: DetectionGeometry, normals: np.ndarray,
                   deviates: np.ndarray) -> np.ndarray:
    """Far-field phases of ``count`` samples, shape ``(count, n, n)``.

    Row ``s`` of ``normals`` ``(count, 2n)`` and ``deviates`` ``(count, n)``
    holds sample ``s``'s unit emitter displacements along the two transverse
    axes and its window deviates in ``[-1, 1)``.  ``phases[s, j, i]`` is
    ``k r_j . nhat_i``: emitter ``j``'s displaced position along detector
    ``i``'s direction, rotated about z by the deviate times the halfangle.
    Only the rotation and the displacement depend on the sample; the rest
    is ``geometry.phase_table``, built once with the geometry.  The result
    is a view of an ``(n, n, count)`` array, samples last, which is the
    layout :func:`_cascade_outputs` works in.
    """
    n = geometry.n
    table = geometry.phase_table[..., None]  # (3, n + 2, n, 1)
    delta = deviates.T * geometry.window_halfangle
    # along[e, i, s]: k times point e along sample s's rotated direction i
    along = np.cos(delta) * table[0] + np.sin(delta) * table[1] + table[2]
    jitter = np.ascontiguousarray(normals.T)[:, None, :]
    phases = along[:n] + jitter[:n] * along[n] + jitter[n:] * along[n + 1]
    return phases.transpose(2, 0, 1)


def _half_cascade(weights: np.ndarray) -> np.ndarray:
    """Level ``m`` of the cascade of the ``m`` emitters in ``weights``.

    ``weights[j, b, i, s]`` is detector ``i``'s term for the half's emitter
    ``j``'s photon in label ``b``, in sample ``s``.  Level 1 is ``weights[0]``
    itself, already in the level layout (see :func:`_level_tables`), and is
    returned as that view for a one-emitter half.  Each further step hands
    the next emitter's photon to each detector not yet used, and its label
    becomes the new top bit of the first index.  A step is ``m + 1``
    elementwise multiply-adds over whole levels.  With no emitters the
    result is level 0: the empty set, with weight 1.
    """
    count = weights.shape[-1]
    if len(weights) == 0:
        return np.ones((1, 1, count), dtype=complex)
    level = weights[0]
    for w, (src, detector) in zip(weights[1:], _level_tables(weights.shape[2])):
        # terms[b, 0, p, row, s]: w's term for the row's p-th smallest detector
        terms = np.take(w, detector, axis=1)[:, None]
        step = terms[:, :, 0] * np.take(level, src[0], axis=1)
        for p in range(1, len(src)):
            step += terms[:, :, p] * np.take(level, src[p], axis=1)
        level = step.reshape(-1, src.shape[1], count)
    return level


def _cascade_outputs(components: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Unnormalized cascade outputs of ``count`` samples, shape ``(count, 2**n)``.

    ``components[i]`` holds detector ``i``'s polarizer ``(alpha, beta)`` and
    ``phases`` is :func:`_sample_phases`'s ``(count, n, n)``.  Columns are
    qubit indices (bit ``j`` set = emitter ``j`` in ``-``).

    Emitters ``0..h-1`` and ``h..n-1`` (``h = n // 2``) run their own half
    cascades over all ``n`` detectors.  The halves are joined by one matrix
    product per sample: each set of ``h`` detectors the low half used meets
    the high half's row of the other ``n - h``.  ``combinations`` lists the
    complements of the ``h``-sets in reverse order, so that row is the same
    row counted from the end.  The join sums the same ``n!`` products per
    amplitude as a single cascade, in another order, and subtracts nothing.
    """
    count, n, _ = phases.shape
    h = n // 2
    # weights[j, b, i, s]: detector i's term for emitter j's photon in label b;
    # cos and sin of a real array cost a fraction of a complex exp
    phases = phases.transpose(1, 2, 0)
    unit = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=unit.real)
    np.sin(phases, out=unit.imag)
    weights = unit[:, None] * components.T[:, :, None]
    low, high = _half_cascade(weights[:h]), _half_cascade(weights[h:])
    # (count, 2**(n - h), C(n, h)) @ (count, C(n, h), 2**h): the high half's
    # labels are the top bits
    joined = high[:, ::-1].transpose(2, 0, 1) @ low.transpose(2, 1, 0)
    return joined.reshape(count, -1)


def _sample_outputs(components: np.ndarray, geometry: DetectionGeometry,
                    normals: np.ndarray, deviates: np.ndarray) -> np.ndarray:
    """Unnormalized cascade outputs of ``count`` samples, shape ``(count, 2**n)``.

    The phases of :func:`_sample_phases` fed to :func:`_cascade_outputs`.
    """
    return _cascade_outputs(components, _sample_phases(geometry, normals, deviates))
