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
  the ideal cascade to round-off).  One builder, ``_chain``, holds its
  defaults: :meth:`DetectionGeometry.linear_chain` and the CLI's
  ``geometry`` section both fill in theirs through it.

The wavelength and detector arrangement are free parameters of the model;
defaults use a 493 nm dipole transition typical of trapped ions.

Computation: every emitter gives up exactly one photon, so a sample's
amplitude on ``|x_0 ... x_{n-1}>`` is a sum over which detector took which
emitter's photon, never the dense ``3**n`` register.  The sum meets in the
middle: emitters ``0..h-1`` and ``h..n-1`` (``h = n // 2``) each run a half
cascade, one ``np.einsum`` contraction per step over all samples of a chunk
(``_half_cascade``), and one matrix product per sample joins the halves in
qubit order (``_cascade_outputs``).  The cascade reads only the polarizers
and a chunk's phases ``k r_j . nhat_i``, one ``(count, n, n)`` array built
from the geometry's ``phase_table`` (``_sample_phases``).  A chunk holds at
most ``_CHUNK_ENTRIES`` samples times the widest half level, and only
``_chunk_terms`` turns it into each surviving sample's ``|<ideal|psi>|**2``
and ``||psi||**2``: ``estimate_fidelity`` pools their ratios into a running mean
and variance, so memory does not grow with the sample count, and the test
suite's quadrature reference weights them by its grid.  Two seeded streams,
drawn one block per chunk and read in sample order, give the transverse
normals and the window deviates, so a seeded estimate does not depend on the
chunking and agrees to round-off with the dense detection kernel applied one
sample at a time.  What does not depend on the samples is built once: each
half's steps per size (``_level_tables``), the phase table per geometry, the
polarizer components, the ideal output and its bra per configuration
(``_config_arrays`` keeps the last 16), the seeded streams per call; an
explicit target only scales the result by one ratio (``estimate_fidelity``).
And what a chunk works in is allocated once per thread: each working array
is a view of the thread's buffer of its name, kept at the largest size any
chunk has asked of it, and the views of the last 16 chunk shapes ``(n,
count)`` are kept ready (``_workspace``), so after a thread's first chunk of
a shape the draws, phases and both half cascades write into memory they
already own, and only the chunk's outputs and its pooled terms are new.  A
workspace plans both half cascades when it is built.  A thread keeps at most
7.0 MB of buffers (full chunks at n = 12; 2.23 MB up to n = 10) and up to
0.2 MB of views.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, prod, sqrt

import numpy as np

from .cascade import PolarizerConfig, _as_config, dicke_coefficients
from .core import (SymmetricState, _built, _check_register_size, _integer, _number, _numbers,
                   _store, _system_size, fidelity)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ZeroStateError,
)

#: The defaults of :func:`_chain`, the one builder of the default chain.
_CHAIN_WAVELENGTH = 493e-9
_CHAIN_SPACING = 5e-6
_CHAIN_SIGMA = 5e-9
_CHAIN_WINDOW = np.deg2rad(0.5)
#: The keys :func:`_chain` accepts: the chain's spacing and the constructor's fields.
_CHAIN_KEYS = frozenset({"spacing", "emitter_positions", "transverse_sigma", "wavelength",
                         "detector_directions", "window_halfangle"})

#: Distance from 1 within which a direction's norm counts as unit, 4 ulps of 1.
_UNIT_TOL = 4 * np.finfo(float).eps

#: Register norm below which a sample counts as annihilated by cancellation.
ANNIHILATION_TOL = 1e-12

#: Samples times widest half level propagated together, whatever the sample
#: count.  In a new thread a full chunk at n = 1..10 grows the buffers
#: (:func:`_array`) to 86-181 B per such entry, 0.7-1.5 MB, its tracemalloc
#: peak (the most at n = 2..4, where the phases, the weights and the join of
#: many samples dominate; the half levels and the gathered rows of a whole
#: level otherwise); a later chunk peaks at 2.5-41 B per entry, its outputs
#: and pooled terms (the most at n = 1, 2, where an output is as wide as a
#: level).  A chunk holds 7 samples at n = 8 and 2 at n = 9; from n = 10 on
#: it is a single sample and memory no longer depends on this budget.
_CHUNK_ENTRIES = 8192

#: Chunk shapes whose views (:class:`_Workspace`) each thread keeps, 2-13 KB
#: each: a sweep or a CLI call uses one or two (a full chunk and the rest),
#: and a batch of mixed runs a few, as with ``_config_arrays``' 16.  The
#: buffers they view do not grow with their number.
_WORKSPACES = 16

#: Largest phase-table entry a geometry may hold, so that no sample's phase
#: overflows.  A sample phase is ``along[j] + z1 along[n] + z2 along[n + 1]``
#: (:func:`_sample_phases`).  Each ``|along|`` is at most 3 times the largest
#: entry, since the window enters only through a cosine and a sine.  ``z``
#: comes from ``Generator.standard_normal``, whose ziggurat tail is
#: ``r - log1p(-u) / r`` with ``r = 3.654`` and ``u <= 1 - 2**-53``, so
#: ``|z| < 3.654 + 53 ln 2 / 3.654 < 14``.  Every phase is then below
#: ``87 * 2**1000 < 2**1024``, and its cosine and sine are finite.
_PHASE_TABLE_BOUND = 2.0 ** 1000


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
        Nominal unit direction of each detector (normalized on construction,
        except a row already unit to 4 ulps, which is kept as given).
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
    change the geometry.  A geometry rebuilt from its own fields, as by
    ``dataclasses.replace``, holds the same directions bit for bit.
    Invalid values raise ``ConfigError``, and so do positions too large to
    average and a phase table with an entry above ``2**1000`` (about 1e301
    rad), past which a sample's phases could overflow the float range.
    """

    emitter_positions: np.ndarray
    transverse_sigma: float
    wavelength: float
    detector_directions: np.ndarray
    window_halfangle: float
    transverse_basis: np.ndarray = field(init=False, repr=False)
    phase_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        wavelength = _number(self.wavelength, "wavelength")
        if wavelength <= 0:
            raise ConfigError("wavelength must be positive")
        window = _number(self.window_halfangle, "window_halfangle", minimum=0)
        sigma = _number(self.transverse_sigma, "transverse_sigma", minimum=0)
        pos = _numbers(self.emitter_positions, float, "geometry values")
        dirs = _numbers(self.detector_directions, float, "geometry values")
        if pos.ndim != 2 or pos.shape[1] != 3 or len(pos) < 1:
            raise ConfigError(f"emitter_positions must be (n >= 1, 3), got {pos.shape}")
        if dirs.shape != pos.shape:
            raise ConfigError(
                f"detector_directions {dirs.shape} must match emitter_positions {pos.shape}")
        peaks = np.abs(dirs).max(axis=1)
        if not peaks.all():
            raise ConfigError("detector directions must be nonzero")
        # squares overflow above about 1e154 and lose bits below about 1e-154,
        # so each row is first scaled by the power of two of its largest entry;
        # the scaling is exact, so the unit direction keeps its bits
        exponents = np.frexp(peaks)[1]
        scaled = np.ldexp(dirs, -exponents[:, None])
        norms = np.linalg.norm(scaled, axis=1)
        # a row already unit to 4 ulps is kept as given: normalizing it again
        # can move its last bit, even back and forth, so a geometry rebuilt
        # from its own fields would not be itself.  Only a peak in [1/2, 2)
        # can belong to a unit row, and only there is its norm safe to rescale
        candidate = (exponents == 0) | (exponents == 1)
        unit = candidate & (np.abs(np.ldexp(norms, exponents * candidate) - 1.0) <= _UNIT_TOL)
        pos = np.copy(pos)  # the caller's array may change later; this may not
        dirs = np.where(unit[:, None], dirs, scaled / norms[:, None])
        basis = _transverse_basis(pos)
        vx, vy, vz = dirs.T
        zero = np.zeros(len(pos))
        # a direction rotated by delta about z is cos(delta) flat + sin(delta) turned + up
        parts = np.array([[vx, vy, zero], [-vy, vx, zero], [zero, zero, vz]])
        # the mean emitter positions, then the two jitter axes scaled by sigma
        points = np.vstack([pos, sigma * basis])
        with np.errstate(over="ignore", invalid="ignore"):
            table = (2.0 * np.pi / wavelength) * (points @ parts)
        # NaN fails this too
        if not np.abs(table).max() <= _PHASE_TABLE_BOUND:
            raise ConfigError("the geometry's phases overflow: its lengths are too "
                              "large against its wavelength")
        _store(self, wavelength=wavelength, window_halfangle=window, transverse_sigma=sigma,
               emitter_positions=pos, detector_directions=dirs,
               transverse_basis=basis, phase_table=table)

    @property
    def n(self) -> int:
        return self.emitter_positions.shape[0]

    @classmethod
    def linear_chain(cls, n: int, spacing: float = _CHAIN_SPACING,
                     transverse_sigma: float = _CHAIN_SIGMA,
                     wavelength: float = _CHAIN_WAVELENGTH,
                     window_halfangle: float = _CHAIN_WINDOW,
                     ) -> "DetectionGeometry":
        """Equally spaced emitters on the x axis, detectors on a transverse ring.

        Detector ``i`` looks along ``(0, cos a_i, sin a_i)`` with the ring
        angles ``a_i = 2 pi i / n`` in the plane orthogonal to the chain.
        Defaults follow a typical trapped-ion setting: 5 um spacing, 5 nm
        transverse confinement, 493 nm light, a 0.5° halfangle (a 1° window).
        An ``n`` that is not an integer >= 1 is ``ConfigError``.
        """
        return _chain(_system_size(n), {
            "spacing": spacing, "transverse_sigma": transverse_sigma,
            "wavelength": wavelength, "window_halfangle": window_halfangle})


def _chain(n: int, fields: dict) -> DetectionGeometry:
    """The default chain of ``n`` emitters, built once with ``fields`` in place of its defaults.

    A key not in ``_CHAIN_KEYS`` is ``ConfigError``.  The chain's positions
    and ring of directions, from the spacing, stand in for either array
    ``fields`` leaves out; the ring divided by its own norms is the
    constructor's normalization bit for bit, so the constructor keeps it.
    """
    unknown = fields.keys() - _CHAIN_KEYS
    if unknown:
        raise ConfigError(f"unknown geometry keys: {sorted(unknown)}")
    spacing = _number(fields.get("spacing", _CHAIN_SPACING), "spacing")
    xs = (np.arange(n) - (n - 1) / 2.0) * spacing
    positions = np.column_stack([xs, np.zeros(n), np.zeros(n)])
    ring = 2.0 * np.pi * np.arange(n) / n
    directions = np.column_stack([np.zeros(n), np.cos(ring), np.sin(ring)])
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    return DetectionGeometry(
        fields.get("emitter_positions", positions), fields.get("transverse_sigma", _CHAIN_SIGMA),
        fields.get("wavelength", _CHAIN_WAVELENGTH),
        fields.get("detector_directions", directions),
        fields.get("window_halfangle", _CHAIN_WINDOW))


def _at_window(geometry: DetectionGeometry, window_halfangle) -> DetectionGeometry:
    """``geometry`` at another window, checked as on construction, sharing every other field."""
    window = _number(window_halfangle, "window_halfangle", minimum=0)
    return _built(DetectionGeometry, **{**vars(geometry), "window_halfangle": window})


@dataclass(frozen=True, slots=True)
class FidelityEstimate:
    """Monte-Carlo mean with its standard error (sample std / sqrt(count)).

    Slotted: sweeps and pooled checks keep many of these records.
    """

    mean_fidelity: float
    standard_error: float
    sample_count: int
    excluded_count: int = 0


def _cross(a, b) -> list[float]:
    """``np.cross`` of two 3-vectors of floats, with numpy's operations in numpy's order."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _transverse_basis(positions: np.ndarray) -> np.ndarray:
    """Two unit vectors spanning the plane orthogonal to the emitter line.

    The line is x if no centered coordinate exceeds ``1e-8`` of the largest: no unit of length.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centered = positions - positions.mean(axis=0)
    if not np.isfinite(centered).all():  # LAPACK's SVD can hang on an infinite entry
        raise ConfigError("emitter positions are too far apart to average")
    if not np.abs(centered).max() > 1e-8 * np.abs(positions).max():
        axis = [1.0, 0.0, 0.0]
    else:
        _, _, vt = np.linalg.svd(centered)
        axis = vt[0].tolist()
    # the seed's dot product with the axis is the axis's z part
    seed = [0.0, 1.0, 0.0] if abs(axis[2]) > 0.9 else [0.0, 0.0, 1.0]
    t1 = np.array(_cross(axis, seed))
    t1 /= np.linalg.norm(t1)
    return np.array([t1, _cross(axis, t1.tolist())])


def estimate_fidelity(config, geometry: DetectionGeometry,
                      target: SymmetricState | None = None,
                      samples: int = 1000, seed: int = 0) -> FidelityEstimate:
    """Mean fidelity of the sampled cascade output against a symmetric target.

    ``SeedSequence(seed).spawn(2)`` gives two streams, each read in sample
    order: one of the ``2n`` emitter displacements, one of the per-detector
    window deviates that the halfangle scales.  So sweeps over the window
    with a shared seed are paired sample by sample, whatever the chunking.
    The position-dependent detections are then applied in the full qubit
    space and the squared overlap taken with the ideal (zero window, zero
    jitter) output of ``config``, whose bra and polarizer components are
    built once per configuration and kept read-only for later calls with an
    equal one, so repeated calls (a sweep, a rerun) pay only for the samples.

    ``target`` defaults to that ideal output.  A sample's phases ``E_s[i, j]``
    (detector ``i``, emitter ``j``) break permutation symmetry, but every
    target is symmetric, so ``<t|psi_s> = <t|psi_0> perm(E_s) / n!``: another
    target scales the mean and standard error by the one ratio
    ``fidelity(target, ideal) / fidelity(ideal, ideal)``, exactly 1 for the
    ideal, and leaves the counts, set by the norms, as they are.  Samples
    whose register norm falls below ``ANNIHILATION_TOL`` are excluded as
    annihilated and counted separately.

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
    samples = _integer(samples, "samples", 1)
    seed = _integer(seed, "seed", 0)
    components, bra, ideal = _config_arrays(config)
    scale = 1.0  # a sample's overlap with any target is the ideal's times one ratio
    if target is not None:
        if target.n != n:
            raise DimensionMismatchError(
                f"target has {target.n} qubits, configuration has {n}")
        scale = fidelity(target, ideal) / fidelity(ideal, ideal)

    normal_rng, window_rng = _seeded_streams(seed)
    # level m holds C(n, m) 2**m entries per sample, and each level up to
    # the larger half's last is wider than the one before
    m = n - n // 2
    chunk = max(1, _CHUNK_ENTRIES // (comb(n, m) << m))
    # running count, mean and sum of squared deviations, merged chunk by
    # chunk (Chan et al.); unlike a running sum of squares this does not
    # cancel when every fidelity is (nearly) the same
    kept, mean, m2 = 0, 0.0, 0.0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        work = _workspace(n, count)
        normals = normal_rng.standard_normal(out=work.normals)
        deviates = window_rng.random(out=work.deviates)
        deviates += deviates  # uniform(-1.0, 1.0)'s -1 + 2 u, bit for bit
        deviates -= 1.0
        values, norms = _chunk_terms(components, bra, geometry, normals, deviates)
        if values.size == 0:
            continue
        values /= norms
        count = kept + values.size
        chunk_mean = float(values.sum()) / values.size
        delta = chunk_mean - mean
        mean += delta * values.size / count
        values -= chunk_mean
        values *= values
        m2 += float(values.sum()) + delta * delta * kept * values.size / count
        kept = count
        del values, norms  # before the next chunk's are allocated

    if kept == 0:
        raise ZeroStateError("every sample was annihilated")
    stderr = sqrt(m2 / (kept - 1)) / sqrt(kept) if kept > 1 else 0.0
    return FidelityEstimate(mean * scale, stderr * scale, kept, samples - kept)


def _chunk_terms(components: np.ndarray, bra: np.ndarray, geometry: DetectionGeometry,
                 normals: np.ndarray, deviates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each unannihilated sample's ``|<ideal|psi_s>|**2`` and ``||psi_s||**2``, in chunk order."""
    psi = _cascade_outputs(components, _sample_phases(geometry, normals, deviates))
    flat = psi.view(float)
    norms = np.einsum("sx,sx->s", flat, flat)  # squared
    if norms.min() < ANNIHILATION_TOL ** 2:
        alive = norms >= ANNIHILATION_TOL ** 2
        psi, norms = psi[alive], norms[alive]
    overlap = psi @ bra
    return overlap.real ** 2 + overlap.imag ** 2, norms


def _seeded_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """``default_rng`` of each child of ``SeedSequence(seed).spawn(2)``, bit for bit.

    Child ``i`` mixes the seed's 32-bit words, zero-padded to the pool size 4,
    then ``i``; as one ``uint32`` array they skip the coercion of an int and a key.
    """
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 128), 32)]
    return tuple(np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        np.array(words + [i], dtype=np.uint32)))) for i in range(2))


# 16 configurations: a sweep reuses one and a batch of mixed runs a few; an
# entry holds 2n + 2**n complexes, 4.4 KB at n = 8 and 64 KB at n = 12
@lru_cache(maxsize=16)
def _config_arrays(config: PolarizerConfig) -> tuple[np.ndarray, np.ndarray, SymmetricState]:
    """The read-only polarizer components ``(n, 2)`` and ideal bra, and the ideal output.

    The ideal output is ``dicke_coefficients(config)``.  Equal configurations
    share an entry, even where a component differs only in the sign of a zero.
    """
    ideal = dicke_coefficients(config)
    bra = ideal.to_qubit_amplitudes().conj()
    components = np.array([[p.alpha, p.beta] for p in config])
    for a in (components, bra):
        a.setflags(write=False)
    return components, bra, ideal


@lru_cache(maxsize=None)
def _level_tables(n: int) -> tuple[tuple[slice, tuple], tuple[slice, tuple]]:
    """The two half cascades of :func:`_cascade_outputs`, ready to run.

    Once emitters ``0..m-1`` of a half have each given their photon to a
    different detector, a partial sum is indexed by the set of ``m``
    detectors used and by those emitters' labels.  Level ``m`` is an array
    ``(2**m, C(n, m), count)``: bit ``p`` of the first index is 1 when
    emitter ``p`` sits in ``-`` (else ``+``), the second runs over the sets
    of ``m`` detectors, and samples come last.

    Returns ``(first, steps)`` for the larger half, then the smaller, which
    lists the sets in ``combinations(range(n), m)`` order; the larger half
    lists every level from 2 (or its only one) in reverse, so that the join
    pairs row ``r`` with row ``r``.  Level 1 is a half's first emitter's
    weights, its detectors sliced by ``first``, reversed only for a
    one-emitter half: ``take`` copies a reversed view, a temporary that cost
    the n = 8 kernel 173 page faults a call.  Entry ``m - 2`` of ``steps``
    leads to level ``m`` and is ``(src, detector)``: for each set and
    position ``p``, ``detector[p]`` is the set's ``p``-th smallest detector
    and ``src[p]`` the level-``m - 1`` row of the set without it.
    """
    halves = []
    for order, size in ((-1, n - n // 2), (1, n // 2)):
        steps = []
        first = slice(None, None, order if size == 1 else 1)
        row_of = {(i,): row for row, i in enumerate(range(n)[first])}  # set -> its row
        for m in range(2, size + 1):
            sets = list(combinations(range(n), m))[::order]
            detector = np.array(sets, dtype=np.intp).T
            src = np.array([[row_of[s[:p] + s[p + 1:]] for s in sets] for p in range(m)],
                           dtype=np.intp)
            row_of = {s: row for row, s in enumerate(sets)}
            src.flags.writeable = detector.flags.writeable = False
            steps.append((src, detector))
        halves.append((first, tuple(steps)))
    return tuple(halves)


def _sample_phases(geometry: DetectionGeometry, normals: np.ndarray,
                   deviates: np.ndarray) -> np.ndarray:
    """Far-field phases of ``count`` samples, shape ``(count, n, n)``.

    Row ``s`` of ``normals`` ``(count, 2n)`` and ``deviates`` ``(count, n)``
    holds sample ``s``'s unit emitter displacements along the two transverse
    axes and its window deviates in ``[-1, 1)``.  ``phases[s, j, i]`` is
    ``k r_j . nhat_i``: emitter ``j``'s displaced position along detector
    ``i``'s direction, rotated about z by the deviate times the halfangle.
    Only the rotation and the displacement depend on the sample; the rest
    is ``geometry.phase_table``, built once with the geometry.  The rotation
    enters as one batched product of the table with ``(cos, sin, 1)`` of
    each detector's angle, the displacement as two multiply-adds.  The result
    is a view of an ``(n, n, count)`` array, samples last, which is the
    layout :func:`_cascade_outputs` works in; the array is this thread's
    workspace (:func:`_workspace`), which its next chunk overwrites.
    """
    n = geometry.n
    work = _workspace(n, len(deviates))
    # trig[:, i, s]: cos and sin of sample s's rotation of detector i, and 1
    trig = work.trig
    trig[2] = 1.0
    np.copyto(trig[1], deviates.T)
    trig[1] *= geometry.window_halfangle
    np.cos(trig[1], out=trig[0])
    np.sin(trig[1], out=trig[1])
    # along[e, i, s]: k times point e along sample s's rotated direction i,
    # the table's three parts weighted by trig[:, i] in one product per detector
    along = work.along
    np.matmul(geometry.phase_table.T, trig.transpose(1, 0, 2), out=along.transpose(1, 0, 2))
    # numpy buffers a product with a broadcast operand in new arrays, so the
    # displacement's factors are spelled out in full: jitter[a, j, i, s] is
    # sample s's normal of emitter j along axis a, for every detector i
    jitter, phases, shift = work.jitter, work.phases, work.shift
    np.copyto(jitter, normals.T.reshape(2, n, 1, -1))
    np.copyto(phases, along[n])
    phases *= jitter[0]
    phases += along[:n]
    np.copyto(shift, along[n + 1])
    shift *= jitter[1]
    phases += shift
    return phases.transpose(2, 0, 1)


def _half_cascade(steps) -> None:
    """Run the cascade of one half's emitters, as :class:`_Workspace` planned it.

    Each step hands the next emitter's photon to each detector not yet used,
    and its label becomes the new top bit of the first index.  It gathers
    that emitter's terms ``w[b, i, s]`` (label ``b``, detector ``i``, sample
    ``s``) for each row's detectors and the source level's rows for every
    position ``p``; then one ``np.einsum`` sums their products over ``p``
    straight into the level being built, over all labels, rows and samples.
    """
    for w, detector, terms, flat_terms, level, src, gathered, flat, out in steps:
        # terms[b, p, r, s]: w's term for row r's p-th smallest detector
        w.take(detector, axis=1, out=terms, mode="clip")
        level.take(src, axis=1, out=gathered, mode="clip")
        np.einsum("bpr,lpr->blr", flat_terms, flat, out=out)


def _cascade_outputs(components: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Unnormalized cascade outputs of ``count`` samples, shape ``(count, 2**n)``.

    ``components[i]`` holds detector ``i``'s polarizer ``(alpha, beta)`` and
    ``phases`` is :func:`_sample_phases`'s ``(count, n, n)``.  Columns are
    qubit indices (bit ``j`` set = emitter ``j`` in ``-``).

    Emitters ``0..h-1`` and ``h..n-1`` (``h = n // 2``) run their own half
    cascades over all ``n`` detectors.  The halves are joined by one matrix
    product per sample: each set of ``h`` detectors the low half used meets
    the high half's row of the other ``n - h``, which :func:`_level_tables`
    lists in the row of the same number.  The join sums the same ``n!``
    products per amplitude as a single cascade, and subtracts nothing.  Every
    step writes into this thread's workspace for the chunk's shape
    (:func:`_workspace`), and the outputs are a new array.
    """
    count, n, _ = phases.shape
    work = _workspace(n, count)
    # weights[j, b, i, s]: detector i's term for emitter j's photon in label b,
    # the phase factor times components[i, b]; cos and sin of a real array
    # cost a fraction of a complex exp.  numpy buffers a product with a
    # broadcast operand in new arrays, so both factors are spelled out in full
    phases = phases.transpose(1, 2, 0)
    np.cos(phases, out=work.unit.real)
    np.sin(phases, out=work.unit.imag)
    np.copyto(work.weights, work.unit[:, None])
    np.copyto(work.polarizers, components.T[:, :, None])
    np.multiply(work.weights, work.polarizers, out=work.weights)
    (high_steps, high), (low_steps, low) = work.halves
    _half_cascade(high_steps)
    _half_cascade(low_steps)
    # (count, 2**(n - h), C(n, h)) @ (count, C(n, h), 2**h): the high half's
    # labels are the top bits
    joined = high.transpose(2, 0, 1) @ low.transpose(2, 1, 0)
    return joined.reshape(count, -1)


class _Workspace:
    """The working arrays of one chunk shape ``(n, count)``, each with the views that use it.

    Every array is a view of this thread's buffer of its name (:func:`_array`).
    :func:`estimate_fidelity` draws the chunk into ``normals`` and
    ``deviates``; :func:`_sample_phases` writes ``trig``, ``along``,
    ``jitter``, ``shift`` and the ``phases`` it returns;
    :func:`_cascade_outputs` writes ``unit``, ``weights`` and ``polarizers``,
    then runs each half's steps in ``halves``, planned here from
    :func:`_level_tables`: each half fills its two level buffers in turn, and
    both share one buffer of terms and one of gathered rows, sized for the
    widest step.  ``halves`` holds each half's steps and the view of its last
    level; a step is ``(w, detector, terms, flat terms, level, src, gathered,
    flat gathered, out)``, the arguments of :func:`_half_cascade`'s ``take``
    and ``einsum`` calls.
    """

    __slots__ = ("normals", "deviates", "trig", "along", "jitter", "phases", "shift",
                 "unit", "weights", "polarizers", "halves")

    def __init__(self, n: int, count: int) -> None:
        self.normals = _array("normals", (count, 2 * n))
        self.deviates = _array("deviates", (count, n))
        self.trig = _array("trig", (3, n, count))
        self.along = _array("along", (n + 2, n, count))
        self.jitter = _array("jitter", (2, n, n, count))
        self.phases = _array("phases", (n, n, count))
        self.shift = _array("shift", (n, n, count))
        self.unit = _array("unit", (n, n, count), complex)
        self.weights = _array("weights", (n, 2, n, count), complex)
        self.polarizers = _array("polarizers", (n, 2, n, count), complex)
        tables = _level_tables(n)
        # step k reads level k + 1, of 2**(k + 1) labels, and builds level k + 2
        terms_buffer = _array("terms", (count * max(
            (2 * src.size for _, steps in tables for src, _ in steps), default=0),), complex)
        gathered_buffer = _array("gathered", (count * max(
            (src.size << k + 1 for _, steps in tables for k, (src, _) in enumerate(steps)),
            default=0),), complex)
        h = n // 2
        halves = []
        for half, weights, (first, steps) in zip(("high", "low"),
                                                 (self.weights[h:], self.weights[:h]), tables):
            # step k builds level k + 2 into buffer k % 2
            sizes = [count * src.shape[1] << k + 2 for k, (src, _) in enumerate(steps)]
            buffers = [_array(f"{half} levels {parity}", (max(sizes[parity::2], default=0),),
                              complex) for parity in (0, 1)]
            level = (weights[0][:, first] if len(weights)
                     else np.broadcast_to(np.ones(1, complex), (1, 1, count)))
            planned = []
            for k, (w, (src, detector)) in enumerate(zip(weights[1:], steps)):
                width, rows = src.shape
                labels = len(level)
                terms = _prefix(terms_buffer, 2, width, rows, count)
                gathered = _prefix(gathered_buffer, labels, width, rows, count)
                out = _prefix(buffers[k % 2], 2, labels, rows * count)
                planned.append((w, detector, terms, terms.reshape(2, width, -1), level, src,
                                gathered, gathered.reshape(labels, width, -1), out))
                level = out.reshape(-1, rows, count)
            halves.append((tuple(planned), level))
        self.halves = tuple(halves)


def _prefix(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The first entries of a flat ``buffer``, as a C-contiguous array of ``shape``."""
    return buffer[:prod(shape)].reshape(shape)


class _Workspaces(threading.local):
    """This thread's flat buffers by name, and its workspaces by chunk shape.

    The workspaces are kept least recently used first, and all view the
    same buffers, so a thread holds each buffer once, at the largest size any
    shape has asked of it.
    """

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}
        self.shapes: dict[tuple[int, int], _Workspace] = {}


_workspaces = _Workspaces()


def _array(name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A C-contiguous ``shape`` view of this thread's buffer ``name``.

    A buffer too small for ``shape`` is replaced by one just large enough,
    and every kept workspace is dropped with the views of the old one.
    """
    buffer = _workspaces.buffers.get(name)
    if buffer is None or len(buffer) < prod(shape):
        buffer = _workspaces.buffers[name] = np.empty(prod(shape), dtype)
        _workspaces.shapes.clear()
    return _prefix(buffer, *shape)


def _workspace(n: int, count: int) -> _Workspace:
    """This thread's workspace for chunks of ``count`` samples of ``n`` emitters.

    The last ``_WORKSPACES`` shapes used are kept; a new one evicts the least
    recently used.
    """
    shapes = _workspaces.shapes
    work = shapes.pop((n, count), None)
    if work is None:
        work = _Workspace(n, count)
        if len(shapes) >= _WORKSPACES:
            del shapes[next(iter(shapes))]
    shapes[n, count] = work
    return work
