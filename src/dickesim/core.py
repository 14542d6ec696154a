"""Foundational types and the brute-force detection oracle.

Every other module is validated against the operations defined here, so the
representation conventions are fixed once and for all:

* An emitter is a three-level system: ``e`` (excited) decaying to the ground
  sublevels ``+`` and ``-``.  A register of ``n`` emitters is a dense complex
  vector of length ``3**n``.
* Register indexing is base-3 and little-endian: emitter ``j`` occupies digit
  ``j`` of the index (``index // 3**j % 3``) with level encoding
  ``e=0, +=1, -=2``.  The fully excited register ``|e,...,e>`` is index 0.
  Read as a ``(3,)*n`` tensor, the register has emitter ``j`` on axis
  ``n-1-j``; its block ``[1:, ..., 1:]`` (no emitter in ``e``) flattens in
  ascending register order, which is the qubit order of
  :meth:`SymmetricState.to_qubit_amplitudes`.
* A detection event is non-unitary and shrinks the register norm; nothing is
  renormalized until a full cascade has been applied.
* Symmetric ``n``-qubit states are stored as coefficients ``d_0 .. d_n`` over
  the basis of equal-weight superpositions with ``k`` emitters in ``-``
  (``k``-excitation symmetric basis states).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import comb, frexp, hypot, isfinite, ldexp, pi, sqrt
from typing import Iterable

import numpy as np

from .errors import (
    AsymmetricResidueError,
    ConfigError,
    DimensionMismatchError,
    ResidualExcitationError,
    TooLargeError,
    ZeroStateError,
)

#: Tolerance for projective equality of polarizer orientations.  Far below any
#: physically meaningful angle, above accumulated rounding of the closed-form
#: pipeline.
ORIENT_TOL = 1e-9

#: Normalization tolerance for constructed states and polarizers.
NORM_TOL = 1e-12

#: Amplitude allowed outside the projected subspace before erroring.
RESIDUAL_TOL = 1e-10

#: Largest system for the dense register and the pyramid, which build all
#: ``3**n`` kets, and for the window Monte Carlo, whose widest array per
#: sample is the half level (59,136 entries at n = 12).
REGISTER_SIZE_LIMIT = 12


def _integer(value, what: str, minimum: int) -> int:
    """``value`` as an ``int``, which cannot wrap, if an integer >= ``minimum``; else ``ConfigError``."""
    if type(value) is not int and not isinstance(value, np.integer):  # type(True) is bool
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if int(value) < minimum:  # not formatted: str() of a huge int raises ValueError
        raise ConfigError(f"{what} must be >= {minimum}")
    return int(value)


#: What ``float()`` and numpy would convert, but is not a number.
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def _number(value, what: str, dtype=float, minimum=None):
    """``value`` as a finite ``dtype`` (float or complex), else ``ConfigError``.

    Booleans and strings are not numbers, though ``float()`` and ``complex()`` take them.
    A real ``value`` below ``minimum``, if one is given, is ``ConfigError`` too.
    """
    if isinstance(value, _NOT_NUMBERS):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        x = dtype(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number: {exc}") from None
    if not cmath.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {x}")
    if minimum is not None and x < minimum:
        raise ConfigError(f"{what} must be >= {minimum}")
    return x


def _numbers(values, dtype, what: str) -> np.ndarray:
    """``values`` as an array of ``dtype`` (``complex`` or ``float``), else ``ConfigError``.

    Every entry must be a finite number.  Booleans, strings and bytes are
    not numbers, whether they set an ndarray's dtype or sit inside a list or
    an object array, and a complex entry is no real one.  A list is read as
    an object array, so that each entry is judged rather than the dtype
    numpy would promote it to.  An ndarray of ``dtype`` is returned as is.
    """
    try:
        raw = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    except ValueError as exc:  # nested arrays of different shapes
        raise ConfigError(f"{what} must be numbers: {exc}") from None
    kind = raw.dtype.kind
    if kind == "O":  # a list or an object array: the kind of its worst entry
        entries = raw.ravel().tolist()
        if any(isinstance(x, _NOT_NUMBERS) for x in entries):
            kind = "U"
        elif any(isinstance(x, (complex, np.complexfloating)) for x in entries):
            kind = "c"
    if kind in "bSU":
        raise ConfigError(f"{what} must be numbers, not booleans or strings")
    if kind == "c" and dtype is float:
        raise ConfigError(f"{what} must be real numbers")
    try:
        array = np.asarray(raw, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be numbers: {exc}") from None
    if not np.isfinite(array).all():  # numpy turns None into NaN
        raise ConfigError(f"{what} must be finite")
    return array


#: Largest system size whose ``sqrt(C(n, k))`` is finite (see :func:`_sqrt_binomials`).
_SIZE_LIMIT = 2053


def _system_size(n) -> int:
    """``n`` as an ``int`` in ``1.._SIZE_LIMIT``: ``ConfigError`` below, ``TooLargeError`` above."""
    n = _integer(n, "system size", 1)
    if n > _SIZE_LIMIT:
        raise TooLargeError(f"system size limited to n <= {_SIZE_LIMIT}")
    return n


def _sequence(values, what: str) -> tuple:
    """``tuple(values)``, or ``ConfigError`` if ``values`` is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise ConfigError(f"{what} must be a sequence, got {type(values).__name__}") from None


def _store(obj, **fields):
    """Frozen ``obj`` holding ``fields`` as given, arrays made read-only, not copied."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(fields)  # what frozen __setattr__ forbids
    return obj


def _built(cls, **fields):
    """A new ``cls`` holding ``fields`` through :func:`_store`, skipping ``__post_init__``.

    So only for fields whose invariants hold by construction; each call site says why.
    """
    return _store(object.__new__(cls), **fields)


def _check_register_size(n: int, what: str) -> None:
    """``TooLargeError`` when ``what`` is asked for ``n > REGISTER_SIZE_LIMIT`` emitters."""
    if n > REGISTER_SIZE_LIMIT:
        raise TooLargeError(f"{what} limited to n <= {REGISTER_SIZE_LIMIT}, got {n}")


# ---------------------------------------------------------------------------
# polarizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polarizer:
    """Normalized complex polarization vector ``alpha*s+ + beta*s-``.

    ``alpha`` and ``beta`` are the amplitudes on the two circular components.
    Construction rescales to unit norm; the all-zero vector and a
    non-numeric or non-finite component are ``ConfigError``.  The
    physically meaningful content is projective: ``alpha/beta`` is the
    orientation (see :func:`same_orientation`).
    """

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        a = _number(self.alpha, "polarizer alpha", complex)
        b = _number(self.beta, "polarizer beta", complex)
        nrm = hypot(abs(a), abs(b))
        if nrm == 0.0:
            raise ConfigError("polarizer components are both zero")
        _store(self, alpha=a / nrm, beta=b / nrm)

    @staticmethod
    def linear(theta: float) -> "Polarizer":
        """Linear polarizer ``(e^{-i t}, e^{i t}) / sqrt(2)`` at ``t = theta mod pi``.

        Orientation is invariant under ``theta -> theta + pi`` (the reduction
        only changes a global phase).  A non-numeric or non-finite angle is
        ``ConfigError``.
        """
        t = _number(theta, "angle") % pi
        if t == pi:  # tiny negative inputs can wrap onto pi itself
            t = 0.0
        return Polarizer(np.exp(-1j * t) / np.sqrt(2.0), np.exp(1j * t) / np.sqrt(2.0))


def same_orientation(p: Polarizer, q: Polarizer) -> bool:
    """Projective equality test: ``|p.alpha*q.beta - q.alpha*p.beta|`` small.

    The cross term vanishes exactly when the two polarization vectors differ
    only by a global phase, which is the physically relevant equivalence.
    Arguments that are not :class:`Polarizer` are ``ConfigError``.
    """
    if not (isinstance(p, Polarizer) and isinstance(q, Polarizer)):
        raise ConfigError(f"same_orientation takes two Polarizers, got "
                          f"{type(p).__name__} and {type(q).__name__}")
    return abs(p.alpha * q.beta - q.alpha * p.beta) <= ORIENT_TOL


# ---------------------------------------------------------------------------
# symmetric states
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymmetricState:
    """Normalized coefficients ``d_0 .. d_n`` over the symmetric basis.

    Global phase is left untouched by construction; call
    :meth:`canonicalized` explicitly to rotate the first nonzero coefficient
    onto the positive real axis.  A system size that is not an integer >= 1,
    and coefficients that are not numbers or not normalized (non-finite ones
    included), are ``ConfigError``.  ``coeffs`` is a read-only copy of the
    caller's array; an array the library built itself is checked once and
    kept read-only without a copy.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        n = _system_size(self.n)
        c = _numbers(self.coeffs, complex, "coefficients")
        if c.shape != (n + 1,):
            raise ConfigError(f"expected {n + 1} coefficients, got shape {c.shape}")
        # written so that a NaN norm fails it
        if not abs(np.linalg.norm(c) - 1.0) <= NORM_TOL:
            raise ConfigError("coefficients are not normalized; use from_raw()")
        _store(self, n=n, coeffs=c.copy())  # the caller's array may change later; this may not

    @classmethod
    def from_raw(cls, n: int, raw: Iterable[complex]) -> "SymmetricState":
        """Normalize raw coefficients.

        Raises ``ConfigError`` for a non-numeric or non-finite coefficient
        and ``ZeroStateError`` if all vanish.
        """
        if not isinstance(raw, np.ndarray):
            raw = _sequence(raw, "coefficients")
        c = _unit_vector(_numbers(raw, complex, "coefficients"))
        n = _system_size(n)
        if c.shape != (n + 1,):
            raise ConfigError(f"expected {n + 1} coefficients, got shape {c.shape}")
        # _unit_vector returns a new, finite array of unit norm
        return _built(cls, n=n, coeffs=c)

    def canonicalized(self) -> "SymmetricState":
        """Copy with the first coefficient above ``NORM_TOL`` made real and positive."""
        # never empty: a unit norm puts some |c_k| at 1/sqrt(n + 1) >= 0.022, far above NORM_TOL
        phase = next(c / abs(c) for c in self.coeffs if abs(c) > NORM_TOL)
        # a unit phase keeps the size, the shape, finiteness and the norm;
        # the product is a new array
        return _built(SymmetricState, n=self.n, coeffs=self.coeffs * np.conj(phase))

    def to_qubit_amplitudes(self) -> np.ndarray:
        """Expand into the full ``2**n`` qubit register.

        Bit ``j`` of the index is 1 when emitter ``j`` sits in ``-``;
        every ket with ``k`` set bits receives ``d_k / sqrt(C(n, k))``.
        Above ``REGISTER_SIZE_LIMIT`` qubits this is ``TooLargeError``.
        """
        _check_register_size(self.n, "qubit expansion")
        weights = self.coeffs / _sqrt_binomials(self.n)
        return weights[_bit_counts(self.n)]


def _unit_vector(v: np.ndarray) -> np.ndarray:
    """``v`` rescaled to unit Euclidean norm, whatever its magnitude.

    ``v`` is first scaled by a power of two that brings its largest entry
    near 1, so the norm neither overflows nor underflows; the scaling is
    exact, so at ordinary magnitudes the result is bit-identical to
    ``v * (1 / norm(v))``.  Raises ``ConfigError`` for a non-finite entry (or
    one whose modulus overflows) and ``ZeroStateError`` for the zero vector.
    """
    peak = float(np.abs(v).max(initial=0.0))
    if not isfinite(peak):  # a NaN or infinite entry propagates through the max
        raise ConfigError("state coefficients must be finite")
    if peak == 0.0:
        raise ZeroStateError("state vector vanishes")
    # clamped: for a subnormal peak the scale 2**-e itself would overflow
    v = v * 2.0 ** -max(frexp(peak)[1], -1022)
    return v * (1.0 / np.linalg.norm(v))


def fidelity(a: SymmetricState, b: SymmetricState) -> float:
    """Squared overlap ``|<a|b>|**2``; invariant under global phases.

    Arguments that are not :class:`SymmetricState` are ``ConfigError``.
    """
    if not (isinstance(a, SymmetricState) and isinstance(b, SymmetricState)):
        raise ConfigError(f"fidelity takes two SymmetricStates, got "
                          f"{type(a).__name__} and {type(b).__name__}")
    if a.n != b.n:
        raise DimensionMismatchError(f"system sizes differ: {a.n} != {b.n}")
    return float(abs(np.vdot(a.coeffs, b.coeffs)) ** 2)


# ---------------------------------------------------------------------------
# emitter register and detection
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sqrt_binomials(n: int) -> np.ndarray:
    """``sqrt(C(n, k))`` for ``k = 0..n`` as floats.

    A binomial is rounded to float before the root: from n = 68 on they
    exceed int64, and numpy would otherwise fall back to an object array.
    From n = 1030 on, binomials above ``2**1023`` are shifted right by
    ``2 s`` bits first and the root scaled back by ``2**s``; smaller ones
    keep their plain float root.  From n = 2054 on the largest root leaves
    the float range, and ``TooLargeError`` is raised.
    """
    def root(c: int) -> float:
        s = max(0, c.bit_length() - 1022) // 2
        return ldexp(sqrt(c >> 2 * s), s)

    try:
        roots = np.array([root(comb(n, k)) for k in range(n + 1)])
    except OverflowError:
        raise TooLargeError(f"sqrt(C({n}, k)) exceeds the float range") from None
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=None)
def _bit_counts(n: int) -> np.ndarray:
    counts = np.array([bin(i).count("1") for i in range(2 ** n)])
    counts.setflags(write=False)
    return counts


def _register_length(n) -> int:
    """``3**n`` for a valid register size, checked before anything is allocated."""
    n = _system_size(n)
    _check_register_size(n, "emitter register")
    return 3 ** n


@dataclass(frozen=True, eq=False)
class EmitterRegister:
    """Full ``3**n`` state vector of ``n`` three-level emitters.

    A size that is not an integer >= 1, or amplitudes that are not ``3**n``
    numbers, are ``ConfigError``; a size above ``REGISTER_SIZE_LIMIT`` is
    ``TooLargeError``.  ``amps`` is a read-only copy of the caller's array;
    an array the library built itself is checked once and kept read-only
    without a copy.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        length = _register_length(self.n)
        a = _numbers(self.amps, complex, "amplitudes")
        if a.shape != (length,):
            raise ConfigError(f"expected {length} amplitudes, got shape {a.shape}")
        _store(self, n=int(self.n), amps=a.copy())  # the caller's array may change; this may not

    @classmethod
    def ground(cls, n: int) -> "EmitterRegister":
        """The fully excited initial register ``|e,...,e>``."""
        amps = np.zeros(_register_length(n), dtype=complex)
        amps[0] = 1.0
        # a new array of 3**n finite amplitudes for a checked size
        return _built(cls, n=int(n), amps=amps)


def _detection_kernel(amps: np.ndarray, n: int,
                      alpha_weights: np.ndarray,
                      beta_weights: np.ndarray) -> np.ndarray:
    """Apply one detection with per-emitter weighted components.

    Emitter ``j``'s term ``alpha_j |+><e| + beta_j |-><e|`` moves amplitude
    from level 0 to levels 1 and 2 of its axis ``n-1-j`` of the register
    read as a ``(3,)*n`` tensor.  Shared by the plain detection operator
    (uniform weights) and the dense per-sample reference of the window Monte
    Carlo in the test suite (far-field phase factors).
    """
    tensor = amps.reshape((3,) * n)
    out = np.zeros_like(tensor)
    for j in range(n):
        above = (slice(None),) * (n - 1 - j)  # the axes of emitters above j
        # views, even at n = 1: numpy scalars would round differently
        excited = tensor[above + (0, ...)]
        plus, minus = out[above + (1, ...)], out[above + (2, ...)]
        plus += alpha_weights[j] * excited
        minus += beta_weights[j] * excited
    return out.reshape(-1)


def apply_detection(register: EmitterRegister, polarizer: Polarizer) -> EmitterRegister:
    """Apply the detection operator for one polarized photodetection.

    The operator is ``alpha * sum_j |+>_j<e|  +  beta * sum_j |->_j<e|``:
    each emitter's excited amplitude branches coherently into ``+`` and
    ``-`` weighted by the polarizer components.  The constant prefactor of
    a physical detection is dropped; the result is unnormalized.

    Raises
    ------
    ConfigError
        If the arguments are not an ``EmitterRegister`` and a ``Polarizer``.
    ZeroStateError
        If the resulting register is the zero vector (no excited amplitude
        was available, or everything cancelled).
    """
    if not (isinstance(register, EmitterRegister) and isinstance(polarizer, Polarizer)):
        raise ConfigError(f"apply_detection takes an EmitterRegister and a Polarizer, got "
                          f"{type(register).__name__} and {type(polarizer).__name__}")
    n = register.n
    out = _detection_kernel(
        register.amps, n,
        np.full(n, polarizer.alpha, dtype=complex),
        np.full(n, polarizer.beta, dtype=complex),
    )
    if not out.any():
        raise ZeroStateError("detection produced the zero vector")
    if not np.isfinite(out).all():  # two finite branches can add up to an overflow
        raise ConfigError("amplitudes must be finite")
    # the kernel's new array has the register's size and shape
    return _built(EmitterRegister, n=n, amps=out)


def project_symmetric(register: EmitterRegister) -> SymmetricState:
    """Project a fully de-excited register onto the symmetric subspace.

    Returns the normalized symmetric state with coefficients
    ``d_k = (sum of amplitudes over kets with k minuses) / sqrt(C(n, k))``.

    Raises
    ------
    ConfigError
        If ``register`` is not an :class:`EmitterRegister`.
    ResidualExcitationError
        If any ket containing ``e`` carries amplitude above ``RESIDUAL_TOL``.
    AsymmetricResidueError
        If the projection would lose more than ``RESIDUAL_TOL`` of the
        squared norm (the register has an antisymmetric component).
    ZeroStateError
        If the register is the zero vector.
    """
    if not isinstance(register, EmitterRegister):
        raise ConfigError(f"register must be an EmitterRegister, got {type(register).__name__}")
    n = register.n
    amps = register.amps
    tensor = amps.reshape((3,) * n)
    de_excited = (slice(1, None),) * n  # the kets with no emitter in e
    magnitude = np.abs(tensor)
    magnitude[de_excited] = 0.0
    worst = magnitude.max()
    if worst > RESIDUAL_TOL:
        raise ResidualExcitationError(
            f"excited amplitude {worst:.3e} above {RESIDUAL_TOL:.0e}")
    total = float(np.vdot(amps, amps).real)
    if total == 0.0:
        raise ZeroStateError("register is the zero vector")
    qubit = tensor[de_excited].reshape(-1)  # ascending register order is qubit order
    minus = _bit_counts(n)
    raw = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        raw[k] = qubit[minus == k].sum()
    raw /= _sqrt_binomials(n)
    kept = float(np.vdot(raw, raw).real)
    if 1.0 - kept / total > RESIDUAL_TOL:
        raise AsymmetricResidueError(
            f"projection keeps only {kept / total:.12f} of the squared norm")
    return SymmetricState.from_raw(n, raw)
