"""Entanglement measures and the operational three-qubit classification.

For three qubits the genuinely entangled pure states split into two
inequivalent families: states with nonzero residual tangle (the
maximally-entangled family) and states with zero tangle but entangled
single-qubit marginals (the single-excitation family).  Separable states
have neither.  This module computes the measures two independent ways:

* directly from the state vector (Cayley 2x2x2 hyperdeterminant, von
  Neumann entropies of the one-qubit marginals, Wootters concurrence of
  the two-qubit marginals), all in :func:`entanglement_report`, and
* in closed form from the polarizer settings of a three-detector cascade,
  where the tangle factorizes over pairwise orientation differences.

The two routes agreeing is the content of the operational classification:
the number of distinct polarizer orientations alone decides the class.

The state-vector measures all start from one list of the 8 amplitudes as
Python complexes, because on 2x2 and 8-element arrays numpy's per-call
overhead costs far more than the arithmetic.  The hyperdeterminant is a
polynomial in the amplitudes, each one-qubit marginal is a 2x2 matrix
whose spectrum has a closed form, and so is each pair concurrence, in the
form :func:`_concurrences` derives.  The report and
:func:`tangle_hyperdeterminant` share these helpers, so each measure has one
implementation; the numpy versions they replaced are the oracles of the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, ldexp, log, log1p, log2, sqrt

from .cascade import _as_config, _partial_products
from .core import SymmetricState, _numbers, _unit_vector, same_orientation
from .errors import DimensionMismatchError

#: Threshold separating numerically-zero tangle/entropy from generic nonzero
#: values after the forward pipeline, used by state-based classification.
CLASS_TOL = 1e-7

GHZ_CLASS = "GHZ"
W_CLASS = "W"
S_CLASS = "S"

_PAIRS = ((0, 1), (0, 2), (1, 2))

#: For each qubit, the amplitude index pairs (qubit in 0, qubit in 1) that
#: agree on the other two qubits.
_SPLITS = tuple(tuple((x, x | 1 << q) for x in range(8) if not x >> q & 1)
                for q in range(3))

_LN2 = log(2.0)


@dataclass(frozen=True)
class EntanglementReport:
    """Measured entanglement content of a three-qubit state."""

    tangle: float
    entropies: tuple[float, float, float]
    pair_concurrences: dict[tuple[int, int], float]
    inferred_class: str


@dataclass(frozen=True)
class ClassPrediction:
    """Class read off from the polarizer settings alone."""

    distinct_orientations: int
    predicted_class: str


def _as_qubit_amplitudes(state) -> list[complex]:
    """The 8 normalized amplitudes of a three-qubit state, as Python complexes.

    Accepts a SymmetricState with n=3 or any length-8 amplitude sequence
    (bit j of the index = qubit j, little-endian).  A non-numeric or
    non-finite amplitude is ``ConfigError``, the zero vector
    ``ZeroStateError``.
    """
    if isinstance(state, SymmetricState):
        if state.n != 3:
            raise DimensionMismatchError(f"need a 3-qubit state, got n={state.n}")
        return state.to_qubit_amplitudes().tolist()
    psi = _numbers(state, complex, "amplitudes").reshape(-1)
    if psi.shape != (8,):
        raise DimensionMismatchError(f"need 8 amplitudes, got {psi.shape}")
    return _unit_vector(psi).tolist()


def _tangle(psi: list[complex]) -> float:
    """``4 |Det(psi)|``, Cayley's hyperdeterminant of the 8 amplitudes."""
    p0, p1, p2, p3, p4, p5, p6, p7 = psi
    # each ket times its bitwise complement
    x, y, z, w = p0 * p7, p3 * p4, p2 * p5, p1 * p6
    det = (x * x + y * y + z * z + w * w
           - 2.0 * (x * (y + z + w) + y * z + y * w + z * w)
           + 4.0 * (p0 * p3 * p5 * p6 + p1 * p2 * p4 * p7))
    return min(4.0 * abs(det), 1.0)


def _entropy(psi: list[complex], qubit: int) -> float:
    """Entropy (bits) of one qubit's marginal ``[[a, c], [c*, d]]``.

    The larger eigenvalue comes from the quadratic formula, whose root sums
    positive terms; the smaller one as ``det / lmax``, which cancels no more
    than the determinant itself.  Both enter as fractions ``p`` and ``1 - p``
    of the trace, so the entropy is never negative.
    """
    a = d = 0.0
    c = 0j
    for x, y in _SPLITS[qubit]:
        u, v = psi[x], psi[y]
        a += u.real * u.real + u.imag * u.imag
        d += v.real * v.real + v.imag * v.imag
        c += u * v.conjugate()
    cc = c.real * c.real + c.imag * c.imag
    lmax = 0.5 * (a + d + sqrt((a - d) * (a - d) + 4.0 * cc))
    p = max(a * d - cc, 0.0) / lmax / (a + d)
    if p == 0.0:  # 0 log 0 = 0
        return 0.0
    return -(p * log2(p) + (1.0 - p) * log1p(-p) / _LN2)


def _concurrences(psi: list[complex]) -> list[float]:
    """Wootters concurrences of the two-qubit marginals of ``_PAIRS``.

    The generic formula sorts the root-eigenvalues of
    ``rho (sy x sy) rho* (sy x sy)`` and takes ``l1 - l2 - l3 - l4``.
    Because the total state is pure, each marginal has rank at most two and
    only two of those values survive; they are the singular values
    ``s0 >= s1`` of the complex symmetric 2x2 matrix
    ``T = M^T (sy x sy) M = [[a, b], [b, d]]``, with ``M`` the
    pair-versus-rest reshape of the amplitudes.  The concurrence is

        s0 - s1 = (s0**2 - s1**2) / (s0 + s1)
                = sqrt((|a|**2 - |d|**2)**2 + 4 |a b* + b d*|**2)
                  / sqrt(|a|**2 + 2 |b|**2 + |d|**2 + 2 |a d - b**2|),

    the eigenvalue gap of ``T T^dagger`` over ``sqrt(|T|_F**2 + 2 |det T|)``.
    Each root is taken of a sum of non-negative terms.  The shorter
    ``sqrt(|T|_F**2 - 2 |det T|)`` would take the root of a quantity that is
    zero up to rounding near a product state, which costs half the working
    precision.  ``T`` vanishes at a product state, so it is first scaled by
    the power of two of its largest entry and the quotient scaled back, both
    exactly, and its squares neither underflow nor lose bits; ``T = 0``
    gives 0.
    """
    concurrences = []
    for i, j in _PAIRS:
        bi, bj = 1 << i, 1 << j
        r = 7 ^ bi ^ bj  # the remaining qubit's bit
        # (bit_i, bit_j) = 00, 01, 10, 11, each with the remaining qubit 0 / 1
        u0, u1 = psi[0], psi[r]
        v0, v1 = psi[bj], psi[bj | r]
        w0, w1 = psi[bi], psi[bi | r]
        z0, z1 = psi[bi | bj], psi[7]
        # M^T (sy x sy) M with M the (4, 2) pair-versus-rest matrix
        a = 2.0 * (v0 * w0 - u0 * z0)
        b = v0 * w1 + w0 * v1 - u0 * z1 - z0 * u1
        d = 2.0 * (v1 * w1 - u1 * z1)
        peak = max(abs(a), abs(b), abs(d))
        if peak == 0.0:
            concurrences.append(0.0)
            continue
        # clamped: for a subnormal peak the scale 2**-e itself would overflow
        e = max(frexp(peak)[1], -1022)
        scale = 2.0 ** -e
        a, b, d = a * scale, b * scale, d * scale
        aa = a.real * a.real + a.imag * a.imag
        bb = b.real * b.real + b.imag * b.imag
        dd = d.real * d.real + d.imag * d.imag
        off = a * b.conjugate() + b * d.conjugate()
        gap = sqrt((aa - dd) * (aa - dd) + 4.0 * (off.real * off.real + off.imag * off.imag))
        # the concurrence is linear in T: scale back by 2**e
        concurrences.append(ldexp(gap / sqrt(aa + 2.0 * bb + dd + 2.0 * abs(a * d - b * b)), e))
    return concurrences


def tangle_hyperdeterminant(state) -> float:
    """Residual tangle ``4 |Det(psi)|`` via Cayley's 2x2x2 hyperdeterminant.

    Nonzero exactly on the maximally-entangled class; zero on the
    single-excitation class and on separable states.
    """
    return _tangle(_as_qubit_amplitudes(state))


def tangle_closed_form(config) -> float:
    """Tangle of the three-detector cascade output, from the settings alone.

    With polarizer components ``(alpha_i, beta_i)``, ``q_k`` the ``z**k``
    coefficient of ``prod_i (alpha_i + beta_i z)`` and ``N`` the factor
    normalizing the closed-form coefficients ``q_k / sqrt(C(3, k))``,

        tau = (4/27) * N**4 * prod_{i<j} |alpha_i beta_j - alpha_j beta_i|**2

    The product vanishes exactly when two polarizers share an orientation.
    The normalization convention matters: these per-ordering-class
    coefficients are the ones that make the formula agree with the
    hyperdeterminant (checked against it to 1e-8 in the test suite, with the
    maximally-entangled recipe landing on 1).
    """
    config = _as_config(config)
    if len(config) != 3:
        raise DimensionMismatchError(f"closed form needs exactly 3 polarizers, got {len(config)}")
    for q in _partial_products(config):
        pass
    # 1 / N**2 = sum_k |q_k|**2 / C(3, k), with C(3, k) = 1, 3, 3, 1
    m0, m1, m2, m3 = (c.real * c.real + c.imag * c.imag for c in q)
    norm2 = m0 + (m1 + m2) / 3.0 + m3
    cross = 1.0
    for i, j in _PAIRS:
        pi, pj = config[i], config[j]
        cross *= abs(pi.alpha * pj.beta - pj.alpha * pi.beta) ** 2
    return min((4.0 / 27.0) * cross / (norm2 * norm2), 1.0)


def _infer_class(tangle: float, entropies: tuple[float, ...]) -> str:
    if tangle > CLASS_TOL:
        return GHZ_CLASS
    if max(entropies) > CLASS_TOL:
        return W_CLASS
    return S_CLASS


def entanglement_report(state) -> EntanglementReport:
    """All measures of a three-qubit state plus the inferred class.

    Classification thresholds on ``CLASS_TOL``; near a class boundary the
    report still returns the measured side, with the raw numbers attached
    for the caller to judge.
    """
    psi = _as_qubit_amplitudes(state)
    tangle = _tangle(psi)
    entropies = (_entropy(psi, 0), _entropy(psi, 1), _entropy(psi, 2))
    concurrences = dict(zip(_PAIRS, _concurrences(psi)))
    return EntanglementReport(tangle, entropies, concurrences,
                              _infer_class(tangle, entropies))


def classify_from_config(config) -> ClassPrediction:
    """Class of the cascade output read off the polarizer settings.

    Three distinct orientations produce the maximally-entangled class, two
    the single-excitation class, one the separable class.
    """
    config = _as_config(config)
    if len(config) != 3:
        raise DimensionMismatchError(f"classification needs 3 polarizers, got {len(config)}")
    representatives: list = []
    for p in config:
        if not any(same_orientation(p, r) for r in representatives):
            representatives.append(p)
    count = len(representatives)
    predicted = {3: GHZ_CLASS, 2: W_CLASS, 1: S_CLASS}[count]
    return ClassPrediction(count, predicted)
