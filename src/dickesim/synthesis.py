"""Inverse design: polarizer settings for an arbitrary symmetric target.

The forward map sends polarizer components to the coefficients of the product
polynomial ``prod_i (alpha_i + beta_i z)``, so inverting it is root finding.
Given target coefficients ``d_k``, build

    P(z) = sum_k (-1)**(K-k) * sqrt(C(n,k)/C(n,K)) * d_k * z**k

with ``K`` the largest index carrying a nonzero coefficient.  The ``K`` roots
of ``P`` are the component ratios ``alpha_i / beta_i`` of ``K`` polarizers;
the remaining ``n - K`` polarizers sit on the pure ``+`` circular component.
The sign pattern makes the reconstructed product polynomial proportional to
the target coefficient list, which the round-trip tests pin down.

Named recipes for the standard maximally-entangled, single-excitation and
product targets are provided alongside the generic construction.
"""

from __future__ import annotations

import numpy as np

from .cascade import PolarizerConfig
from .core import Polarizer, SymmetricState, _number, _sqrt_binomials, _system_size
from .errors import ConfigError, RootFindingError

#: Coefficients below this magnitude do not count toward the polynomial degree.
DEGREE_TOL = 1e-12


def _synthesis_polynomial(target: SymmetricState) -> np.ndarray:
    """Coefficients of the root-finding polynomial of ``target``, ``z**k`` at index ``k``.

    The degree ``len(coeffs) - 1`` is the largest target index above
    ``DEGREE_TOL``, so the leading coefficient is nonzero (a normalized
    target has some ``|d_k|`` of at least ``1/sqrt(n + 1)``).
    """
    d = target.coeffs
    # numpy's modulus: Python's abs (libm's hypot) differs from its vectorized
    # loop in the last bit on some machines, which moves the degree at the tolerance
    moduli = np.abs(d).tolist()
    k_max = next(k for k in range(target.n, -1, -1) if moduli[k] > DEGREE_TOL)
    roots = _sqrt_binomials(target.n)[:k_max + 1]
    ratios = roots / roots[k_max]
    ratios[1 - k_max % 2::2] *= -1.0  # the sign (-1)**(k_max - k)
    return ratios * d[:k_max + 1]


def _polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix of ``coeffs``; empty for degree 0.

    The matrix is the one ``np.roots`` builds, so the roots are its
    roots bit for bit: ``k`` vanishing low-order coefficients become
    ``k`` exact zero roots, appended last, and the remaining polynomial
    goes to one ``np.linalg.eigvals`` call without ``np.roots``' wrapper.
    """
    zeros = next(k for k, c in enumerate(coeffs.tolist()) if c)
    top_first = coeffs[zeros:][::-1]
    size = len(top_first) - 1
    if size:
        companion = np.zeros((size, size), dtype=complex)
        companion.reshape(-1)[size::size + 1] = 1.0  # the subdiagonal
        try:
            with np.errstate(over="raise"):
                companion[0] = -top_first[1:] / top_first[0]
        except FloatingPointError:
            raise RootFindingError("companion matrix leaves the float range") from None
        try:
            roots = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError as exc:
            raise RootFindingError(
                f"companion eigensolver failed: {exc}") from exc
        if zeros:
            roots = np.concatenate((roots, np.zeros(zeros, dtype=complex)))
    else:
        roots = np.zeros(zeros, dtype=complex)
    if not np.isfinite(roots).all():
        raise RootFindingError("non-finite root encountered")
    return roots


def synthesize(target: SymmetricState) -> PolarizerConfig:
    """Polarizer configuration whose cascade output is ``target``.

    Each root ``r`` becomes the polarizer ``(r, 1)/sqrt(1+|r|^2)``; targets
    with vanishing top coefficients get ``n - K`` pure-``+`` polarizers.
    The fully inverted target (only the top coefficient nonzero) needs no
    special casing: all roots are zero and every polarizer lands on the pure
    ``-`` component.  A target that is not a :class:`SymmetricState` is
    ``ConfigError``.
    """
    if not isinstance(target, SymmetricState):
        raise ConfigError(
            f"target must be a SymmetricState, got {type(target).__name__}")
    pols = [Polarizer(r, 1.0) for r in _polynomial_roots(_synthesis_polynomial(target)).tolist()]
    pols.extend(Polarizer(1.0, 0.0) for _ in range(target.n - len(pols)))
    return PolarizerConfig(tuple(pols))


# ---------------------------------------------------------------------------
# named configurations
# ---------------------------------------------------------------------------

def ghz_config(n: int, phi: float) -> PolarizerConfig:
    """Linear polarizers generating ``(|+..+> + e^{i phi}|-..->)/sqrt(2)``.

    The ``n`` orientations are spread uniformly over the half-turn:
    ``theta_k = phi/(2n) + k*pi/n``, offset by an extra ``pi/(2n)`` when
    ``n`` is even (without the offset the relative phase of the two
    components comes out as ``-e^{i phi}``).
    """
    n = _system_size(n)
    if n < 2:
        raise ConfigError("maximally entangled target needs n >= 2")
    phi = _number(phi, "phi")
    offset = np.pi / (2 * n) if n % 2 == 0 else 0.0
    return PolarizerConfig.from_angles(
        offset + phi / (2 * n) + k * np.pi / n for k in range(n))


def s_config(n: int, phi: float) -> PolarizerConfig:
    """Identical linear polarizers generating the product state.

    All angles sit at ``phi/2``; the output is the n-fold product of
    ``(|+> + e^{i phi}|->)/sqrt(2)``.
    """
    n = _system_size(n)
    return PolarizerConfig.from_angles([_number(phi, "phi") / 2.0] * n)


def w_config(n: int, phi: float) -> PolarizerConfig:
    """Two orthogonal orientation groups generating the single-excitation state.

    The target is ``(1/sqrt(n)) * sum_j |0..1_j..0>`` in the rotated basis
    ``|0> = (|+> - e^{i phi}|->)/sqrt(2)``, ``|1> = (|+> + e^{i phi}|->)/sqrt(2)``.
    One polarizer sits at ``phi/2`` and contributes the lone ``|1>``; the
    other ``n - 1`` sit orthogonal to it at ``phi/2 + pi/2`` and each
    contribute a ``|0>``.  Swapping the two angle groups would produce the
    mirrored state (the same pattern at phase ``phi + pi``).
    """
    n = _system_size(n)
    if n < 2:
        raise ConfigError("single-excitation target needs n >= 2")
    phi = _number(phi, "phi")
    angles = [phi / 2.0 + np.pi / 2.0] * (n - 1) + [phi / 2.0]
    return PolarizerConfig.from_angles(angles)
