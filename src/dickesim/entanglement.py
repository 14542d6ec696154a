"""Entanglement measures and the operational three-qubit classification.

For three qubits the genuinely entangled pure states split into two
inequivalent families: states with nonzero residual tangle (the
maximally-entangled family) and states with zero tangle but entangled
single-qubit marginals (the single-excitation family).  Separable states
have neither.  This module computes the measures two independent ways:

* directly from the state vector (Cayley 2x2x2 hyperdeterminant, von
  Neumann entropies of the one-qubit marginals, Wootters concurrence of
  the two-qubit marginals), and
* in closed form from the polarizer settings of a three-detector cascade,
  where the tangle factorizes over pairwise orientation differences.

The two routes agreeing is the content of the operational classification:
the number of distinct polarizer orientations alone decides the class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import _as_config, _product_polynomial
from .core import SymmetricState, _sqrt_binomials, same_orientation
from .errors import WrongArityError, ZeroStateError

#: Threshold separating numerically-zero tangle/entropy from generic nonzero
#: values after the forward pipeline, used by state-based classification.
CLASS_TOL = 1e-7

GHZ_CLASS = "GHZ"
W_CLASS = "W"
S_CLASS = "S"

_PAIRS = ((0, 1), (0, 2), (1, 2))

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


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


def _as_qubit_amplitudes(state) -> np.ndarray:
    """Coerce a three-qubit state to its 8 normalized amplitudes.

    Accepts a SymmetricState with n=3 or any length-8 amplitude sequence
    (bit j of the index = qubit j, little-endian).
    """
    if isinstance(state, SymmetricState):
        if state.n != 3:
            raise WrongArityError(f"need a 3-qubit state, got n={state.n}")
        return state.to_qubit_amplitudes()
    psi = np.asarray(state, dtype=complex).reshape(-1)
    if psi.shape != (8,):
        raise WrongArityError(f"need 8 amplitudes, got {psi.shape}")
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise ZeroStateError("state vector is zero")
    return psi / nrm


def _reduced_density(psi: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Marginal density matrix of the kept qubits (little-endian order)."""
    tensor = psi.reshape(2, 2, 2, order="F")  # axes = qubits 0, 1, 2
    traced = [q for q in range(3) if q not in keep]
    moved = np.transpose(tensor, list(keep) + traced)
    mat = moved.reshape(2 ** len(keep), -1)
    return mat @ mat.conj().T


def tangle_hyperdeterminant(state) -> float:
    """Residual tangle ``4 |Det(psi)|`` via Cayley's 2x2x2 hyperdeterminant.

    Nonzero exactly on the maximally-entangled class; zero on the
    single-excitation class and on separable states.
    """
    psi = _as_qubit_amplitudes(state)
    a = psi.reshape(2, 2, 2, order="F")
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
          + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
          + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1]
          * (a[0, 0, 1] * a[1, 1, 0] + a[0, 1, 0] * a[1, 0, 1]
             + a[1, 0, 0] * a[0, 1, 1])
          + a[0, 0, 1] * a[1, 1, 0] * a[0, 1, 0] * a[1, 0, 1]
          + a[0, 0, 1] * a[1, 1, 0] * a[1, 0, 0] * a[0, 1, 1]
          + a[0, 1, 0] * a[1, 0, 1] * a[1, 0, 0] * a[0, 1, 1])
    d3 = (a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
          + a[1, 1, 1] * a[1, 0, 0] * a[0, 1, 0] * a[0, 0, 1])
    tau = 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)
    return float(min(tau, 1.0))


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
        raise WrongArityError(f"closed form needs exactly 3 polarizers, got {len(config)}")
    norm = 1.0 / np.linalg.norm(_product_polynomial(config) / _sqrt_binomials(3))
    cross = 1.0
    for i, j in _PAIRS:
        pi, pj = config[i], config[j]
        cross *= abs(pi.alpha * pj.beta - pj.alpha * pi.beta) ** 2
    tau = (4.0 / 27.0) * norm ** 4 * cross
    return float(np.clip(tau, 0.0, 1.0))


def single_qubit_entropy(state, qubit: int) -> float:
    """Von Neumann entropy (bits) of one qubit's marginal; ``0 log 0 = 0``."""
    if qubit not in (0, 1, 2):
        raise IndexError(f"qubit index {qubit} outside 0..2")
    psi = _as_qubit_amplitudes(state)
    evals = np.linalg.eigvalsh(_reduced_density(psi, (qubit,)))
    evals = evals[evals > 1e-15]
    return float(-(evals * np.log2(evals)).sum())


def pair_concurrence(state, pair: tuple[int, int]) -> float:
    """Wootters concurrence of a two-qubit marginal of the pure state.

    The generic formula sorts the root-eigenvalues of
    ``rho (sy x sy) rho* (sy x sy)`` and takes ``l1 - l2 - l3 - l4``.
    Because the total state is pure, the marginal has rank at most two and
    only two of those values survive; they are the singular values of the
    2x2 matrix ``M^T (sy x sy) M`` with ``M`` the pair-versus-rest reshape
    of the amplitudes.  Computing them by SVD avoids taking square roots of
    eigenvalues that are zero up to rounding, which would cost half the
    working precision.
    """
    i, j = pair
    if i not in (0, 1, 2) or j not in (0, 1, 2) or i == j:
        raise IndexError(f"invalid qubit pair {pair}")
    psi = _as_qubit_amplitudes(state)
    rest = ({0, 1, 2} - {i, j}).pop()
    tensor = psi.reshape(2, 2, 2, order="F")
    mat = np.transpose(tensor, (i, j, rest)).reshape(4, 2)
    singulars = np.linalg.svd(mat.T @ _SPIN_FLIP @ mat, compute_uv=False)
    return float(max(0.0, singulars[0] - singulars[1]))


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
    tangle = tangle_hyperdeterminant(psi)
    entropies = tuple(single_qubit_entropy(psi, q) for q in range(3))
    concurrences = {pair: pair_concurrence(psi, pair) for pair in _PAIRS}
    return EntanglementReport(tangle, entropies, concurrences,
                              _infer_class(tangle, entropies))


def classify_from_config(config) -> ClassPrediction:
    """Class of the cascade output read off the polarizer settings.

    Three distinct orientations produce the maximally-entangled class, two
    the single-excitation class, one the separable class.
    """
    config = _as_config(config)
    if len(config) != 3:
        raise WrongArityError(f"classification needs 3 polarizers, got {len(config)}")
    representatives: list = []
    for p in config:
        if not any(same_orientation(p, r) for r in representatives):
            representatives.append(p)
    count = len(representatives)
    predicted = {3: GHZ_CLASS, 2: W_CLASS, 1: S_CLASS}[count]
    return ClassPrediction(count, predicted)
