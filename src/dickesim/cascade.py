"""Closed-form cascade output and the pyramid of intermediate states.

The full cascade applies one detection per polarizer to the fully excited
register.  Its final state admits a closed form: with polarizer components
``(alpha_i, beta_i)``, the coefficient of the ``k``-excitation symmetric
basis state is proportional to ``q_k / sqrt(C(n, k))`` where ``q_k`` is the
``z**k`` coefficient of the product polynomial ``prod_i (alpha_i + beta_i z)``.
The sum over all detector-to-emitter assignments collapses onto these
elementary-symmetric combinations, so the closed form costs O(n^2) instead of
enumerating n! interfering paths.  All constant factors are absorbed by the
final normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, cycle, repeat
from math import comb, factorial
from typing import Iterable, Sequence

import numpy as np

from .core import (
    LinearAngle,
    Polarizer,
    SymmetricState,
    _level_detection,
    _level_kets,
    _sqrt_binomials,
)
from .errors import InvalidKetError, ZeroStateError


@dataclass(frozen=True)
class PolarizerConfig:
    """Ordered polarizer settings for one run of the cascade."""

    polarizers: tuple[Polarizer, ...]

    def __post_init__(self) -> None:
        pols = tuple(self.polarizers)
        if len(pols) < 1:
            raise ValueError("a configuration needs at least one polarizer")
        for p in pols:
            if not isinstance(p, Polarizer):
                raise TypeError(f"expected Polarizer, got {type(p).__name__}")
        object.__setattr__(self, "polarizers", pols)

    @classmethod
    def from_angles(cls, angles: Iterable[float]) -> "PolarizerConfig":
        """Linear polarizers at the given angles (radians)."""
        return cls(tuple(LinearAngle(t).to_polarizer() for t in angles))

    def __len__(self) -> int:
        return len(self.polarizers)

    def __iter__(self):
        return iter(self.polarizers)

    def __getitem__(self, i):
        return self.polarizers[i]


def _as_config(config) -> PolarizerConfig:
    if isinstance(config, PolarizerConfig):
        return config
    return PolarizerConfig(tuple(config))


def _product_polynomial(config: PolarizerConfig) -> np.ndarray:
    """Coefficients q_0..q_n of ``prod_i (alpha_i + beta_i z)``."""
    n = len(config)
    q = np.zeros(n + 1, dtype=complex)
    q[0] = 1.0
    for degree, p in enumerate(config, start=1):
        for k in range(degree, 0, -1):
            q[k] = p.alpha * q[k] + p.beta * q[k - 1]
        q[0] *= p.alpha
    return q


def dicke_coefficients(config) -> SymmetricState:
    """Closed-form symmetric expansion of the cascade output.

    Returns the normalized final state, the coefficients
    ``q_k / sqrt(C(n, k))`` scaled to unit norm.

    Raises
    ------
    TooLargeError
        If ``sqrt(C(n, k))`` leaves the float range (from n = 2054 on).
    ZeroStateError
        If every coefficient vanishes (cannot happen for valid polarizers,
        kept as a guard for degenerate inputs).
    """
    config = _as_config(config)
    n = len(config)
    roots = _sqrt_binomials(n)  # raises before the polynomial can overflow
    return SymmetricState.from_raw(n, _product_polynomial(config) / roots)


# ---------------------------------------------------------------------------
# pyramid of intermediate states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PyramidLevel:
    """Sparse register after ``step`` detections: ket string -> amplitude."""

    step: int
    terms: dict[str, complex]


@dataclass(frozen=True)
class PathCount:
    """Quantum-path bookkeeping for one final ket.

    ``orderings`` counts detector-to-emitter assignments (always n!);
    ``distinct_products`` counts the distinct amplitude products these
    assignments produce, i.e. the genuinely interfering path classes.
    """

    orderings: int
    distinct_products: int


def build_pyramid(config) -> list[PyramidLevel]:
    """Expand the cascade level by level, keeping every intermediate ket.

    Level 0 is ``{|e...e>: 1}``; level m applies polarizer m to each ket of
    level m-1, branching every still-excited emitter into ``+`` (weight
    ``alpha_m``) and ``-`` (weight ``beta_m``).  Amplitudes of coinciding
    kets add coherently, which is where the multipath interference lives.
    Kets whose amplitude is exactly zero are left out.

    The levels are computed by the level-restricted kernel of the window
    Monte Carlo, with every emitter weighted alike.
    """
    config = _as_config(config)
    n = len(config)
    kets = _level_kets(n)
    level = np.ones((1, 1, 1), dtype=complex)
    levels = [PyramidLevel(0, {kets[0][0]: 1.0 + 0.0j})]
    for m, p in enumerate(config, start=1):
        weights = np.broadcast_to(np.array([p.alpha, p.beta]), (1, n, 2))
        level = _level_detection(level, weights)
        amps = level.ravel()
        nonzero = amps != 0.0
        if not nonzero.any():
            raise ZeroStateError(f"cascade annihilated the state at step {m}")
        levels.append(PyramidLevel(
            m, dict(zip(compress(kets[m], nonzero.tolist()),
                        amps[nonzero].tolist()))))
    return levels


def path_count(n: int, ket: str) -> PathCount:
    """Count quantum paths from ``|e,...,e>`` to a fully de-excited ket."""
    if len(ket) != n:
        raise InvalidKetError(f"ket {ket!r} does not have length {n}")
    if any(ch not in "+-" for ch in ket):
        raise InvalidKetError(f"ket {ket!r} must contain only '+' and '-'")
    k = ket.count("-")
    return PathCount(orderings=factorial(n), distinct_products=comb(n, k))


def pyramid_text(levels: Sequence[PyramidLevel]) -> str:
    """Human-readable dump, one indented block of kets per detection step."""
    lines = []
    for level in levels:
        lines.append(f"step {level.step}:")
        for ket in sorted(level.terms):
            amp = level.terms[ket]
            lines.append(f"  |{ket}>  {amp.real:+.12g}{amp.imag:+.12g}j")
    return "\n".join(lines)


@lru_cache(maxsize=None)
def _edge_table(n: int) -> tuple[tuple[frozenset, tuple, list, list], ...]:
    """Every possible edge of an ``n``-emitter pyramid, one entry per step.

    Entry ``m - 1`` holds the level-``m - 1`` kets as a set and in sorted
    order, then the parent and the child of each edge in the order of
    :func:`pyramid_edges`: parents sorted, and for each parent its excited
    emitters in ascending order, ``+`` child before ``-`` child.  Every ket
    is the shared string object of :func:`core._level_kets`.
    """
    kets = _level_kets(n)
    table = []
    for m in range(1, n + 1):
        canonical = {ket: ket for ket in kets[m]}
        parents = tuple(sorted(kets[m - 1]))
        flat_parents, children = [], []
        for ket in parents:
            for j, ch in enumerate(ket):
                if ch == "e":
                    children.append(canonical[ket[:j] + "+" + ket[j + 1:]])
                    children.append(canonical[ket[:j] + "-" + ket[j + 1:]])
            flat_parents.extend([ket] * (2 * (n - m + 1)))
        table.append((frozenset(parents), parents, flat_parents, children))
    return tuple(table)


def pyramid_edges(config, levels: Sequence[PyramidLevel] | None = None,
                  ) -> list[tuple[int, str, str, complex]]:
    """Transition list ``(level, parent_ket, child_ket, weight)``.

    ``level`` is the step of the child ket and ``weight`` is the polarizer
    component applied on that edge (``alpha_m`` for an ``e -> +`` transition,
    ``beta_m`` for ``e -> -``).  Parents are the kets of ``levels`` in sorted
    order, each with one edge pair per excited emitter.

    Raises
    ------
    InvalidKetError
        If a ket of ``levels[m - 1]`` is not a ket with ``m - 1`` emitters
        out of ``e``.
    """
    config = _as_config(config)
    n = len(config)
    if levels is None:
        levels = build_pyramid(config)
    edges: list[tuple[int, str, str, complex]] = []
    for (m, p), (known, parents, flat_parents, children) in zip(
            enumerate(config, start=1), _edge_table(n)):
        terms = levels[m - 1].terms
        if not terms.keys() <= known:
            foreign = next(ket for ket in terms if ket not in known)
            raise InvalidKetError(
                f"ket {foreign!r} is not a step-{m - 1} ket of {n} emitters")
        if len(terms) < len(parents):
            # absent parents, e.g. structural zeros of sigma+/- polarizers
            keep = np.repeat([ket in terms for ket in parents],
                             2 * (n - m + 1)).tolist()
            flat_parents = compress(flat_parents, keep)
            children = compress(children, keep)
        edges.extend(zip(repeat(m), flat_parents, children,
                         cycle((p.alpha, p.beta))))
    return edges
