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

Pyramid kets are strings over ``e+-`` that spell emitter 0 first (so
``"+e-"`` has emitter 0 in ``+``, emitter 2 in ``-``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, cycle, product, repeat
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Polarizer,
    SymmetricState,
    _check_register_size,
    _sequence,
    _sqrt_binomials,
    _store,
)
from .errors import ConfigError


@dataclass(frozen=True)
class PolarizerConfig:
    """Ordered polarizer settings for one run of the cascade.

    Anything but a non-empty sequence of :class:`Polarizer` is ``ConfigError``.
    """

    polarizers: tuple[Polarizer, ...]

    def __post_init__(self) -> None:
        pols = _sequence(self.polarizers, "a configuration")
        if len(pols) < 1:
            raise ConfigError("a configuration needs at least one polarizer")
        for p in pols:
            if not isinstance(p, Polarizer):
                raise ConfigError(f"expected Polarizer, got {type(p).__name__}")
        _store(self, polarizers=pols)

    def __hash__(self) -> int:
        # the dataclass's, once: the window Monte Carlo's cache hashes on every call
        try:
            return self._hash
        except AttributeError:
            return _store(self, _hash=hash((self.polarizers,)))._hash

    @classmethod
    def from_angles(cls, angles: Iterable[float]) -> "PolarizerConfig":
        """Linear polarizers at the given angles (radians)."""
        return cls(tuple(map(Polarizer.linear, _sequence(angles, "angles"))))

    def __len__(self) -> int:
        return len(self.polarizers)

    def __iter__(self):
        return iter(self.polarizers)

    def __getitem__(self, i):
        return self.polarizers[i]


def _as_config(config) -> PolarizerConfig:
    if isinstance(config, PolarizerConfig):
        return config
    return PolarizerConfig(config)


def _partial_products(config: PolarizerConfig) -> Iterator[list[complex]]:
    """Coefficients of ``prod_{i <= m} (alpha_i + beta_i z)`` for m = 1..n.

    Yields one shared list of ``n + 1`` Python complexes, updated in place
    by the descending recurrence ``q_k <- alpha_m q_k + beta_m q_{k-1}``;
    after step ``m`` its entries above ``m`` are zero.  Python complex
    arithmetic rounds exactly as numpy's complex scalars do, at a third of
    their per-operation cost.
    """
    n = len(config)
    q = [0j] * (n + 1)
    q[0] = 1.0 + 0.0j
    for degree, p in enumerate(config, start=1):
        alpha, beta = p.alpha, p.beta
        for k in range(degree, 0, -1):
            q[k] = alpha * q[k] + beta * q[k - 1]
        q[0] *= alpha
        yield q


def _product_polynomial(config: PolarizerConfig) -> np.ndarray:
    """Coefficients q_0..q_n of ``prod_i (alpha_i + beta_i z)``."""
    for q in _partial_products(config):
        pass
    return np.array(q)


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


@lru_cache(maxsize=None)
def _ket_table(n: int) -> tuple[tuple[tuple, itemgetter, frozenset, list, list], ...]:
    """Every ket of an ``n``-emitter pyramid, one entry per level.

    Entry ``m`` is ``(kets, pick, known, parents, children)``: the kets with
    ``m`` emitters out of ``e`` in sorted order; ``pick(weights)``, the
    ``weights[k]`` of each ket with ``k`` minuses in that order; the kets as
    a set; and the parent and child of every edge to level ``m + 1`` in the
    order of :func:`pyramid_edges` (parents sorted, their excited emitters
    ascending, ``+`` child before ``-`` child).  Each ket is one string
    object shared by every entry and every caller.

    The table is built by index arithmetic.  A ket's index is the base-3
    number whose digit at place ``3**(n-1-j)`` is emitter ``j``'s letter,
    with ``+``, ``-``, ``e`` as 0, 1, 2, so sorted order is index order.  A
    ket's level is its count of digits below 2 and its ``pick`` entry its
    count of 1s; exciting emitter ``j`` of parent ``p`` gives the children
    ``p - 2 * 3**(n-1-j)`` (``+``) and ``p - 3**(n-1-j)`` (``-``).
    """
    ket_of = np.array(list(map("".join, product("+-e", repeat=n))), dtype=object)
    digits = np.indices((3,) * n, dtype=np.uint8).reshape(n, -1)
    level = (digits < 2).sum(axis=0, dtype=np.uint8)
    minuses = (digits == 1).sum(axis=0, dtype=np.uint8)
    places = 3 ** np.arange(n - 1, -1, -1)
    table = []
    for m in range(n + 1):
        index = np.flatnonzero(level == m)
        kets = ket_of[index].tolist()
        parent, emitter = np.nonzero(digits[:, index].T == 2)  # parent-major
        base, place = index[parent], places[emitter]
        children = ket_of[np.stack([base - 2 * place, base - place], axis=1).ravel()]
        table.append((tuple(kets), itemgetter(*minuses[index].tolist()), frozenset(kets),
                      ket_of[index.repeat(2 * (n - m))].tolist(), children.tolist()))
    return tuple(table)


def build_pyramid(config) -> list[PyramidLevel]:
    """Expand the cascade level by level, keeping every intermediate ket.

    Level 0 is ``{|e...e>: 1}``; level m applies polarizer m to each ket of
    level m-1, branching every still-excited emitter into ``+`` (weight
    ``alpha_m``) and ``-`` (weight ``beta_m``).  Amplitudes of coinciding
    kets add coherently, which is where the multipath interference lives.
    Kets whose amplitude is exactly zero are left out.

    Level m has a closed form: every ket with ``k`` of its ``m`` de-excited
    emitters in ``-`` carries ``k! (m-k)! q_k``, where ``q_k`` is the
    ``z**k`` coefficient of the partial product ``prod_{i <= m} (alpha_i +
    beta_i z)``; each of the ``k! (m-k)!`` assignments of the detectors to
    the ket's emitters contributes the same elementary-symmetric term.  So
    the ``n!`` detector-to-emitter orderings that reach a final ket with
    ``k`` minuses collapse onto ``C(n, k)`` interfering path classes, one
    per set of ``k`` detectors that put their emitter into ``-``.

    Raises
    ------
    TooLargeError
        If the configuration has more than ``REGISTER_SIZE_LIMIT`` emitters.
    """
    config = _as_config(config)
    n = len(config)
    _check_register_size(n, "pyramid")
    table = _ket_table(n)
    levels = [PyramidLevel(0, {table[0][0][0]: 1.0 + 0.0j})]
    for (m, q), (kets, pick, *_) in zip(
            enumerate(_partial_products(config), start=1), table[1:]):
        # never all zero: with unit polarizers some |q_k| is 2**(-m/2) / sqrt(m + 1) or more
        weights = [factorial(k) * factorial(m - k) * q[k] for k in range(m + 1)]
        amps = pick(weights)
        pairs = zip(kets, amps)
        if not all(weights):
            pairs = compress(pairs, [amp != 0.0 for amp in amps])
        levels.append(PyramidLevel(m, dict(pairs)))
    return levels


def pyramid_edges(config, levels: Sequence[PyramidLevel]) -> list[tuple[int, str, str, complex]]:
    """Transition list ``(level, parent_ket, child_ket, weight)``.

    ``level`` is the step of the child ket and ``weight`` is the polarizer
    component applied on that edge (``alpha_m`` for an ``e -> +`` transition,
    ``beta_m`` for ``e -> -``).  Parents are the kets of ``levels`` in sorted
    order, each with one edge pair per excited emitter; ``levels`` is
    normally ``build_pyramid(config)``.

    Raises
    ------
    TooLargeError
        If the configuration has more than ``REGISTER_SIZE_LIMIT`` emitters.
    ConfigError
        If ``levels`` is not a sequence of ``n + 1`` :class:`PyramidLevel`
        whose terms are dicts and whose steps are the ints ``0..n`` in order,
        or if a key of ``levels[m - 1]`` is not a ket with ``m - 1`` emitters
        out of ``e``.
    """
    config = _as_config(config)
    n = len(config)
    _check_register_size(n, "pyramid")
    levels = _sequence(levels, "levels")
    if not all(isinstance(x, PyramidLevel) and isinstance(x.terms, dict) for x in levels):
        raise ConfigError("levels must be PyramidLevels whose terms are dicts")
    # types first: a bool step equals an int, and an array step compares elementwise
    if [(type(x.step), x.step) for x in levels] != [(int, m) for m in range(n + 1)]:
        raise ConfigError(f"levels must be the {n + 1} PyramidLevels of steps 0..{n}")
    edges: list[tuple[int, str, str, complex]] = []
    for (m, p), (parents, _, known, flat_parents, children) in zip(
            enumerate(config, start=1), _ket_table(n)):
        terms = levels[m - 1].terms
        if not terms.keys() <= known:
            # the key is not formatted: str() of a huge int raises ValueError
            raise ConfigError(f"a key of level {m - 1} is not a step-{m - 1} ket of {n} emitters")
        if len(terms) < len(parents):
            # absent parents, e.g. structural zeros of sigma+/- polarizers
            keep = np.repeat([ket in terms for ket in parents],
                             2 * (n - m + 1)).tolist()
            flat_parents = compress(flat_parents, keep)
            children = compress(children, keep)
        edges.extend(zip(repeat(m), flat_parents, children,
                         cycle((p.alpha, p.beta))))
    return edges
