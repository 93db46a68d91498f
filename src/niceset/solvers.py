"""Exact, greedy, and randomized search for maximum nice vertex subsets.

All three solvers reduce niceness to stability in the union graph, read from
the instance's cached boolean adjacency.  The exact and greedy solvers work on
its rows as bitmasks (the exact search relabels the vertices by degree first),
so they are exact integer computations with no floating point involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .instance import Instance, is_nice
from .rng import derive_seed, generator

METHODS = ("exact", "greedy", "randomized")
NODE_BUDGET = 5_000_000  # nodes one exact search may expand
RESTARTS = 100  # rows drawn at each size of a randomized scan


@dataclass(frozen=True)
class NiceSetResult:
    """A nice vertex set together with the solver that produced it, one of
    :data:`METHODS`, and the seed of a randomized run."""

    vertices: frozenset[int]
    method: str
    seed: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")

    @property
    def size(self) -> int:
        return len(self.vertices)


def _adjacency_masks(adjacency: np.ndarray) -> list[int]:
    """Each adjacency row as an int bitmask, bit ``j`` for vertex ``j + 1``."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_cover(candidates: int, adj: list[int]) -> list[int]:
    """Greedy cliques covering the candidates, each grown from the lowest
    vertex left; a stable set meets each clique at most once."""
    cover = []
    while candidates:
        clique = candidates & -candidates
        grow = candidates & adj[clique.bit_length() - 1]
        while grow:
            low = grow & -grow
            clique |= low
            grow &= adj[low.bit_length() - 1]
        candidates &= ~clique
        cover.append(clique)
    return cover


def _by_degree(adjacency: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Masks relabelled by ascending degree, ties in order, and their original indices."""
    order = np.argsort(adjacency.sum(1), kind="stable")
    return order, _adjacency_masks(adjacency[np.ix_(order, order)])


def _min_degree_greedy(adj: list[int], m: int) -> int:
    """Greedy stable set: repeatedly take a vertex of minimum residual degree,
    the smallest such index, and delete its closed neighborhood."""
    remaining, chosen = (1 << m) - 1, 0
    while remaining:
        v = min(_bits(remaining), key=lambda u: (adj[u] & remaining).bit_count())
        chosen |= 1 << v
        remaining &= ~(adj[v] | (1 << v))
    return chosen


def _mask_to_vertices(mask: int, order) -> frozenset[int]:
    """The vertices of ``mask``, whose bit ``j`` stands for vertex ``order[j] + 1``."""
    return frozenset(int(order[v]) + 1 for v in _bits(mask))


def _checked(vertices: frozenset[int], inst: Instance, method: str,
             seed: int | None = None) -> NiceSetResult:
    """The result of ``method``, once ``vertices`` is checked nice in ``inst``."""
    # An explicit raise, not an assert, so the check survives ``python -O``.
    if not is_nice(vertices, inst):
        raise RuntimeError("solver returned a non-nice set")
    return NiceSetResult(vertices, method, seed)


def max_nice_exact(inst: Instance) -> NiceSetResult:
    """Maximum nice set by colouring branch and bound (MCQ, Tomita & Seki
    2003, on the complement) from the greedy set, the vertices relabelled by
    ascending union-graph degree.  Each node covers its candidates with
    greedy cliques and branches from the last clique back; a vertex of the
    ``j``-th clique leads to at most ``size + j`` vertices, so once that is
    no better than the best set the rest of the cover is cut.  The search
    runs on an explicit stack, so Python's recursion limit does not bound its
    depth; past :data:`NODE_BUDGET` nodes it raises :class:`BudgetError`
    with the best set found."""
    order, adj = _by_degree(inst.adjacency)
    best_mask = _min_degree_greedy(adj, inst.m)
    best_size, nodes, left = best_mask.bit_count(), 1, (1 << inst.m) - 1
    stack = [[0, 0, left, _clique_cover(left, adj)]]  # chosen, size, candidates left, cover
    while stack:
        chosen, size, left, cover = frame = stack[-1]
        if size + len(cover) <= best_size:
            stack.pop()
            continue
        clique = cover.pop()
        v = clique.bit_length() - 1
        bit = 1 << v
        if clique != bit:
            cover.append(clique ^ bit)
        frame[2] = left = left ^ bit
        nodes += 1
        if nodes > NODE_BUDGET:
            raise BudgetError(f"exact search exceeded node budget {NODE_BUDGET}",
                              best_vertices=_mask_to_vertices(best_mask, order))
        chosen |= bit
        if size + 1 > best_size:  # every chosen set is stable
            best_size, best_mask = size + 1, chosen
        left &= ~adj[v]
        stack.append([chosen, size + 1, left, _clique_cover(left, adj)])
    return _checked(_mask_to_vertices(best_mask, order), inst, "exact")


def greedy_nice(inst: Instance) -> NiceSetResult:
    """Maximal (not necessarily maximum) nice set by residual min-degree
    greedy; ties go to the smallest vertex."""
    mask = _min_degree_greedy(_adjacency_masks(inst.adjacency), inst.m)
    return _checked(_mask_to_vertices(mask, range(inst.m)), inst, "greedy")


def randomized_nice(inst: Instance, seed: int = 0) -> NiceSetResult:
    """Nice set found by the uniform randomized constructor.

    Scans target sizes ``L`` from the clique count of :func:`max_nice_exact`'s
    root cover (no nice set is larger) down to 1.  Size ``L`` draws all
    :data:`RESTARTS` rows of ``L`` uniform vertices in one call from its own
    seed ``derive_seed(seed, L)``; the rows with distinct vertices are tested
    together in one gather on the cached union-graph adjacency, and the first
    stable one wins.  This is exactly the draw sequence and acceptance test of
    :func:`~niceset.goodness.randomized_construct` on the instance's goodness
    system.  ``L = 1`` always succeeds, so a set is always returned.
    Deterministic under ``seed``.
    """
    m, adjacency = inst.m, inst.adjacency
    flat = adjacency.ravel()  # a view: the adjacency is C-contiguous
    for target in range(len(_clique_cover((1 << m) - 1, _by_degree(adjacency)[1])), 0, -1):
        draws = generator(derive_seed(seed, target)).integers(0, m, size=(RESTARTS, target))
        ordered = np.sort(draws, axis=1)
        rows = draws[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
        if not len(rows):
            continue
        # a distinct row is stable iff no pair of its vertices is adjacent;
        # entry [u, v] of the adjacency is flat[u * m + v]
        stable = ~flat[rows[:, :, None] * m + rows[:, None, :]].any(axis=(1, 2))
        if stable.any():
            return _checked(frozenset((rows[stable.argmax()] + 1).tolist()), inst,
                            "randomized", seed)
    raise AssertionError("unreachable: singleton draws always succeed")


def solve(inst: Instance, method: str, seed: int = 0) -> NiceSetResult:
    """The nice set the solver named ``method`` finds: ``exact``
    (:func:`max_nice_exact` under :data:`NODE_BUDGET`), ``greedy``, or
    ``randomized`` (seeded with ``seed``; the other two ignore it)."""
    if method == "exact":
        return max_nice_exact(inst)
    if method == "greedy":
        return greedy_nice(inst)
    if method == "randomized":
        return randomized_nice(inst, seed=seed)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
