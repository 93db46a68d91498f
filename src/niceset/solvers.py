"""Exact, greedy, and randomized search for maximum nice vertex subsets.

All three solvers reduce niceness to stability in the union graph, read from
the instance's cached boolean adjacency.  The exact and greedy solvers work on
its rows as bitmasks (bit ``v-1`` stands for vertex ``v``), so they are exact
integer computations with no floating point involved.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError, count
from .instance import METHODS, Instance, NiceSetResult, is_nice
from .rng import derive_seed, generator


def _adjacency_masks(adjacency: np.ndarray) -> list[int]:
    """Each adjacency row as an int bitmask, bit ``j`` for vertex ``j + 1``."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_cover_bound(candidates: int, adj: list[int]) -> int:
    # A greedy clique cover of the candidate set: a stable set meets each
    # clique at most once, so the number of cliques bounds the stable size.
    remaining = candidates
    cliques = 0
    while remaining:
        v = (remaining & -remaining).bit_length() - 1
        grow = remaining & adj[v]
        clique = 1 << v
        while grow:
            u = (grow & -grow).bit_length() - 1
            clique |= 1 << u
            grow &= adj[u]
        remaining &= ~clique
        cliques += 1
    return cliques


def _min_degree_greedy(adj: list[int], m: int) -> int:
    """Greedy stable set: repeatedly take a minimum-degree vertex of the
    residual graph, the smallest such index, and delete its closed
    neighborhood."""
    remaining = (1 << m) - 1
    chosen = 0
    while remaining:
        v = min(_bits(remaining), key=lambda u: (adj[u] & remaining).bit_count())
        chosen |= 1 << v
        remaining &= ~(adj[v] | (1 << v))
    return chosen


def _mask_to_vertices(mask: int) -> frozenset[int]:
    return frozenset(v + 1 for v in _bits(mask))


def _check_witness(vertices: frozenset[int], inst: Instance) -> None:
    # An explicit raise, not an assert, so the check survives ``python -O``.
    if not is_nice(vertices, inst):
        raise RuntimeError("solver returned a non-nice set")


def max_nice_exact(inst: Instance, node_budget: int = 5_000_000) -> NiceSetResult:
    """Maximum nice set by branch and bound on the union graph.

    Starts from the greedy set, branches on a maximum-residual-degree vertex
    (take it, or drop it) and prunes with the greedy clique-cover bound.  The
    search runs depth first on an explicit stack, take-child first, so its
    depth is not limited by Python's recursion limit; ``node_budget`` is its
    only limit.  Raises :class:`BudgetError` carrying the best set found when
    more than ``node_budget`` search nodes are expanded.
    """
    node_budget = count("node_budget", node_budget, 1)
    m = inst.m
    adj = _adjacency_masks(inst.adjacency)
    best_mask = _min_degree_greedy(adj, m)
    best_size = best_mask.bit_count()
    nodes = 0
    stack = [((1 << m) - 1, 0, 0)]  # pending (candidates, chosen, size) subproblems
    while stack:
        candidates, chosen, size = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetError(
                f"exact search exceeded node budget {node_budget}",
                best_size=best_size, best_vertices=_mask_to_vertices(best_mask))
        if candidates == 0:
            if size > best_size:
                best_size, best_mask = size, chosen
            continue
        if size + _clique_cover_bound(candidates, adj) <= best_size:
            continue
        pivot, pivot_deg = -1, -1
        for v in _bits(candidates):
            d = (adj[v] & candidates).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        bit = 1 << pivot
        # the take child is pushed last, so it is searched first
        stack.append((candidates & ~bit, chosen, size))
        stack.append((candidates & ~(adj[pivot] | bit), chosen | bit, size + 1))
    vertices = _mask_to_vertices(best_mask)
    _check_witness(vertices, inst)
    return NiceSetResult(vertices=vertices, size=best_size, method="exact")


def greedy_nice(inst: Instance) -> NiceSetResult:
    """Maximal (not necessarily maximum) nice set by residual min-degree
    greedy; ties go to the smallest vertex."""
    mask = _min_degree_greedy(_adjacency_masks(inst.adjacency), inst.m)
    vertices = _mask_to_vertices(mask)
    _check_witness(vertices, inst)
    return NiceSetResult(vertices=vertices, size=len(vertices), method="greedy")


def randomized_nice(inst: Instance, max_restarts: int = 100, seed: int = 0) -> NiceSetResult:
    """Nice set found by the uniform randomized constructor.

    Scans target sizes ``L`` downward from the greedy clique-cover bound of
    the union graph (no nice set is larger, so no size above it can succeed)
    to 1.  Size ``L`` draws all ``max_restarts`` rows of ``L`` uniform
    vertices in one call from its own seed ``derive_seed(seed, L)``; the rows
    with distinct vertices are tested together in one gather on the cached
    union-graph adjacency, and the first stable one wins.
    This is exactly the draw sequence and acceptance test of
    :func:`~niceset.goodness.randomized_construct` on the instance's goodness
    system.  ``L = 1`` always succeeds, so a set is always returned.
    Deterministic under ``seed``.
    """
    max_restarts = count("max_restarts", max_restarts, 1)
    m, adjacency = inst.m, inst.adjacency
    flat = adjacency.ravel()  # a view: the adjacency is C-contiguous
    for target in range(_clique_cover_bound((1 << m) - 1, _adjacency_masks(adjacency)), 0, -1):
        draws = generator(derive_seed(seed, target)).integers(0, m, size=(max_restarts, target))
        ordered = np.sort(draws, axis=1)
        rows = draws[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
        if not len(rows):
            continue
        # a distinct row is stable iff no pair of its vertices is adjacent;
        # entry [u, v] of the adjacency is flat[u * m + v]
        stable = ~flat[rows[:, :, None] * m + rows[:, None, :]].any(axis=(1, 2))
        if stable.any():
            vertices = frozenset((rows[stable.argmax()] + 1).tolist())
            _check_witness(vertices, inst)
            return NiceSetResult(vertices=vertices, size=target,
                                 method="randomized", seed=seed)
    raise AssertionError("unreachable: singleton draws always succeed")


def solve(inst: Instance, method: str, seed: int = 0) -> NiceSetResult:
    """The nice set the solver named ``method`` finds: ``exact``
    (:func:`max_nice_exact` with its default node budget), ``greedy``, or
    ``randomized`` (seeded with ``seed``; the other two ignore it)."""
    if method == "exact":
        return max_nice_exact(inst)
    if method == "greedy":
        return greedy_nice(inst)
    if method == "randomized":
        return randomized_nice(inst, seed=seed)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
