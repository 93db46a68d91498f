"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from niceset import FeatureMatrix, Instance, graph_system

PATH_ADJACENCY = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
K4_ADJACENCY = {1: {2, 3, 4}, 2: {1, 3, 4}, 3: {1, 2, 4}, 4: {1, 2, 3}}


@pytest.fixture
def path_system():
    return graph_system(PATH_ADJACENCY)


@pytest.fixture
def k4_system():
    return graph_system(K4_ADJACENCY)


def edgeless_system(n: int):
    return graph_system({v: set() for v in range(1, n + 1)})


def enumerate_max_nice(inst: Instance) -> int:
    """Oracle: maximum nice-set size by checking all 2**m subsets.

    Rebuilds adjacency straight from the instance's raw edge and conflict
    fields, independently of the solvers and of ``Instance.adjacency``.
    """
    m = inst.m
    adj = [0] * (m + 1)
    for u, v in inst.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for v, ts in inst.conflicts.items():
        for u in ts:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    best = 0
    for mask in range(1 << m):
        shifted = mask << 1  # bit v stands for vertex v (1-based)
        probe, ok = shifted, True
        while probe:
            low = probe & -probe
            if adj[low.bit_length() - 1] & shifted:
                ok = False
                break
            probe ^= low
        if ok:
            best = max(best, shifted.bit_count())
    return best


def reference_adjacency(inst: Instance) -> np.ndarray:
    """Oracle: union-graph adjacency rebuilt straight from the raw edge and
    conflict fields, as :func:`enumerate_max_nice` does."""
    adjacency = np.zeros((inst.m, inst.m), dtype=bool)
    for u, v in inst.edges:
        adjacency[u - 1, v - 1] = adjacency[v - 1, u - 1] = True
    for v, ts in inst.conflicts.items():
        for u in ts:
            adjacency[u - 1, v - 1] = adjacency[v - 1, u - 1] = True
    return adjacency


def edge_adjacency(inst: Instance) -> dict[int, set[int]]:
    """Neighbour sets of the collinearity edges alone, read from ``inst.edges``."""
    adjacency = {v: set() for v in range(1, inst.m + 1)}
    for u, v in inst.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def mutually_good_by_definition(system, s) -> bool:
    """Oracle: the subset definition of mutual goodness, checked exhaustively
    over every proper subset I of s (including the empty set)."""
    members = frozenset(s)
    for r in range(len(members)):
        for combo in itertools.combinations(sorted(members, key=repr), r):
            i_set = frozenset(combo)
            if not (members - i_set) <= system.f(i_set):
                return False
    return True


def planted_block_matrix(n: int = 500, n_blocks: int = 3, block_size: int = 4,
                         n_indep: int = 6, noise: float = 0.1,
                         seed: int = 123) -> FeatureMatrix:
    """Synthetic dataset: each block shares one latent signal plus small
    noise; the independents are plain Gaussian columns."""
    rng = np.random.default_rng(seed)
    cols, names = [], []
    for b in range(n_blocks):
        latent = rng.normal(size=n)
        for i in range(block_size):
            cols.append(latent + noise * rng.normal(size=n))
            names.append(f"block{b}_{i}")
    for i in range(n_indep):
        cols.append(rng.normal(size=n))
        names.append(f"indep{i}")
    return FeatureMatrix(names=tuple(names), data=np.column_stack(cols))
