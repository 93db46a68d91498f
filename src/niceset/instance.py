"""The random redundancy model: conflict graphs with per-vertex conflict sets.

An :class:`Instance` is a graph on vertices ``1..m`` whose edges mark pairwise
redundancy ("collinearity"), together with a consistent family of conflict
sets ``T(v)`` marking joint redundancy ("multicollinearity"): ``u in T(v)``
iff ``v in T(u)``, and never ``v in T(v)``.

A vertex set is *nice* when it contains no edge and no pair ``u, v`` with
``u in T(v)``.  Nice sets are exactly the stable (independent) sets of the
union graph returned by :func:`union_conflict_graph`.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .rng import generator

Edge = tuple[int, int]

_CONFLICT_KINDS = ("none", "uniform-k")
_METHODS = ("exact", "greedy", "randomized")


@dataclass(frozen=True)
class ConflictSpec:
    """Law of the conflict-set family used by :func:`sample_instance`.

    ``none`` leaves every ``T(v)`` empty; ``uniform-k`` draws ``k`` partners
    per vertex uniformly without replacement and then symmetrizes the family
    by union.
    """

    kind: str = "none"
    k: int = 0

    def __post_init__(self):
        if self.kind not in _CONFLICT_KINDS:
            raise ValueError(f"unknown conflict kind {self.kind!r}; expected one of {_CONFLICT_KINDS}")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.kind == "none" and self.k != 0:
            raise ValueError("conflict kind 'none' takes k=0")

    @classmethod
    def none(cls) -> "ConflictSpec":
        return cls("none", 0)

    @classmethod
    def uniform(cls, k: int) -> "ConflictSpec":
        return cls("uniform-k", k)


@dataclass(frozen=True)
class Instance:
    """Immutable realization of the model: ``m`` vertices, edges, conflicts.

    Edges are stored as ``(u, v)`` pairs with ``u < v``; any iterable of pairs
    is accepted and canonicalized.  The conflict family is symmetrized by
    union at construction, so a partially specified family such as
    ``{3: {4}}`` becomes ``T(3) = {4}, T(4) = {3}``.  Self-conflicts and
    out-of-range vertices are rejected.

    ``edges`` may also be an integer array of ``(u, v)`` rows and, with it,
    ``conflicts`` an integer array of ``(v, u)`` rows meaning ``u in T(v)``
    (as :func:`sample_instance` passes them).  Such arrays are validated in
    numpy; only a rejected one is walked row by row, to raise the error the
    equivalent pair list or mapping raises first.

    The union-graph :attr:`adjacency` is kept with the instance but is not a
    field: it is neither serialized nor compared.
    """

    m: int
    edges: frozenset[Edge]
    conflicts: Mapping[int, frozenset[int]]

    def __init__(self, m: int, edges: Iterable[Iterable[int]] = (),
                 conflicts: Mapping[int, Iterable[int]] | None = None):
        if m < 1:
            raise ValueError("m must be at least 1")
        if _is_pair_array(edges) and _is_pair_array(conflicts):
            self._init_from_arrays(int(m), edges, conflicts)
            return
        canon = _canonical_edges(edges, m)
        family = _conflict_family((conflicts or {}).items(), m)
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(self, "conflicts", family)

    def _init_from_arrays(self, m: int, edges: np.ndarray, conflicts: np.ndarray) -> None:
        if _rejects(edges, m):
            _canonical_edges(edges.tolist(), m)  # raises the first pair's error
        if _rejects(conflicts, m):
            _conflict_family(((v, (u,)) for v, u in conflicts.tolist()), m)
        adjacency = np.zeros((m, m), dtype=bool)
        adjacency[conflicts[:, 0] - 1, conflicts[:, 1] - 1] = True
        adjacency = adjacency | adjacency.T  # the family symmetrized by union
        rows, cols = np.nonzero(adjacency)
        partners = (cols + 1).tolist()
        ends = np.cumsum(np.bincount(rows, minlength=m)).tolist()
        family = {v: frozenset(partners[start:end])
                  for v, start, end in zip(range(1, m + 1), [0] + ends, ends)}
        lo, hi = np.sort(edges, axis=1).T
        adjacency[lo - 1, hi - 1] = True
        adjacency[hi - 1, lo - 1] = True
        adjacency.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edges", frozenset(zip(lo.tolist(), hi.tolist())))
        object.__setattr__(self, "conflicts", family)
        object.__setattr__(self, "adjacency", adjacency)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only ``m x m`` boolean union-graph adjacency: entry
        ``[u-1, v-1]`` is true iff ``(u, v)`` is an edge or ``u in T(v)``.
        Built once, on first use unless the constructor received arrays."""
        pairs = list(self.edges)
        pairs.extend((v, u) for v, ts in self.conflicts.items() for u in ts)
        index = np.array(pairs, dtype=np.intp).reshape(-1, 2) - 1
        adjacency = np.zeros((self.m, self.m), dtype=bool)
        adjacency[index[:, 0], index[:, 1]] = True
        adjacency[index[:, 1], index[:, 0]] = True
        adjacency.flags.writeable = False
        return adjacency

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def edge_neighbors(self, v: int) -> frozenset[int]:
        _check_vertex(v, self.m)
        return frozenset(u for u in range(1, self.m + 1) if u != v and self.has_edge(u, v))

    def union_neighbors(self, v: int) -> frozenset[int]:
        """Neighbors of ``v`` in the union graph (edges plus conflicts)."""
        return self.edge_neighbors(v) | self.conflicts[v]

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "edges": [list(e) for e in sorted(self.edges)],
            "conflicts": {str(v): sorted(ts) for v, ts in sorted(self.conflicts.items()) if ts},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Instance":
        """Inverse of :meth:`to_dict`.  A malformed payload raises
        :class:`ValueError`."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"instance payload must be an object, got {type(payload).__name__}")
        if "m" not in payload:
            raise ValueError("instance payload has no 'm'")
        edges = payload.get("edges", [])
        conflicts = payload.get("conflicts", {})
        if not isinstance(edges, (list, tuple)):
            raise ValueError(f"'edges' must be a list, got {type(edges).__name__}")
        if not isinstance(conflicts, Mapping):
            raise ValueError(f"'conflicts' must be an object, got {type(conflicts).__name__}")
        try:
            return cls(
                m=int(payload["m"]),
                edges=[tuple(e) for e in edges],
                conflicts={int(v): set(ts) for v, ts in conflicts.items()},
            )
        except TypeError as exc:
            raise ValueError(f"malformed instance payload: {exc}") from None

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        return cls.from_dict(json.loads(text))


def _check_vertex(v: int, m: int) -> None:
    if not 1 <= v <= m:
        raise ValueError(f"vertex {v} out of range 1..{m}")


def _canonical_edges(pairs: Iterable[Iterable[int]], m: int) -> set[Edge]:
    canon = set()
    for pair in pairs:
        u, v = pair
        _check_vertex(u, m)
        _check_vertex(v, m)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        canon.add((min(u, v), max(u, v)))
    return canon


def _conflict_family(items: Iterable[tuple[int, Iterable[int]]], m: int) -> dict[int, frozenset[int]]:
    family: dict[int, set[int]] = {v: set() for v in range(1, m + 1)}
    for v, partners in items:
        _check_vertex(v, m)
        for u in partners:
            _check_vertex(u, m)
            if u == v:
                raise ValueError(f"vertex {v} conflicts with itself")
            family[v].add(u)
            family[u].add(v)
    return {v: frozenset(family[v]) for v in range(1, m + 1)}


def _is_pair_array(pairs) -> bool:
    return (isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu"
            and pairs.ndim == 2 and pairs.shape[1] == 2)


def _rejects(pairs: np.ndarray, m: int) -> bool:
    """True iff a row has an out-of-range vertex or repeats its vertex."""
    return bool(((pairs < 1) | (pairs > m)).any() or (pairs[:, 0] == pairs[:, 1]).any())


def adjacency_masks(rows: np.ndarray) -> list[int]:
    """Each boolean adjacency row as an int bitmask, bit ``j`` for column
    ``j`` (vertex ``j + 1``)."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


@dataclass(frozen=True)
class NiceSetResult:
    """A nice vertex set together with the solver that produced it."""

    vertices: frozenset[int]
    size: int
    method: str
    seed: int | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {_METHODS}")
        if self.size != len(self.vertices):
            raise ValueError("size does not match the vertex set")


def sample_instance(m: int, p: float, spec: ConflictSpec | None = None,
                    seed: int = 0) -> Instance:
    """Draw an instance with i.i.d. edge indicators and conflicts per ``spec``.

    Each of the ``m*(m-1)/2`` unordered pairs becomes an edge independently
    with probability ``p``.  Conflict partners are drawn afterwards, vertex by
    vertex, and the family is symmetrized by union.  Identical
    ``(m, p, spec, seed)`` yield bit-identical instances.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    spec = spec or ConflictSpec.none()
    if spec.kind == "uniform-k" and spec.k > m - 1:
        raise ValueError(f"uniform-k spec needs k <= m-1, got k={spec.k}, m={m}")

    rng = generator(seed)
    iu, jv = np.triu_indices(m, k=1)
    hit = rng.random(iu.size) < p
    edges = np.column_stack((iu[hit], jv[hit])) + 1

    owners = np.arange(1, m + 1)
    picks = np.empty((m, 0), dtype=np.intp)
    if spec.k:
        # index i of the m-1 candidates other than v is vertex i+1 below v,
        # i+2 from v on; an integer population draws the same stream as the
        # array of those candidates
        picks = np.array([rng.choice(m - 1, size=spec.k, replace=False) for _ in owners]) + 1
    partners = np.where(picks < owners[:, None], picks, picks + 1)
    conflicts = np.column_stack((np.repeat(owners, spec.k), partners.ravel()))
    return Instance(m=m, edges=edges, conflicts=conflicts)


def is_nice(s: Iterable[int], inst: Instance) -> bool:
    """True iff ``s`` spans no edge and no conflict-set membership.  Members
    are integers (numpy integers included); other types raise
    :class:`TypeError`."""
    members = sorted({operator.index(v) for v in s})
    mask = 0
    for v in members:
        _check_vertex(v, inst.m)
        mask |= 1 << (v - 1)
    rows = inst.adjacency[np.array(members, dtype=np.intp) - 1]
    return not any(row & mask for row in adjacency_masks(rows))


def union_conflict_graph(inst: Instance) -> frozenset[Edge]:
    """Edges unioned with conflict pairs: ``u ~ v`` iff edge or ``u in T(v)``.

    A set is nice in ``inst`` exactly when it is stable in this relation.
    """
    rows, cols = np.nonzero(np.triu(inst.adjacency, k=1))
    return frozenset(zip((rows + 1).tolist(), (cols + 1).tolist()))
