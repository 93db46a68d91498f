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
from dataclasses import dataclass
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
    """

    m: int
    edges: frozenset[Edge]
    conflicts: Mapping[int, frozenset[int]]

    def __init__(self, m: int, edges: Iterable[Iterable[int]] = (),
                 conflicts: Mapping[int, Iterable[int]] | None = None):
        if m < 1:
            raise ValueError("m must be at least 1")
        canon = set()
        for pair in edges:
            u, v = pair
            self._check_vertex(u, m)
            self._check_vertex(v, m)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canon.add((min(u, v), max(u, v)))
        family: dict[int, set[int]] = {v: set() for v in range(1, m + 1)}
        for v, partners in (conflicts or {}).items():
            self._check_vertex(v, m)
            for u in partners:
                self._check_vertex(u, m)
                if u == v:
                    raise ValueError(f"vertex {v} conflicts with itself")
                family[v].add(u)
                family[u].add(v)
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(self, "conflicts",
                           {v: frozenset(family[v]) for v in range(1, m + 1)})

    @staticmethod
    def _check_vertex(v: int, m: int) -> None:
        if not 1 <= v <= m:
            raise ValueError(f"vertex {v} out of range 1..{m}")

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def edge_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v, self.m)
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
    edges: list[Edge] = []
    if m >= 2:
        iu, jv = np.triu_indices(m, k=1)
        hit = rng.random(iu.size) < p
        edges = [(int(iu[t]) + 1, int(jv[t]) + 1) for t in np.nonzero(hit)[0]]

    conflicts: dict[int, set[int]] = {}
    if spec.kind == "uniform-k" and spec.k > 0:
        # index i of the m-1 candidates other than v is vertex i+1 below v,
        # i+2 from v on; an integer population draws the same stream as the
        # array of those candidates
        for v in range(1, m + 1):
            picks = rng.choice(m - 1, size=spec.k, replace=False) + 1
            conflicts[v] = set(np.where(picks < v, picks, picks + 1).tolist())
    return Instance(m=m, edges=edges, conflicts=conflicts)


def is_nice(s: Iterable[int], inst: Instance) -> bool:
    """True iff ``s`` spans no edge and no conflict-set membership."""
    members = sorted(set(s))
    for v in members:
        Instance._check_vertex(v, inst.m)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if inst.has_edge(u, v) or v in inst.conflicts[u]:
                return False
    return True


def union_conflict_graph(inst: Instance) -> frozenset[Edge]:
    """Edges unioned with conflict pairs: ``u ~ v`` iff edge or ``u in T(v)``.

    A set is nice in ``inst`` exactly when it is stable in this relation.
    """
    pairs = set(inst.edges)
    for v, ts in inst.conflicts.items():
        for u in ts:
            pairs.add((min(u, v), max(u, v)))
    return frozenset(pairs)
