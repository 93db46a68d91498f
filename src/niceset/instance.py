"""The random redundancy model: conflict graphs with per-vertex conflict sets.

An :class:`Instance` is a graph on vertices ``1..m`` whose edges mark pairwise
redundancy ("collinearity"), together with a consistent family of conflict
sets ``T(v)`` marking joint redundancy ("multicollinearity"): ``u in T(v)``
iff ``v in T(u)``, and never ``v in T(v)``.

A vertex set is *nice* when it contains no edge and no pair ``u, v`` with
``u in T(v)``.  Nice sets are exactly the stable (independent) sets of the
union graph of edges and conflict pairs, which each instance keeps as its
boolean :attr:`Instance.adjacency`.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import count, real
from .rng import generator

Edge = tuple[int, int]


@dataclass(frozen=True)
class ConflictSpec:
    """Law of the conflict-set family used by :func:`sample_instance`: each
    vertex draws ``k`` partners uniformly without replacement, and the family
    is then symmetrized by union.  ``k = 0``, the default, draws nothing, so
    every ``T(v)`` is empty.
    """

    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", count("k", self.k, 0))

    @classmethod
    def uniform(cls, k: int) -> "ConflictSpec":
        return cls(k)


@dataclass(frozen=True)
class Instance:
    """Immutable realization of the model: ``m`` vertices, edges, conflicts.

    Edges are stored as ``(u, v)`` pairs with ``u < v``; any iterable of pairs
    is accepted and canonicalized.  The conflict family is symmetrized by
    union at construction, so a partially specified family such as
    ``{3: {4}}`` becomes ``T(3) = {4}, T(4) = {3}``.  Self-conflicts,
    out-of-range vertices and a non-integer ``m`` or vertex are rejected.

    ``conflicts`` is a mapping ``v -> T(v)`` or an iterable (a list, an
    array) of ``(v, u)`` rows meaning ``u in T(v)``.  Every input becomes an
    integer ``(k, 2)`` row array before anything is built.  An integer array
    of rows (as :func:`sample_instance` passes them) is validated in numpy;
    any other input, or a rejected array, is walked pair by pair, edges
    before conflicts, and the first bad vertex or pair raises.

    ``adjacency`` is the read-only ``m x m`` boolean union-graph adjacency:
    entry ``[u-1, v-1]`` is true iff ``(u, v)`` is an edge or ``u in T(v)``.
    The constructor builds it once.  It is not a field: it is neither
    serialized nor compared.
    """

    m: int
    edges: frozenset[Edge]
    conflicts: Mapping[int, frozenset[int]]

    def __init__(self, m: int, edges: Iterable[Iterable[int]] = (),
                 conflicts: Mapping[int, Iterable[int]] | Iterable[Iterable[int]] | None = None):
        m = count("m", m, 1)
        edge_rows = _rows(edges, ((u, (v,)) for u, v in edges), m, "self-loop at vertex {}")
        conflicts = {} if conflicts is None else conflicts
        items = (conflicts.items() if isinstance(conflicts, Mapping)
                 else ((v, (u,)) for v, u in conflicts))
        conflict_rows = _rows(conflicts, items, m, "vertex {} conflicts with itself")
        adjacency = np.zeros((m, m), dtype=bool)
        adjacency[conflict_rows[:, 0] - 1, conflict_rows[:, 1] - 1] = True
        adjacency = adjacency | adjacency.T  # the family symmetrized by union
        rows, cols = np.divmod(np.flatnonzero(adjacency), m)  # np.nonzero, only faster
        partners = (cols + 1).tolist()
        ends = np.cumsum(np.bincount(rows, minlength=m)).tolist()
        family = {v: frozenset(partners[start:end])
                  for v, start, end in zip(range(1, m + 1), [0] + ends, ends)}
        lo, hi = np.sort(edge_rows, axis=1).T
        adjacency[lo - 1, hi - 1] = True
        adjacency[hi - 1, lo - 1] = True
        adjacency.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edges", frozenset(zip(lo.tolist(), hi.tolist())))
        object.__setattr__(self, "conflicts", family)
        object.__setattr__(self, "adjacency", adjacency)

    def __hash__(self) -> int:
        # the generated hash would hash ``conflicts``, a dict; equal
        # instances have equal ``m`` and ``edges``, so this agrees with ==
        return hash((self.m, self.edges))

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "edges": [list(e) for e in sorted(self.edges)],
            "conflicts": {str(v): sorted(ts) for v, ts in sorted(self.conflicts.items()) if ts},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Instance":
        """Inverse of :meth:`to_dict`.  A payload of the wrong shape or
        type raises :class:`ValueError` starting ``malformed instance
        payload: ``; a bad vertex, pair or ``m`` raises as the constructor
        does."""
        try:
            if not isinstance(payload, Mapping):
                raise TypeError(f"expected an object, got {type(payload).__name__}")
            if "m" not in payload:
                raise TypeError("no 'm'")
            conflicts = payload.get("conflicts", {})
            if not isinstance(conflicts, Mapping):
                raise TypeError(f"'conflicts' must be an object, got {type(conflicts).__name__}")
            edges = [tuple(e) for e in payload.get("edges", [])]
            if any(len(e) != 2 for e in edges):
                raise TypeError("every edge must be a pair")
            # JSON object keys are strings; other keys reach the constructor as given
            family = {int(v) if isinstance(v, str) else v: ts for v, ts in conflicts.items()}
        except (TypeError, ValueError) as exc:  # ValueError: a key int() rejects
            raise ValueError(f"malformed instance payload: {exc}") from None
        try:
            return cls(payload["m"], edges, family)
        except TypeError as exc:
            raise ValueError(f"malformed instance payload: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        return cls.from_dict(json.loads(text))


def _vertex(v, m: int) -> int:
    """``v`` as an ``int`` in ``1..m``; a non-integer raises :class:`TypeError`."""
    v = operator.index(v)
    if not 1 <= v <= m:
        raise ValueError(f"vertex {v} out of range 1..{m}")
    return v


def _rows(pairs, items: Iterable[tuple[object, Iterable]], m: int, self_pair: str) -> np.ndarray:
    """``pairs`` as an integer ``(k, 2)`` array of valid rows.

    An integer array of rows with every vertex in ``1..m`` and no row
    repeating its vertex is returned as it is.  Otherwise the rows are read
    from ``items``, ``(v, partners)`` with one row ``(v, u)`` per partner
    ``u``, in order: the first bad vertex raises, and the first row that
    repeats its vertex raises ``self_pair`` formatted with that vertex.
    """
    if (isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu" and pairs.ndim == 2
            and pairs.shape[1] == 2 and not ((pairs < 1) | (pairs > m)).any()
            and not (pairs[:, 0] == pairs[:, 1]).any()):
        return pairs
    flat = []
    for v, partners in items:
        v = _vertex(v, m)
        for u in partners:
            u = _vertex(u, m)
            if u == v:
                raise ValueError(self_pair.format(v))
            flat += (v, u)
    return np.array(flat, dtype=np.intp).reshape(-1, 2)


def _conflict_spec(name: str, spec: ConflictSpec | None, m: int) -> ConflictSpec:
    """``spec`` checked for ``m`` vertices; ``None`` is ``ConflictSpec()``."""
    if spec is None:
        return ConflictSpec()
    if not isinstance(spec, ConflictSpec):
        raise TypeError(f"{name} must be a ConflictSpec, got {type(spec).__name__}")
    if spec.k > m - 1:
        raise ValueError(f"uniform-k spec needs k <= m-1, got k={spec.k}, m={m}")
    return spec


def sample_instance(m: int, p: float, spec: ConflictSpec | None = None,
                    seed: int = 0) -> Instance:
    """Draw an instance with i.i.d. edge indicators and conflicts per ``spec``.

    Each of the ``m*(m-1)/2`` unordered pairs becomes an edge independently
    with probability ``p``.  Conflict partners are drawn afterwards, vertex by
    vertex, and the family is symmetrized by union.  Identical
    ``(m, p, spec, seed)`` yield bit-identical instances.
    """
    m = count("m", m, 1)
    if not 0.0 <= real("p", p) <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    spec = _conflict_spec("spec", spec, m)

    rng = generator(seed)
    iu, jv = np.triu_indices(m, k=1)
    hit = rng.random(iu.size) < p
    edges = np.column_stack((iu[hit], jv[hit])) + 1

    owners = np.arange(1, m + 1)
    picks = np.empty((m, 0), dtype=np.intp)
    # index i of the m-1 candidates other than v is vertex i+1 below v, i+2
    # from v on; an integer population draws the same stream as the array of
    # those candidates
    if spec.k == 1:
        # choice(m - 1, 1, replace=False) is Floyd's algorithm with a single
        # bounded (Lemire) draw on [0, m-1) and no shuffle, so one integers
        # call gives the same picks from the same stream
        picks = rng.integers(0, m - 1, size=(m, 1)) + 1
    elif spec.k:
        picks = np.array([rng.choice(m - 1, size=spec.k, replace=False) for _ in owners]) + 1
    partners = np.where(picks < owners[:, None], picks, picks + 1)
    conflicts = np.column_stack((np.repeat(owners, spec.k), partners.ravel()))
    return Instance(m=m, edges=edges, conflicts=conflicts)


def is_nice(s: Iterable[int], inst: Instance) -> bool:
    """True iff ``s`` spans no edge and no conflict-set membership.  Members
    are integers (numpy integers included); other types raise
    :class:`TypeError`."""
    members = sorted({operator.index(v) for v in s})
    rows = np.array([_vertex(v, inst.m) for v in members], dtype=np.intp) - 1
    return not inst.adjacency[np.ix_(rows, rows)].any()

