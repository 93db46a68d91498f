"""Goodness systems: mutually good sets, element constraints, worst-case
fractions, existence oracles, and the uniform randomized constructor.

A *goodness function* ``f`` maps subsets of a finite universe ``U`` to
subsets of ``U`` and satisfies two axioms:

* symmetry:      ``S1 <= f(S2)``  iff  ``S2 <= f(S1)``,
* intersection:  ``f(S1 | S2) == f(S1) & f(S2)``,

with the convention ``f(empty) == U``.  A set ``S`` is *mutually good* when
``S - I <= f(I)`` for every proper subset ``I`` of ``S``; under the axioms
this is equivalent to the pairwise condition ``x in f({y})`` for all distinct
``x, y in S``, which is what :func:`is_mutually_good` checks.

A *constraint* maps ``(x, I)`` into a value set ``E`` with accepted values
``B``; a system stores it as the predicate ``g(x, I)``, true iff that value
lies in ``B``.  ``I`` is *B-constrained* when ``g(y, I - {y})`` holds for
every ``y in I``, and ``h(I)`` collects the ``x`` for which ``g(x, I)`` fails.

:func:`fraction_table` enumerates the worst-case fraction of good (resp.
constraint-violating) elements over B-constrained sets of bounded size, as
exact rationals.  When ``p[L-1] > q[L-1]`` a mutually good B-constrained set
of cardinality ``L`` exists; :func:`randomized_construct` finds one by
uniform sampling and :func:`brute_force_mutually_good` by exhaustive search.
:func:`existence_violations` checks that claim without a second search: the
walk that gives the fractions also tests each size's sets for mutual
goodness, the same sets in the same order as brute force, which stays as
the public exhaustive search and the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import BudgetError, count
from .instance import Instance
from .rng import _seed, generator

SUBSET_BUDGET = 2_000_000  # subsets one enumeration may visit


@dataclass(frozen=True)
class GoodnessSystem:
    """A finite universe with a goodness function and an element constraint.

    ``f`` maps a frozenset to a frozenset; ``g(x, I)`` is true iff the
    constraint value of ``x`` with respect to the frozenset ``I`` lies in the
    set ``B`` of accepted values.  ``f(empty) == universe`` is enforced at
    construction; the two goodness axioms are the caller's responsibility
    (see :func:`check_goodness_axioms`).
    """

    universe: tuple
    f: Callable[[frozenset], frozenset]
    g: Callable[[object, frozenset], bool]
    _elements: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_elements", frozenset(self.universe))
        if len(self._elements) != len(self.universe):
            raise ValueError("universe contains duplicates")
        if not self.universe:
            raise ValueError("universe must be non-empty")
        if self.f(frozenset()) != self._elements:
            raise ValueError("f(empty set) must equal the whole universe")

    @property
    def size(self) -> int:
        return len(self.universe)

    def _subset(self, s: Iterable) -> frozenset:
        """``s`` as a frozenset; ``ValueError`` names any element outside the universe."""
        members = frozenset(s)
        if not members <= self._elements:
            outside = sorted(map(repr, members - self._elements))
            raise ValueError(f"not in the universe: {', '.join(outside)}")
        return members


def system_from_singletons(universe: Iterable, singleton_good: Mapping,
                           g: Callable[[object, frozenset], bool]) -> GoodnessSystem:
    """Build a system whose ``f`` is derived from its singleton values by
    intersection: ``f(I) = intersection of f({v}) over v in I``.

    Any such ``f`` satisfies the intersection axiom by construction; the
    symmetry axiom holds exactly when ``x in f({y})  iff  y in f({x})``.
    Avoids materializing all ``2**N`` subsets.
    """
    elements = tuple(universe)
    full = frozenset(elements)
    good = {v: frozenset(singleton_good[v]) for v in elements}

    def f(subset: frozenset) -> frozenset:
        result = full
        for v in subset:
            result &= good[v]
        return result

    return GoodnessSystem(universe=elements, f=f, g=g)


def graph_system(adjacency: Mapping[int, Iterable[int]]) -> GoodnessSystem:
    """Non-adjacency system on a graph.

    ``f(S)`` is the set of vertices adjacent to no vertex of ``S`` (a vertex
    of ``S`` itself belongs to ``f(S)`` when it has no neighbor in ``S``);
    ``g(x, I)`` accepts ``x`` when it has no neighbor in ``I``.  Mutually
    good and constrained both reduce to stability here.
    """
    vertices = tuple(sorted(adjacency))
    neighbors = {v: frozenset(adjacency[v]) for v in vertices}
    for v, ns in neighbors.items():
        for u in ns:
            if v not in neighbors.get(u, frozenset()):
                raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    def g(x, chosen: frozenset) -> bool:
        return not neighbors[x] & chosen

    singleton_good = {v: frozenset(vertices) - neighbors[v] for v in vertices}
    return system_from_singletons(vertices, singleton_good, g)


def instance_system(inst: Instance) -> GoodnessSystem:
    """Goodness system of a model instance.

    Goodness is :func:`graph_system`'s non-adjacency in the collinearity
    edges.  The constraint accepts ``x`` with respect to chosen set ``I``
    when ``x`` lies in no chosen vertex's closed conflict set
    ``T(v) | {v}``: an accepted element avoids every chosen vertex and all
    of their conflict partners.  The family is symmetric, so that is
    ``x not in I`` and ``T(x)`` disjoint from ``I``.  A set is mutually good
    and constrained here exactly when it is nice in ``inst``.
    """
    vertices, conflicts = range(1, inst.m + 1), inst.conflicts

    def g(x, chosen: frozenset) -> bool:
        return x not in chosen and not conflicts[x] & chosen

    neighbors = {v: set() for v in vertices}
    for u, v in inst.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return replace(graph_system(neighbors), g=g)


def is_mutually_good(system: GoodnessSystem, s: Iterable) -> bool:
    """Pairwise test: every element of ``s`` is good for every other one."""
    members = list(system._subset(s))
    singles = {y: system.f(frozenset([y])) for y in members}
    return all(x in singles[y] for x in members for y in members if x != y)


def is_constrained(system: GoodnessSystem, s: Iterable) -> bool:
    """True iff ``g(y, s - {y})`` holds for every ``y in s``."""
    members = system._subset(s)
    return all(system.g(y, members - {y}) for y in members)


def h_set(system: GoodnessSystem, i_set: Iterable) -> frozenset:
    """Elements whose constraint value with respect to ``i_set`` lies outside ``B``."""
    chosen = system._subset(i_set)
    return frozenset(x for x in system.universe if not system.g(x, chosen))


def _constrained_sets(system: GoodnessSystem, sizes: Iterable[int]):
    """For each size in ``sizes`` in turn, yield a generator of the
    B-constrained subsets of that size, in :func:`itertools.combinations`
    order over the universe.

    This is the one place the subset budget is charged: before it starts a
    size, the walk raises :class:`BudgetError` if the subsets of every size
    started so far, this one included, exceed :data:`SUBSET_BUDGET` as it
    reads then.  A caller that stops asking for sizes pays only for the
    sizes it reached."""
    n, visited = system.size, 0
    for size in sizes:
        visited += math.comb(n, size)
        if visited > SUBSET_BUDGET:
            raise BudgetError(f"enumerating the subsets of size {size} over {n} elements "
                              f"brings the subsets visited to {visited}, over the budget "
                              f"of {SUBSET_BUDGET}")
        yield (s for s in map(frozenset, combinations(system.universe, size))
               if is_constrained(system, s))


@dataclass(frozen=True)
class FractionTable:
    """Exact fractions ``p_1..p_L`` and ``q_1..q_L``.

    ``p`` is non-increasing and ``q`` non-decreasing by definition; both are
    validated.
    """

    p: tuple
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(Fraction(x) for x in self.p))
        object.__setattr__(self, "q", tuple(Fraction(x) for x in self.q))
        if len(self.p) != len(self.q):
            raise ValueError("p and q must have the same length")
        if any(a < b for a, b in zip(self.p, self.p[1:])):
            raise ValueError("p must be non-increasing")
        if any(a > b for a, b in zip(self.q, self.q[1:])):
            raise ValueError("q must be non-decreasing")

    def p_at(self, i: int) -> Fraction:
        """``p_i`` (1-based)."""
        return self.p[count("i", i, 1) - 1]

    def q_at(self, i: int) -> Fraction:
        """``q_i`` (1-based)."""
        return self.q[count("i", i, 1) - 1]


def _fractions(system: GoodnessSystem, up_to: int, probe: bool = False):
    """Yield ``(p_i, q_i, found_i)`` for ``i = 1..up_to`` as size ``i`` is enumerated;
    with ``probe``, ``found_i`` iff one of its sets is mutually good (tested in walk
    order up to the first hit), else nothing is tested and it is ``False``.  The
    budget is charged per size reached, the empty set's included."""
    n = system.size
    fewest_good, most_rejected = n, 0
    # The empty set counts at every i: f(empty) is the universe, h(empty) need not be empty.
    for size, sets in enumerate(_constrained_sets(system, range(up_to + 1))):
        found = False
        for s in sets:
            fewest_good = min(fewest_good, len(system.f(s)))
            most_rejected = max(most_rejected, len(h_set(system, s)))
            found = found or (probe and is_mutually_good(system, s))
        if size:
            yield Fraction(fewest_good, n), Fraction(most_rejected, n), found


def fraction_table(system: GoodnessSystem, up_to: int) -> FractionTable:
    """Exact ``p_i``/``q_i`` for ``i = 1..up_to`` in a single enumeration.

    ``p_i`` is the minimum of ``|f(I)| / N`` and ``q_i`` the maximum of
    ``|h(I)| / N`` over all B-constrained sets ``I`` with ``|I| <= i``, the
    empty set included.  Past :data:`SUBSET_BUDGET` subsets it raises
    :class:`BudgetError`.
    """
    up_to = count("up_to", up_to, 1)
    if up_to > system.size:
        raise ValueError(f"up_to must be at most {system.size}, got {up_to}")
    p, q, _ = zip(*_fractions(system, up_to))
    return FractionTable(p=p, q=q)


def existence_violations(system: GoodnessSystem) -> tuple[list[dict], int]:
    """For every ``L`` with exact ``p[L-1] > q[L-1]``, require a mutually good
    constrained set of cardinality ``L``, read off the fractions' own walk of size
    ``L``: each size is enumerated once, under :data:`SUBSET_BUDGET`.

    Returns the violations (each a dict with the failing ``L`` and the
    fractions) and the number of cardinalities at which the condition fired.
    """
    fired, violations = 0, []
    walk = _fractions(system, system.size, probe=True)
    p, q, _ = next(walk)
    for L in range(2, system.size + 1):
        if p <= q:  # p never increases and q never decreases, so no larger L fires
            break
        fired += 1
        violation = {"L": L, "p": str(p), "q": str(q), "N": system.size}
        p, q, found = next(walk)  # the walk of size L starts only once L has fired
        if not found:
            violations.append(violation)
    return violations, fired


def construction_success_bound(table: FractionTable, L: int) -> Fraction:
    """Iterated success bound ``prod_{j=2}^{L-1} (p_j - q_j) * (1 - q_1)``.

    By the convention that a single element is always a mutually good
    constrained set, the leading factor ``(1 - q_1)`` is taken as 1.  Each
    factor is clamped below at 0 (one exhausted factor makes the iterated
    bound vacuous, so the product must not recover sign).
    """
    L = count("L", L, 2)
    if L >= 3 and len(table.p) < L - 1:
        raise ValueError(f"table must cover indices up to {L - 1}")
    bound = Fraction(1)
    for j in range(2, L):
        bound *= max(Fraction(0), table.p_at(j) - table.q_at(j))
    return bound


def attempt_success_bound(table: FractionTable, n_universe: int, L: int) -> Fraction:
    """Per-attempt success bound for :func:`randomized_construct`:

    ``(1 - q_1) * prod_{j=1}^{L-1} max(0, p_j - q_j - j/N)``.

    Unlike :func:`construction_success_bound` this charges for the first
    element (definitional ``p_1``/``q_1``) and for drawing an element already
    chosen (the ``j/N`` term), so it lower-bounds the probability that a
    single batch of ``L`` uniform draws is distinct, mutually good, and
    constrained.  Valid on systems where adding a good, constraint-satisfying
    element never breaks the previously chosen elements' constraints; the
    graph and instance systems both have this property.
    """
    L, n_universe = count("L", L, 2), count("n_universe", n_universe, 1)
    if len(table.p) < L - 1:
        raise ValueError(f"table must cover indices up to {L - 1}")
    bound = max(Fraction(0), 1 - table.q_at(1))
    for j in range(1, L):
        bound *= max(Fraction(0), table.p_at(j) - table.q_at(j) - Fraction(j, n_universe))
    return bound


def randomized_construct(system: GoodnessSystem, L: int, max_restarts: int,
                         seed: int = 0) -> frozenset | None:
    """Try to draw a mutually good B-constrained set of cardinality ``L``.

    Each attempt draws ``L`` elements i.i.d. uniformly from the universe and
    succeeds iff they are pairwise distinct and the resulting set is mutually
    good and B-constrained.  All attempts are drawn in one
    ``(max_restarts, L)`` call, which yields the same rows as one call per
    attempt.  Returns the first success, else ``None``.  Deterministic under
    ``seed``.
    """
    L, max_restarts = count("L", L, 1), count("max_restarts", max_restarts, 1)
    if L > system.size:
        raise ValueError(f"L must be at most {system.size}, got {L}")
    for draws in generator(seed).integers(0, system.size, size=(max_restarts, L)).tolist():
        if len(set(draws)) < L:
            continue
        candidate = frozenset(system.universe[i] for i in draws)
        if is_mutually_good(system, candidate) and is_constrained(system, candidate):
            return candidate
    return None


def brute_force_mutually_good(system: GoodnessSystem, L: int) -> frozenset | None:
    """First mutually good B-constrained set of cardinality exactly ``L`` in
    lexicographic universe order, or ``None`` if none exists.  Past
    :data:`SUBSET_BUDGET` subsets it raises :class:`BudgetError`."""
    L = count("L", L, 0)
    if L > system.size:
        raise ValueError(f"L must be at most {system.size}, got {L}")
    sets, = _constrained_sets(system, [L])
    return next((s for s in sets if is_mutually_good(system, s)), None)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str  # "symmetry" or "intersection"
    s1: frozenset
    s2: frozenset


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a goodness-axiom check; ``ok`` iff no violations."""

    checked_pairs: int
    violations: tuple = field(default_factory=tuple)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated


_MAX_RECORDED_VIOLATIONS = 50


def check_goodness_axioms(system: GoodnessSystem, samples: int | None = None,
                          seed: int = 0) -> AxiomReport:
    """Verify the symmetry and intersection axioms over subset pairs.

    ``samples=None`` checks all unordered pairs (requires ``N <= 12``); a
    count checks that many uniformly drawn pairs, seeded by ``seed``, and
    requires ``N <= 63``.  The report lists violating pairs, truncated after
    the first 50, and counts the pairs checked up to that point.
    """
    seed = _seed(seed)
    n = system.size
    if samples is None and n > 12:
        raise ValueError("checking every pair requires N <= 12")
    if samples is not None:
        samples = count("samples", samples, 1)
        if n > 63:  # masks are drawn as int64
            raise ValueError(f"sampled pairs require N <= 63, got N={n}")
    elements = system.universe  # elements[i] is bit i of a mask
    index = {v: i for i, v in enumerate(elements)}
    total = 1 << n

    def subset(mask: int) -> frozenset:
        return frozenset(v for i, v in enumerate(elements) if mask >> i & 1)

    def f_mask(mask: int) -> int:
        return sum(1 << index[v] for v in system.f(subset(mask)))

    # each path yields a mask a with f(a), and arrays of masks b with f(b), f(a | b)
    def every_pair():
        f = np.array([f_mask(mask) for mask in range(total)], dtype=np.int64)
        masks = np.arange(total, dtype=np.int64)
        for a in range(total):
            yield a, f[a], masks[a:], f[a:], f[a | masks[a:]]

    def drawn_pairs():
        rng = generator(seed)
        for _ in range(samples):
            a = int(rng.integers(0, total))
            b = int(rng.integers(0, total))
            yield a, f_mask(a), *np.array([[b], [f_mask(b)], [f_mask(a | b)]], dtype=np.int64)

    checked, violations = 0, []
    for a, fa, b, fb, fab in every_pair() if samples is None else drawn_pairs():
        checked += b.size
        # symmetry: (a <= f(b)) must agree with (b <= f(a)); intersection: f(a | b) == f(a) & f(b)
        for axiom, bad in (("symmetry", ((a & ~fb) == 0) != ((b & ~fa) == 0)),
                           ("intersection", fab != (fa & fb))):
            violations += [AxiomViolation(axiom, subset(a), subset(int(b[i])))
                           for i in np.flatnonzero(bad)]
        if len(violations) > _MAX_RECORDED_VIOLATIONS:
            return AxiomReport(checked_pairs=checked,
                               violations=tuple(violations[:_MAX_RECORDED_VIOLATIONS]),
                               truncated=True)
    return AxiomReport(checked_pairs=checked, violations=tuple(violations))
