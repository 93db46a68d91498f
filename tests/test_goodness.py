"""Goodness systems: axioms, fractions, bounds, constructors, oracles."""

import dataclasses
import itertools
from fractions import Fraction
from math import comb, nan

import pytest

from niceset import (BudgetError, ConflictSpec, FractionTable, GoodnessSystem,
                     attempt_success_bound, brute_force_mutually_good,
                     check_goodness_axioms, construction_success_bound,
                     derive_seed, existence_violations, fraction_table,
                     goodness, graph_system, h_set, instance_system,
                     is_constrained, is_mutually_good, is_nice,
                     randomized_construct, sample_instance,
                     system_from_singletons)

from niceset.rng import generator

from .conftest import edge_adjacency, edgeless_system, mutually_good_by_definition


def random_instance_system(seed, n_max=8):
    """Random instance-backed system, as the verification sweep generates them."""
    import numpy as np
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    p = float(rng.uniform(0.05, 0.95))
    k = int(rng.integers(0, min(3, n)))
    spec = ConflictSpec.uniform(k)
    inst = sample_instance(n, p, spec, seed=derive_seed(seed, 1))
    return instance_system(inst), inst


# ----------------------------------------------------------------- system type

def test_system_validation():
    U = (1, 2, 3)
    with pytest.raises(ValueError):
        GoodnessSystem(universe=(1, 1, 2), f=lambda s: frozenset(U), g=lambda x, s: True)
    with pytest.raises(ValueError):  # f(empty) must be the whole universe
        GoodnessSystem(universe=U, f=lambda s: frozenset(), g=lambda x, s: True)
    with pytest.raises(ValueError, match="universe must be non-empty"):
        GoodnessSystem(universe=(), f=lambda s: frozenset(), g=lambda x, s: True)


def test_graph_system_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError):
        graph_system({1: {2}, 2: set()})


# -------------------------------------------------------------------------- f

def test_good_set_examples(path_system):
    assert path_system.f(frozenset({2})) == frozenset({2, 4})
    assert path_system.f(frozenset()) == frozenset({1, 2, 3, 4})
    e = edgeless_system(4)
    for s in [set(), {1}, {1, 2, 3}]:
        assert e.f(frozenset(s)) == frozenset({1, 2, 3, 4})


def test_good_set_keeps_own_members_when_not_adjacent(path_system):
    # 1 is not adjacent to itself or 3, so it stays good for {1, 3}
    assert 1 in path_system.f(frozenset({1, 3}))


# ------------------------------------------------------------- mutually good

def test_is_mutually_good_examples(path_system):
    assert is_mutually_good(path_system, {3})
    assert is_mutually_good(path_system, {1, 3})
    assert not is_mutually_good(path_system, {1, 2})


def test_pairwise_matches_subset_definition_on_random_systems():
    for seed in range(12):
        system, _ = random_instance_system(seed)
        universe = system.universe
        for size in range(min(5, len(universe)) + 1):
            for combo in itertools.combinations(universe, size):
                s = frozenset(combo)
                assert is_mutually_good(system, s) == \
                    mutually_good_by_definition(system, s)


# ----------------------------------------------------------------- constraint

def test_is_constrained_examples(path_system):
    assert is_constrained(path_system, {1, 3})
    assert not is_constrained(path_system, {2, 3})
    assert is_constrained(path_system, set())


def test_h_set_examples(path_system, k4_system):
    assert h_set(path_system, {2}) == frozenset({1, 3})
    assert h_set(path_system, set()) == frozenset()
    assert h_set(k4_system, {1}) == frozenset({2, 3, 4})


# ------------------------------------------------------------------ fractions

def test_compute_p_examples(path_system, k4_system):
    # p_i, read from fraction_table
    assert fraction_table(path_system, 1).p_at(1) == Fraction(1, 2)
    assert fraction_table(edgeless_system(5), 3).p_at(3) == 1
    assert fraction_table(k4_system, 1).p_at(1) == Fraction(1, 4)


def test_compute_q_examples(path_system, k4_system):
    # q_i, read from fraction_table
    assert fraction_table(path_system, 1).q_at(1) == Fraction(1, 2)
    assert fraction_table(edgeless_system(5), 3).q_at(3) == 0
    assert fraction_table(k4_system, 1).q_at(1) == Fraction(3, 4)


# over 35 elements, sizes 0..2 hold 631 subsets and size 3 another 6545, so
# with the budget patched to 1000 every enumeration that reaches size 3 is
# refused, as the verify-lemma sweep is on its 35-element system
OVER = "^enumerating the subsets of size 3 over 35 elements brings the subsets visited to"


def test_fraction_bounds_validation(monkeypatch, path_system):
    with pytest.raises(ValueError):
        fraction_table(path_system, 0)
    with pytest.raises(ValueError):
        fraction_table(path_system, 5)
    monkeypatch.setattr(goodness, "SUBSET_BUDGET", 1000)  # read at call time
    with pytest.raises(BudgetError, match=f"{OVER} 7176, over the budget of 1000$"):
        fraction_table(instance_system(sample_instance(35, 0.5, seed=0)), 3)
    for bad in (2.5, nan):
        with pytest.raises(TypeError):
            fraction_table(path_system, bad)


def test_fraction_table_matches_pointwise_and_is_monotone():
    for seed in range(8):
        system, _ = random_instance_system(seed + 100)
        up_to = system.size - 1 if system.size > 1 else 1
        table = fraction_table(system, up_to)
        for i in range(1, up_to + 1):
            shorter = fraction_table(system, i)
            assert (table.p[:i], table.q[:i]) == (shorter.p, shorter.q)
        assert all(a >= b for a, b in zip(table.p, table.p[1:]))
        assert all(a <= b for a, b in zip(table.q, table.q[1:]))


def test_fraction_table_counts_the_empty_set_in_q():
    # h(empty) = {1}: element 1 is rejected only while nothing is chosen, so
    # q_1 must be 1/4, which attempt_success_bound's (1 - q_1) factor needs
    universe = (1, 2, 3, 4)
    system = system_from_singletons(universe, {v: universe for v in universe},
                                    g=lambda x, chosen: not (x == 1 and not chosen))
    assert h_set(system, set()) == frozenset({1})
    assert fraction_table(system, 1).q_at(1) == Fraction(1, 4)
    table = fraction_table(system, 3)
    assert table.q == (Fraction(1, 4),) * 3
    assert table.p == (1, 1, 1)
    assert attempt_success_bound(table, 4, 2) == Fraction(3, 4) * Fraction(2, 4)


def test_fraction_table_type_validation():
    with pytest.raises(ValueError):
        FractionTable(p=(Fraction(1, 2), Fraction(3, 4)), q=(0, 0))  # p increases
    with pytest.raises(ValueError):
        FractionTable(p=(1, 1), q=(Fraction(1, 2), Fraction(1, 4)))  # q decreases
    with pytest.raises(ValueError):
        FractionTable(p=(1,), q=(0, 0))


# -------------------------------------------------------------- success bounds

def test_construction_success_bound_examples():
    table = FractionTable(p=(1, Fraction(3, 5)), q=(0, Fraction(1, 10)))
    assert construction_success_bound(table, 3) == Fraction(1, 2)
    assert construction_success_bound(table, 2) == 1            # empty product
    clamped = FractionTable(p=(1, Fraction(3, 10)), q=(0, Fraction(2, 5)))
    assert construction_success_bound(clamped, 3) == 0
    with pytest.raises(ValueError):
        construction_success_bound(table, 1)
    with pytest.raises(ValueError):
        construction_success_bound(table, 4)


def test_attempt_success_bound_cases(path_system):
    # path: p1 - q1 - 1/4 = 1/2 - 1/2 - 1/4 < 0, clamps to zero
    table = fraction_table(path_system, 3)
    assert attempt_success_bound(table, 4, 2) == 0
    # edgeless graph: q = 0, so the bound is exactly the distinctness factor
    e4 = edgeless_system(4)
    te = fraction_table(e4, 3)
    assert attempt_success_bound(te, 4, 2) == Fraction(3, 4)
    with pytest.raises(ValueError):
        attempt_success_bound(te, 4, 1)
    # the table covers p_1..p_3, one index short of L = 5
    with pytest.raises(ValueError, match="table must cover indices up to 4"):
        attempt_success_bound(te, 4, 5)


def test_attempt_bound_never_exceeds_construction_bound():
    for seed in range(10):
        system, _ = random_instance_system(seed + 300)
        if system.size < 3:
            continue
        table = fraction_table(system, system.size - 1)
        for L in range(2, system.size + 1):
            assert attempt_success_bound(table, system.size, L) <= \
                construction_success_bound(table, L)


# ------------------------------------------------------- randomized construct

def test_randomized_construct_on_path(path_system):
    found = randomized_construct(path_system, 2, max_restarts=50, seed=3)
    assert found in ({frozenset({1, 3}), frozenset({1, 4}), frozenset({2, 4})})
    assert randomized_construct(path_system, 2, max_restarts=50, seed=3) == found


def test_randomized_construct_trivial_systems(k4_system):
    e4 = edgeless_system(4)
    assert randomized_construct(e4, 4, max_restarts=200, seed=0) == frozenset({1, 2, 3, 4})
    for seed in range(10):
        assert randomized_construct(k4_system, 2, max_restarts=100, seed=seed) is None


@pytest.mark.parametrize("m", [1, 2, 3, 7, 60, 61, 800])
@pytest.mark.parametrize("L", [1, 2, 5, 13, 60])
def test_batched_draws_equal_sequential_draws(m, L):
    # randomized_construct and randomized_nice draw all restarts in one call;
    # their results match one call per restart only because of this property
    restarts = 9
    for seed in range(20):
        batched = generator(derive_seed(seed, L)).integers(0, m, size=(restarts, L))
        rng = generator(derive_seed(seed, L))
        sequential = [rng.integers(0, m, size=L) for _ in range(restarts)]
        assert batched.tolist() == [row.tolist() for row in sequential]


def test_randomized_construct_validation(path_system):
    with pytest.raises(ValueError):
        randomized_construct(path_system, 5, max_restarts=10)
    with pytest.raises(ValueError):
        randomized_construct(path_system, 2, max_restarts=0)
    for bad in (2.5, nan):
        with pytest.raises(TypeError):
            randomized_construct(path_system, bad, max_restarts=10)
        with pytest.raises(TypeError):
            randomized_construct(path_system, 2, max_restarts=bad)


def test_path_attempt_rate_matches_enumeration(path_system):
    # 6 of the 16 ordered pairs are distinct, non-adjacent, and constrained
    attempts = 2000
    hits = sum(
        randomized_construct(path_system, 2, max_restarts=1,
                             seed=derive_seed(555, t)) is not None
        for t in range(attempts))
    rate = hits / attempts
    sigma = (0.375 * 0.625 / attempts) ** 0.5
    assert abs(rate - 0.375) <= 3 * sigma


def test_attempt_rate_beats_bound_on_fixed_system():
    system, _ = random_instance_system(4242)
    n = system.size
    table = fraction_table(system, n - 1)
    L = min(3, n)
    if L < 2:
        pytest.skip("degenerate universe")
    bound = attempt_success_bound(table, n, L)
    attempts = 2000
    hits = sum(
        randomized_construct(system, L, max_restarts=1,
                             seed=derive_seed(31337, t)) is not None
        for t in range(attempts))
    rate = hits / attempts
    sigma = (max(rate * (1 - rate), 1e-6) / attempts) ** 0.5
    assert rate + 3 * sigma >= float(bound)


# ----------------------------------------------------------------- brute force

def test_brute_force_examples(monkeypatch, path_system, k4_system):
    assert brute_force_mutually_good(edgeless_system(4), 4) == frozenset({1, 2, 3, 4})
    assert brute_force_mutually_good(k4_system, 2) is None
    found = brute_force_mutually_good(path_system, 2)
    assert found in ({frozenset({1, 3}), frozenset({1, 4}), frozenset({2, 4})})
    monkeypatch.setattr(goodness, "SUBSET_BUDGET", 1000)  # read at call time
    with pytest.raises(BudgetError, match=f"{OVER} 6545, over the budget of 1000$"):
        brute_force_mutually_good(instance_system(sample_instance(35, 0.5, seed=0)), 3)
    with pytest.raises(ValueError, match="L must be at most 4, got 5"):
        brute_force_mutually_good(path_system, 5)
    for bad in (2.5, nan):
        with pytest.raises(TypeError):
            brute_force_mutually_good(path_system, bad)


@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_subset_budget_raises_exactly_past_the_closed_forms(monkeypatch, n):
    # fraction_table visits every size up to up_to, the empty set included;
    # brute force visits the one size L
    system = edgeless_system(n)
    for up_to in range(1, n + 1):
        total = sum(comb(n, j) for j in range(up_to + 1))
        monkeypatch.setattr(goodness, "SUBSET_BUDGET", total)
        assert len(fraction_table(system, up_to).p) == up_to
        monkeypatch.setattr(goodness, "SUBSET_BUDGET", total - 1)
        with pytest.raises(BudgetError, match=rf"over the budget of {total - 1}$"):
            fraction_table(system, up_to)
    for L in range(n + 1):
        monkeypatch.setattr(goodness, "SUBSET_BUDGET", comb(n, L))
        assert brute_force_mutually_good(system, L) is not None
        if comb(n, L) > 1:
            monkeypatch.setattr(goodness, "SUBSET_BUDGET", comb(n, L) - 1)
            with pytest.raises(BudgetError):
                brute_force_mutually_good(system, L)


@pytest.mark.parametrize("system", [edgeless_system(6), random_instance_system(7)[0]],
                         ids=["edgeless", "instance"])
def test_no_enumeration_visits_more_subsets_than_its_budget(monkeypatch, system):
    # the walk decides each subset it visits by one is_constrained call
    visited = []

    def counting(owner, s):
        visited.append(s)
        return is_constrained(owner, s)

    monkeypatch.setattr(goodness, "is_constrained", counting)
    n = system.size
    calls = [lambda i=i: fraction_table(system, i) for i in range(1, n + 1)]
    calls += [lambda L=L: brute_force_mutually_good(system, L) for L in range(n + 1)]
    for call in calls:
        for budget in range(1, 2 ** n + 1):
            monkeypatch.setattr(goodness, "SUBSET_BUDGET", budget)
            visited.clear()
            try:
                call()
            except BudgetError:
                pass
            assert len(visited) <= budget


def table_driven_system(seed, n):
    """Symmetric random goodness with a constraint value in ``E = {0, 1, 2}``
    read from a seeded table over every ``(x, I)`` and accepted in ``B``:
    ``g`` is neither hereditary nor empty on ``I = {}``."""
    rng = generator(seed)
    universe = tuple(range(1, n + 1))
    good = {v: {v} for v in universe}
    for u, v in itertools.combinations(universe, 2):
        if rng.random() < 0.7:
            good[u].add(v)
            good[v].add(u)
    table = {(x, frozenset(chosen)): int(rng.integers(0, 3))
             for size in range(n + 1) for chosen in itertools.combinations(universe, size)
             for x in universe}
    accepting = {0, 1} if seed % 2 else {0}
    return system_from_singletons(universe, good,
                                  lambda x, chosen: table[x, chosen] in accepting)


def reference_enumeration(system):
    """``p_i``/``q_i`` for ``i = 1..N`` and the lexicographically first mutually
    good constrained set of each size, from the definitions over all ``2**N``
    subsets."""
    universe, n = system.universe, system.size
    fewest_good, most_rejected, first = [n] * (n + 1), [0] * (n + 1), [None] * (n + 1)
    for mask in range(1 << n):
        positions = tuple(i for i in range(n) if mask >> i & 1)
        s = frozenset(universe[i] for i in positions)
        if not all(system.g(y, s - {y}) for y in s):
            continue
        k = len(s)
        fewest_good[k] = min(fewest_good[k], len(system.f(s)))
        most_rejected[k] = max(most_rejected[k],
                               sum(not system.g(x, s) for x in universe))
        if mutually_good_by_definition(system, s) and (first[k] is None
                                                        or positions < first[k][0]):
            first[k] = (positions, s)
    p = tuple(Fraction(min(fewest_good[:i + 1]), n) for i in range(1, n + 1))
    q = tuple(Fraction(max(most_rejected[:i + 1]), n) for i in range(1, n + 1))
    return p, q, [found and found[1] for found in first]


def test_enumerations_match_the_definitions():
    empty_h = 0
    for seed in range(102):
        rng = generator(derive_seed(707, seed))
        n = int(rng.integers(1, 10))
        kind = seed % 3
        if kind == 0:
            system, _ = random_instance_system(derive_seed(707, seed, 1), n_max=9)
        elif kind == 1:
            inst = sample_instance(n, float(rng.uniform(0.1, 0.9)), seed=derive_seed(707, seed, 2))
            system = graph_system(edge_adjacency(inst))
        else:
            system = table_driven_system(derive_seed(707, seed, 3), n)
            empty_h += bool(h_set(system, set()))
        p, q, first = reference_enumeration(system)
        table = fraction_table(system, system.size)
        assert (table.p, table.q) == (p, q), seed
        for L in range(system.size + 1):
            assert brute_force_mutually_good(system, L) == first[L], (seed, L)
    assert empty_h > 10  # the table-driven systems do reject elements at I = {}


def reference_existence_violations(system):
    """The existence sweep without its early stop: the whole table up to
    ``N - 1``, then brute force at every ``L`` where ``p[L-1] > q[L-1]``."""
    n = system.size
    if n < 2:
        return [], 0
    table = fraction_table(system, n - 1)
    fired, violations = 0, []
    for L in range(2, n + 1):
        p, q = table.p_at(L - 1), table.q_at(L - 1)
        if p > q:
            fired += 1
            if brute_force_mutually_good(system, L) is None:
                violations.append({"L": L, "p": str(p), "q": str(q), "N": n})
    return violations, fired


def test_existence_sweep_matches_the_full_table():
    # the 102 systems of test_enumerations_match_the_definitions
    empty_h = fired = 0
    for seed in range(102):
        rng = generator(derive_seed(707, seed))
        n = int(rng.integers(1, 10))
        kind = seed % 3
        if kind == 0:
            system, _ = random_instance_system(derive_seed(707, seed, 1), n_max=9)
        elif kind == 1:
            inst = sample_instance(n, float(rng.uniform(0.1, 0.9)), seed=derive_seed(707, seed, 2))
            system = graph_system(edge_adjacency(inst))
        else:
            system = table_driven_system(derive_seed(707, seed, 3), n)
            empty_h += bool(h_set(system, set()))
        expected = reference_existence_violations(system)
        assert existence_violations(system) == expected, seed
        fired += expected[1]
    assert empty_h > 10 and fired > 0


def test_existence_sweep_enumerates_each_size_once(monkeypatch):
    # the sweep walks sizes 0 and 1, then size L for every L that fired
    # (2..fired+1), and reads existence off that walk, not off brute force
    def refused(*args, **kwargs):
        raise AssertionError("the sweep called brute force")

    visited = []

    def counting(system, s):
        visited.append(s)
        return is_constrained(system, s)

    monkeypatch.setattr(goodness, "brute_force_mutually_good", refused)
    monkeypatch.setattr(goodness, "is_constrained", counting)
    fired_total = 0
    for seed in range(60):
        system, _ = random_instance_system(derive_seed(808, seed), n_max=9)
        visited.clear()
        _, fired = existence_violations(system)
        assert len(visited) == sum(comb(system.size, s) for s in range(fired + 2)), seed
        assert len(set(visited)) == len(visited), seed
        fired_total += fired
    assert fired_total > 0


def test_fraction_table_tests_no_set_for_mutual_goodness(monkeypatch):
    # only the existence sweep reads the walk's found flag
    system = instance_system(sample_instance(14, 0.5, seed=1))
    expected = fraction_table(system, 14)
    calls = []

    def counting(system, s):
        calls.append(s)
        return is_mutually_good(system, s)

    monkeypatch.setattr(goodness, "is_mutually_good", counting)
    assert fraction_table(system, 14) == expected
    assert calls == []
    existence_violations(system)
    assert calls  # the patch is seen: the sweep's probes are counted


def test_existence_sweep_stops_at_the_first_crossing():
    # star K_{1,4}: f({1}) = {1} gives p_1 = 1/5, h({1}) = {2, 3, 4, 5} gives
    # q_1 = 4/5, so no L fires and no set of two or more leaves is enumerated
    star = graph_system({1: {2, 3, 4, 5}, 2: {1}, 3: {1}, 4: {1}, 5: {1}})
    sizes = set()

    def recording_f(subset):
        sizes.add(len(subset))
        return star.f(subset)

    system = dataclasses.replace(star, f=recording_f)
    assert existence_violations(system) == ([], 0)
    assert max(sizes) == 1


# --------------------------------------------------------------- axiom checks

def test_axiom_check_clean_on_graph_systems():
    for seed in range(6):
        inst = sample_instance(2 + seed % 5, 0.5, seed=seed)
        assert check_goodness_axioms(graph_system(edge_adjacency(inst))).ok


def test_axiom_check_flags_identity_map():
    U = (1, 2, 3, 4)
    ident = GoodnessSystem(universe=U,
                           f=lambda s: frozenset(U) if not s else frozenset(s),
                           g=lambda x, s: True)
    report = check_goodness_axioms(ident)
    assert not report.ok
    assert any(v.axiom == "symmetry" for v in report.violations)


def test_axiom_check_accepts_complement_and_constant_maps():
    # U - S satisfies both axioms (it is the non-adjacency map of the
    # complete graph with self-loops ignored); the constant map trivially does
    U = (1, 2, 3, 4, 5)
    complement = GoodnessSystem(universe=U, f=lambda s: frozenset(U) - frozenset(s),
                                g=lambda x, s: True)
    assert check_goodness_axioms(complement).ok
    constant = GoodnessSystem(universe=U, f=lambda s: frozenset(U), g=lambda x, s: True)
    assert check_goodness_axioms(constant).ok


def test_axiom_check_sampled_mode_and_validation(path_system):
    assert check_goodness_axioms(path_system, samples=500, seed=1).ok
    big = edgeless_system(13)
    with pytest.raises(ValueError):
        check_goodness_axioms(big)
    assert check_goodness_axioms(big, samples=200, seed=0).ok
    # subset masks are drawn as int64, so 63 elements is the largest sampled universe
    assert check_goodness_axioms(edgeless_system(63), samples=20, seed=0).ok
    for n in (64, 70):
        with pytest.raises(ValueError, match=rf"^sampled pairs require N <= 63, got N={n}$"):
            check_goodness_axioms(edgeless_system(n), samples=20, seed=0)
    for bad in (2.5, nan):
        with pytest.raises(TypeError):
            check_goodness_axioms(path_system, samples=bad)
    for bad in (0, -5):  # a check of no pairs checks nothing; only None checks every pair
        with pytest.raises(ValueError, match="^samples must be at least 1$"):
            check_goodness_axioms(path_system, samples=bad)


def test_truncated_axiom_check_counts_the_pairs_it_checked():
    # f(S) = {min S} breaks both axioms on most pairs, so both checks stop at
    # the 51st violation, long before they run out of pairs
    U = tuple(range(1, 7))
    system = GoodnessSystem(universe=U, f=lambda s: frozenset([min(s)]) if s else frozenset(U),
                            g=lambda x, s: True)
    exhaustive = check_goodness_axioms(system)
    assert exhaustive.truncated and exhaustive.checked_pairs == 127
    sampled = check_goodness_axioms(system, samples=2000, seed=0)
    checked = sampled.checked_pairs
    assert sampled.truncated and 26 <= checked < 2000
    # a seed draws the same pairs whatever the sample count, so a run of
    # exactly that many pairs stops at the same pair, and one fewer does not stop
    assert check_goodness_axioms(system, samples=checked, seed=0) == sampled
    shorter = check_goodness_axioms(system, samples=checked - 1, seed=0)
    assert not shorter.truncated and shorter.checked_pairs == checked - 1


def test_intersection_identity_from_singletons():
    # f(I) equals the intersection of its singleton values, exhaustively
    for seed in range(5):
        system, _ = random_instance_system(seed + 900, n_max=8)
        universe = system.universe
        for size in range(1, len(universe) + 1):
            for combo in itertools.combinations(universe, size):
                expect = frozenset(universe)
                for v in combo:
                    expect &= system.f(frozenset([v]))
                assert system.f(frozenset(combo)) == expect


# ------------------------------------------------------------ instance system

def test_instance_system_matches_niceness_exhaustively():
    for seed in range(10):
        system, inst = random_instance_system(seed + 50, n_max=7)
        for mask in range(1 << inst.m):
            s = frozenset(v for v in range(1, inst.m + 1) if mask >> (v - 1) & 1)
            nice = is_nice(s, inst)
            assert (is_mutually_good(system, s) and is_constrained(system, s)) == nice


def reference_instance_system(inst):
    """The instance system with its singleton good sets built from one edge
    lookup per vertex pair, as ``instance_system`` once built them, and its
    constraint written from the definition of a closed conflict set."""
    vertices = tuple(range(1, inst.m + 1))
    closed = {v: inst.conflicts[v] | {v} for v in vertices}

    def has_edge(u, v):
        return (min(u, v), max(u, v)) in inst.edges

    def g(x, chosen: frozenset):
        return all(x not in closed[v] for v in chosen)

    singleton_good = {v: frozenset(u for u in vertices if not has_edge(u, v) or u == v)
                      for v in vertices}
    return system_from_singletons(vertices, singleton_good, g)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_instance_system_matches_the_pairwise_edge_builder(p):
    for n in range(1, 11):
        for k in range(min(2, n - 1) + 1):
            spec = ConflictSpec.uniform(k)
            for seed in range(3):
                inst = sample_instance(n, p, spec, seed=derive_seed(606, 100 * n + 10 * k + seed))
                system, reference = instance_system(inst), reference_instance_system(inst)
                assert system.universe == reference.universe
                for v in system.universe:
                    single = frozenset([v])
                    assert system.f(single) == reference.f(single)
                # the fractions read g on chosen sets of every size, not only singletons
                for size in range(4):
                    for chosen in map(frozenset, itertools.combinations(system.universe, size)):
                        for x in system.universe:
                            assert system.g(x, chosen) == reference.g(x, chosen)


def test_system_from_singletons_requires_empty_to_map_to_universe():
    with pytest.raises(ValueError):
        # singleton map cannot repair a broken empty-set convention
        GoodnessSystem(universe=(1, 2), f=lambda s: frozenset({1}), g=lambda x, s: True)
    system = system_from_singletons((1, 2), {1: {1, 2}, 2: {1, 2}}, g=lambda x, s: True)
    assert system.f(frozenset()) == frozenset({1, 2})
