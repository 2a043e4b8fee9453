"""The orientation-first decision of ``recognize`` against its references.

``transitive_orientation`` is pinned to the orientation enumeration of the
oracles, to its own loop from before the forcing step moved into
``graphs._force_arcs``, and must orient every comparability graph; the
theorem step 2 rests on is checked at n = 6.  ``recognize``, whose search
runs with the rule of step 3, is pinned to the first complete ordering of
the ungated engine search, its search to no backtrack on the graphs with
n <= 5, and to well under a second on a triangle graph that took the
unpruned search more than 30 s.  Its decision runs at most once, at the
first dead branch of the search, and never where the search meets none.
"""
import os
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings

from simpletri import recognition
from simpletri._bits import iter_bits
from simpletri.exhaustive import all_graphs, random_partial_order
from simpletri.graphs import (
    APEX_PATTERNS,
    Graph,
    Orientation,
    complement,
    cycle_graph,
    empty_graph,
    is_transitive_orientation,
    transitive_orientation,
)
from simpletri.io import load_graph
from simpletri.oracles import enumerate_orientations
from simpletri.orders import PartialOrder, _first_interval_extension
from simpletri.patterns import PatternRule, search_orderings
from simpletri.recognition import check_apex_ordering, is_simple_triangle, recognize

from strategies import graphs

SEED = 20261018


def ungated_search(g):
    """First ordering the engine clears without the decision step, or None."""
    search = search_orderings((0,) * g.n, PatternRule(g.adj, APEX_PATTERNS))
    return next((o for o, hit in search if hit is None), None)


def reference_transitive_orientation(g):
    """``transitive_orientation`` as it was with its forcing loop inline,
    each class closed in arc masks of its own."""
    rem = list(g.adj)
    succ = [0] * g.n
    for u, v in sorted(g.edges):
        if not rem[u] >> v & 1:
            continue
        out, into = [0] * g.n, [0] * g.n
        out[u], into[v] = 1 << v, 1 << u
        members = 1 << u | 1 << v
        stack = [(u, v)]
        while stack:
            a, b = stack.pop()
            heads = rem[a] & ~rem[b] & ~(1 << b)
            tails = rem[b] & ~rem[a] & ~(1 << a)
            if heads & into[a] or tails & out[b]:
                return None
            heads &= ~out[a]
            tails &= ~into[b]
            out[a] |= heads
            into[b] |= tails
            members |= heads | tails
            for c in iter_bits(heads):
                into[c] |= 1 << a
                stack.append((a, c))
            for c in iter_bits(tails):
                out[c] |= 1 << b
                stack.append((c, b))
        for x in iter_bits(members):
            rem[x] &= ~(out[x] | into[x])
            succ[x] |= out[x]
    return PartialOrder(g.n, tuple(succ))


def test_transitive_orientation_is_the_reference_loop_up_to_six():
    oriented = 0
    for n in range(7):
        for g in all_graphs(n):
            t = transitive_orientation(g)
            assert t == reference_transitive_orientation(g), sorted(g.edges)
            oriented += t is not None
    assert 0 < oriented < 33868


def test_transitive_orientation_matches_enumeration(small_graphs):
    found = 0
    for n in range(6):
        for g in small_graphs[n]:
            t = transitive_orientation(g)
            expected = next(enumerate_orientations(g, "transitive"), None)
            assert (t is None) == (expected is None), sorted(g.edges)
            if t is not None:
                found += 1
                assert len(t.pairs) == len(g.edges)
                assert is_transitive_orientation(g, Orientation(g.n, t.pairs))
    assert 0 < found < sum(len(graphs) for graphs in small_graphs.values())
    rng = random.Random(SEED)
    for _ in range(200):
        p = random_partial_order(rng, rng.randint(6, 10))
        g = Graph.from_edges(p.n, p.pairs)
        t = transitive_orientation(g)
        assert t is not None, sorted(g.edges)
        assert is_transitive_orientation(g, Orientation(g.n, t.pairs))


def test_every_transitive_complement_orientation_extends_at_six():
    """Step 2 rejects a graph only when the ungated search rejects it too:
    on n = 6 that is the 60 labelings of the prism."""
    rejected = 0
    for g in all_graphs(6):
        t = transitive_orientation(complement(g))
        if t is not None and _first_interval_extension(t) is None:
            rejected += 1
            assert ungated_search(g) is None, sorted(g.edges)
    assert rejected == 60


def test_recognize_is_the_ungated_search_on_small_graphs(small_graphs, recognition_results):
    for n in range(6):
        for g, rec in zip(small_graphs[n], recognition_results[n]):
            assert (None if rec is None else rec[0]) == ungated_search(g), sorted(g.edges)


def test_recognize_is_the_ungated_search_on_random_graphs():
    rng = random.Random(SEED)
    outcomes = set()
    for _ in range(40):
        n = rng.randint(7, 9)
        density = rng.uniform(0.2, 0.8)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        )
        expected = ungated_search(g)
        got = recognize(g)
        assert (None if got is None else got[0]) == expected, sorted(g.edges)
        assert is_simple_triangle(g) == (expected is not None)
        outcomes.add(expected is None)
    assert outcomes == {False, True}


def test_recognize_raises_when_an_acceptance_finds_no_ordering(monkeypatch):
    monkeypatch.setattr(recognition, "is_simple_triangle", lambda g: True)
    with pytest.raises(RuntimeError):
        recognize(cycle_graph(5))


# Rejected by the decision: the prism at step 2 (its complement C6 orients,
# and that orientation has no extension without a 4-anticycle), C5 plus an
# isolated or a universal vertex and C6 at step 1.  Accepted: the graph on
# which fixing the free implication classes greedily missed the least
# ordering (ROADMAP).
NAMED = {
    "prism": Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                                  (0, 3), (1, 4), (2, 5)]),
    "c5-isolated": Graph.from_edges(6, cycle_graph(5).edges),
    "c5-universal": Graph.from_edges(6, list(cycle_graph(5).edges) + [(v, 5) for v in range(5)]),
    "c6": cycle_graph(6),
    "greedy-class-miss": Graph.from_edges(9, [(1, 5), (1, 8), (2, 7), (3, 5), (4, 5), (4, 6),
                                              (4, 8), (5, 8), (6, 8)]),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_recognize_is_the_ungated_search_on_named_graphs(name):
    g = NAMED[name]
    got = recognize(g)
    assert (None if got is None else got[0]) == ungated_search(g)
    if name == "greedy-class-miss":
        assert got[0] == (0, 2, 7, 3, 1, 4, 5, 6, 8)


@given(graphs(min_n=7, max_n=9))
@settings(max_examples=150, deadline=None)
def test_recognize_is_the_ungated_search_on_hypothesis_graphs(g):
    got = recognize(g)
    assert (None if got is None else got[0]) == ungated_search(g)


@pytest.fixture
def spied(monkeypatch):
    """Counts of the rule's ``place`` calls and of its refusals by ``into``,
    and the ``place`` count at each call of the decision in ``recognize``."""
    counts = {"place": 0, "into": 0, "decided_at": []}

    class Spied(recognition._LeastOrderingRule):
        def place(self, v, unplaced):
            counts["place"] += 1
            counts["into"] += self.into[v] & unplaced != 0
            return super().place(v, unplaced)

    def decide(g):
        counts["decided_at"].append(counts["place"])
        return is_simple_triangle(g)

    monkeypatch.setattr(recognition, "_LeastOrderingRule", Spied)
    monkeypatch.setattr(recognition, "is_simple_triangle", decide)
    return counts


def recognize_spied(g, counts):
    counts.update(place=0, into=0, decided_at=[])
    return recognize(g)


def test_recognize_decides_at_most_once_and_rejects_by_the_decision_up_to_six(spied):
    """Rejections are decided within n² placements; a search that refuses
    only by ``into``, a precedence, runs no decision."""
    undecided_with_into = 0
    for n in range(7):
        for g in all_graphs(n):
            got = recognize_spied(g, spied)
            assert (got is None) == (not is_simple_triangle(g)), sorted(g.edges)
            assert len(spied["decided_at"]) <= 1, sorted(g.edges)
            if got is None:
                assert spied["decided_at"] and spied["decided_at"][0] <= n * n, sorted(g.edges)
            else:
                undecided_with_into += spied["into"] > 0 and not spied["decided_at"]
    assert undecided_with_into > 0


@pytest.mark.parametrize("g", [
    Graph.from_edges(12, [*NAMED["prism"].edges, *((u, v) for v in range(6, 12) for u in range(v))]),
    Graph.from_edges(11, cycle_graph(5).edges),
], ids=["prism-6-universal", "c5-6-isolated"])
def test_recognize_rejects_within_n_squared_placements(g, spied):
    assert recognize_spied(g, spied) is None
    assert len(spied["decided_at"]) == 1 and spied["decided_at"][0] <= g.n ** 2


def test_recognize_never_decides_on_permutation_graphs(spied):
    """The inversion graphs of ``bench/corpora.permutation_graph``, naturally
    labelled: the search places n vertices and meets no dead branch."""
    for n in range(16, 25):
        pi = list(range(n))
        random.Random(n).shuffle(pi)
        g = Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if pi[u] > pi[v]])
        assert recognize_spied(g, spied) is not None
        assert spied["decided_at"] == [], n


def test_least_search_never_backtracks_up_to_five(small_graphs, least_backtracks):
    for n in range(6):
        for g in small_graphs[n]:
            recognize(g)
    assert least_backtracks["refused"] > 0
    assert least_backtracks["backtracks"] == 0


def test_least_search_is_fast_on_a_triangle_graph_with_20_vertices(least_backtracks):
    # the unpruned search takes more than 30 s on this graph
    g = load_graph(os.path.join(os.path.dirname(__file__), "fixtures", "triangles-n20-s0.edges"))
    start = time.perf_counter()
    got = recognize(g)
    assert time.perf_counter() - start < 1.0
    assert got is not None and check_apex_ordering(g, got[0])
    assert least_backtracks["searches"] == 1
    assert least_backtracks["backtracks"] == 0


def test_least_search_pattern_check_never_hits_cpc(small_graphs, recognition_results, monkeypatch):
    """The least search checks p1 and p2 only: asked for cpc too, its
    pattern rule records no cpc hit on any graph with n <= 5, since
    Γ-forcing has already refused the middle vertex of every cpc.  No
    pattern refuses anything there, so a graph with n = 6 on which p1 and
    p2 do shows that the check is live."""
    hits = []

    class AllThree(PatternRule):
        def __init__(self, adj, patterns):
            super().__init__(adj, APEX_PATTERNS)

        def place(self, v, unplaced):
            token = super().place(v, unplaced)
            if token is None:
                hits.append(self.hit[0])
            return token

    monkeypatch.setattr(recognition, "PatternRule", AllThree)
    for n in range(6):
        for g, rec in zip(small_graphs[n], recognition_results[n]):
            assert recognize(g) == rec, sorted(g.edges)
    assert hits == []
    pruned = Graph.from_edges(6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (2, 4),
                                  (2, 5), (3, 4)])
    recognize(pruned)
    assert hits and "cpc" not in hits


def test_least_search_asks_no_pattern_past_the_handoff(small_graphs, monkeypatch):
    """Once the rule holds a 2-SAT formula, it never asks its pattern rule."""
    asked = {"placements past the hand-off": 0, "patterns": 0, "patterns past it": 0}

    class Spied(recognition._LeastOrderingRule):
        def __init__(self, g):
            super().__init__(g)
            check = self.patterns.place

            def spy(v, unplaced):
                asked["patterns"] += 1
                asked["patterns past it"] += self.formula is not None
                return check(v, unplaced)

            self.patterns.place = spy

        def place(self, v, unplaced):
            asked["placements past the hand-off"] += self.formula is not None
            return super().place(v, unplaced)

    monkeypatch.setattr(recognition, "_LeastOrderingRule", Spied)
    for n in range(6):
        for g in small_graphs[n]:
            recognize(g)
    recognize(load_graph(os.path.join(os.path.dirname(__file__), "fixtures", "triangles-n20-s0.edges")))
    assert asked["placements past the hand-off"] > 0 and asked["patterns"] > 0
    assert asked["patterns past it"] == 0


def test_rule_refuses_an_intransitive_complete_orientation():
    # no search checked so far has reached one, so the orientation is set by
    # hand: the complement of the empty graph on three vertices, oriented as
    # the cycle 0 -> 1 -> 2 -> 0
    rule = recognition._LeastOrderingRule(empty_graph(3))
    rule.out[:], rule.into[:] = [0b010, 0b100, 0b001], [0b100, 0b001, 0b010]
    assert rule._formula(0, 0b110) is None
