"""The orientation-first decision of ``recognize`` against its references.

``transitive_orientation`` is pinned to the orientation enumeration of the
oracles, to its own loop from before the forcing step moved into
``graphs._force_arcs``, and must orient every comparability graph; the
theorem step 2 rests on is checked at n = 6.  ``recognize``, which walks the
transitive orientations of Ḡ (step 3 of the ``recognition`` module doc), is
pinned to the first complete ordering of the ungated engine search.  It
decides each component with two or more vertices once, all before any
walk, and a rejecting decision calls nothing after it; ``apex_ordering``
decides per component too, and on a connected graph returns its decision's
ordering.  The least orderings of the graphs with n <= 6 are pinned by
digest.  The step-2 runs at the walk's leaves never backtrack on the
graphs with n <= 5 and never call ``satisfiable()``, a leaf that is not
transitive runs no step 2, nor does the decision's own orientation, and
two graphs that took earlier searches seconds are recognized well within
one.  The sweeps over n <= 6 read the session fixture ``graphs_up_to_six``
(``conftest.py``) unless they spy on the calls.
"""
import hashlib
import os
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings

from simpletri import recognition
from simpletri._bits import iter_bits
from simpletri.exhaustive import random_partial_order
from simpletri.graphs import (
    Graph,
    Orientation,
    cycle_graph,
    is_transitive_orientation,
    transitive_orientation,
)
from simpletri.io import load_graph
from simpletri.oracles import enumerate_orientations
from simpletri.orders import PartialOrder
from simpletri.recognition import check_apex_ordering, is_simple_triangle, recognize
from simpletri.twosat import IntervalFormula

from references import ungated_search
from strategies import graphs

SEED = 20261018


def fixture(name):
    return os.path.join(os.path.dirname(__file__), "fixtures", name)


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


def test_transitive_orientation_is_the_reference_loop_up_to_six(graphs_up_to_six):
    """On every graph with n <= 6, each the complement of one of them."""
    oriented = 0
    for facts in graphs_up_to_six:
        gc = facts.complement
        assert facts.t == reference_transitive_orientation(gc), sorted(gc.edges)
        oriented += facts.t is not None
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
                assert is_transitive_orientation(g, Orientation(g.n, t.succ))
    assert 0 < found < sum(len(graphs) for graphs in small_graphs.values())
    rng = random.Random(SEED)
    for _ in range(200):
        p = random_partial_order(rng, rng.randint(6, 10))
        g = Graph.from_edges(p.n, p.pairs)
        t = transitive_orientation(g)
        assert t is not None, sorted(g.edges)
        assert is_transitive_orientation(g, Orientation(g.n, t.succ))


def test_every_transitive_complement_orientation_extends_at_six(graphs_up_to_six):
    """Step 2 rejects a graph only when the ungated search rejects it too:
    on n = 6 that is the 60 labelings of the prism."""
    rejected = 0
    for facts in graphs_up_to_six:
        if facts.g.n == 6 and facts.t is not None and facts.decided is None:
            rejected += 1
            assert ungated_search(facts.g) is None, sorted(facts.g.edges)
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


# A connected graph whose walk reaches a leaf that is not transitive, found
# among seeded G(7, 0.4); no connected graph with n <= 6 has one.
INTRANSITIVE_LEAF_EDGES = [(0, 1), (0, 2), (0, 4), (0, 5), (0, 6), (1, 3), (2, 3), (3, 4),
                           (3, 5), (3, 6), (5, 6)]


def test_recognize_raises_when_an_acceptance_finds_no_ordering(monkeypatch):
    # the search at the walk's first leaf that runs step 2 finds nothing;
    # this connected graph has such a leaf besides T, and the decision's
    # step 2 runs its search in orders, unpatched
    g = Graph.from_edges(7, INTRANSITIVE_LEAF_EDGES)
    calls = []

    def leaf_finds_nothing(*args):
        calls.append(args)
        return iter(())

    monkeypatch.setattr(recognition, "search_orderings", leaf_finds_nothing)
    with pytest.raises(RuntimeError):
        recognize(g)
    assert len(calls) == 1


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
    """The calls that ``recognize`` makes, in order: ``"decided"`` when a
    decision (``recognition._decide``) returns, ``"rejected"`` after it when
    it rejects, and the name of each helper of the walk and of step 2 when
    it is called: ``_first_interval_extension`` is step 2 of a decision,
    ``search_orderings`` that of a leaf."""
    calls = []
    for name in ("_force_arcs", "_can_beat", "PartialOrder", "_first_interval_extension",
                 "search_orderings"):
        monkeypatch.setattr(recognition, name, spy(calls, name, getattr(recognition, name)))
    decide = recognition._decide

    def decided(g):
        result = decide(g)
        calls.append("decided")
        if result is None:
            calls.append("rejected")
        return result

    monkeypatch.setattr(recognition, "_decide", decided)
    return calls


def spy(calls, name, fn):
    def wrapper(*args):
        calls.append(name)
        return fn(*args)

    return wrapper


def after_decision(calls):
    """The calls after the last decision."""
    last = max((i for i, call in enumerate(calls) if call == "decided"), default=-1)
    return calls[last + 1:]


# sha256 of the repr of the list of least apex orderings (None if rejected)
# of every graph with n <= 6 in the order of all_graphs by vertex count
LEAST_ORDERINGS_UP_TO_SIX = "3e33da697b7257d47c03df0798b98e04c947db578964692f733bef00af64a67a"


def test_recognize_decides_at_most_once_and_rejects_by_the_decision_up_to_six(
        spied, graphs_up_to_six):
    """Each component with two or more vertices is decided once, all before
    the walk; a rejecting decision is the last and calls nothing after it.
    The least apex ordering is unique, so the digest of all 33,868 is
    pinned: any change to it is a defect."""
    walked = split = 0
    least = []
    for facts in graphs_up_to_six:
        g = facts.g
        parts = sum(comp & comp - 1 != 0 for comp in facts.components)
        spied.clear()
        got = recognize(g)
        assert (got is not None) == (facts.apex is not None), sorted(g.edges)
        walk = after_decision(spied)
        assert set(spied[:len(spied) - len(walk)]) <= {
            "_first_interval_extension", "decided"}, sorted(g.edges)
        if got is None:
            assert 1 <= spied.count("decided") <= parts, sorted(g.edges)
            assert walk == ["rejected"], sorted(g.edges)
        else:
            assert spied.count("decided") == parts, sorted(g.edges)
            walked += "_force_arcs" in walk
            split += parts > 1
        least.append(None if got is None else got[0])
    assert walked > 0 and split > 0
    assert hashlib.sha256(repr(least).encode()).hexdigest() == LEAST_ORDERINGS_UP_TO_SIX


@pytest.mark.parametrize("g", [
    Graph.from_edges(12, [*NAMED["prism"].edges, *((u, v) for v in range(6, 12) for u in range(v))]),
    Graph.from_edges(11, cycle_graph(5).edges),
], ids=["prism-6-universal", "c5-6-isolated"])
def test_recognize_rejects_by_the_decision_alone(g, spied):
    assert recognize(g) is None
    assert spied.count("decided") == 1 and after_decision(spied) == ["rejected"]


def test_recognize_runs_no_leaf_on_permutation_graphs(spied):
    """The inversion graphs of ``bench/corpora.permutation_graph``, naturally
    labelled: the cut ends the walk before Ḡ is fully oriented, so the
    decision's ordering is the least."""
    for n in range(16, 25):
        pi = list(range(n))
        random.Random(n).shuffle(pi)
        g = Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if pi[u] > pi[v]])
        spied.clear()
        assert recognize(g) is not None
        assert "_can_beat" in spied and "PartialOrder" not in spied, n


def test_walk_drops_an_intransitive_leaf(spied):
    """A leaf whose orientation of Ḡ is not transitive runs no step 2, and
    the answer is still the least apex ordering.  The graph is connected,
    so the walk runs on the whole of it."""
    g = Graph.from_edges(7, INTRANSITIVE_LEAF_EDGES)
    got = recognize(g)
    assert got is not None and got[0] == ungated_search(g)
    walk = after_decision(spied)
    assert walk.count("PartialOrder") > walk.count("search_orderings")


# An accepted graph whose walk reaches a leaf besides T where step 2's
# search refuses a branch, found among the graphs with n = 5.
LEAF_REFUSES_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 4), (3, 4)]


def test_leaf_search_calls_no_satisfiable(spied, least_backtracks, monkeypatch):
    """A leaf runs step 2's search without ``IntervalFormula.satisfiable``,
    also when that search refuses a branch, where the search of a decision
    calls it; the answer is still the least apex ordering."""
    monkeypatch.setattr(IntervalFormula, "satisfiable",
                        spy(spied, "satisfiable", IntervalFormula.satisfiable))
    g = Graph.from_edges(5, LEAF_REFUSES_EDGES)
    got = recognize(g)
    assert got is not None and got[0] == ungated_search(g)
    assert least_backtracks["searches"] > 0 and least_backtracks["refused"] > 0
    assert "satisfiable" not in after_decision(spied)


def test_walk_goes_deeper_than_the_recursion_limit():
    """A perfect matching on 100 vertices, relabelled, plus vertex 0 joined
    to all of them, so the walk runs on the whole graph: Ḡ is complete
    multipartite with 50 parts of two, plus 0 isolated, so it has 1,225
    implication classes, and the walk orients them one level each.  The
    least apex ordering takes 0 first, then the parts by their least label,
    each part in label order."""
    n = 100
    perm = list(range(1, n + 1))
    random.Random(n).shuffle(perm)
    parts = sorted(tuple(sorted(perm[2 * i:2 * i + 2])) for i in range(n // 2))
    g = Graph.from_edges(n + 1, parts + [(0, v) for v in range(1, n + 1)])
    assert recognize(g)[0] == (0, *(v for part in parts for v in part))


def relabelled_matching(n):
    """A perfect matching on n vertices relabelled by ``random.Random(n)``,
    and its parts, each sorted, in the order of their least vertex."""
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    parts = sorted(tuple(sorted(perm[2 * i:2 * i + 2])) for i in range(n // 2))
    return Graph.from_edges(n, parts), parts


def best_of_three(call, g):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        call(g)
        times.append(time.perf_counter() - start)
    return min(times)


def test_recognize_walks_each_part_of_a_relabelled_matching_apart(spied):
    """A perfect matching on 200 vertices, relabelled: each part is a
    component of its own, walked at a single node, so the walk forces arcs
    once per part.  Over the whole graph the walk took 0.41 s; the split
    takes about 0.03 s (2-vCPU x86-64 VM), timed here without the
    realization, best of three."""
    n = 200
    g, parts = relabelled_matching(n)
    assert recognize(g)[0] == tuple(v for part in parts for v in part)
    assert after_decision(spied).count("_force_arcs") == n // 2
    assert best_of_three(recognition.least_apex_ordering, g) < 0.1


def test_apex_ordering_decides_each_part_of_a_relabelled_matching_apart(spied):
    """The same matching: ``apex_ordering`` decides each part on its own, one
    decision per part, where deciding the whole graph took 0.036 s.  The
    split takes about 0.0015 s (2-vCPU x86-64 VM), best of three."""
    n = 200
    g, _ = relabelled_matching(n)
    got = recognition.apex_ordering(g)
    assert spied.count("decided") == n // 2
    assert check_apex_ordering(g, got)
    assert best_of_three(recognition.apex_ordering, g) < 0.1


def test_apex_ordering_of_a_connected_graph_is_its_decision_up_to_six(graphs_up_to_six):
    """A connected graph is decided whole, without relabelling, so its apex
    ordering is the ext(T) of its own decision."""
    connected = 0
    for facts in graphs_up_to_six:
        if len(facts.components) == 1:
            assert facts.apex == (
                None if facts.decided is None else facts.decided[1]), sorted(facts.g.edges)
            connected += 1
    assert connected == 27_476  # OEIS A001187, n = 1-6


def test_recognize_is_fast_on_a_sparse_graph_with_many_components():
    """The walk over the whole graph had not returned after 5 minutes on
    this graph (54 vertices, 25 edges, 29 components); walked per
    component it takes a few milliseconds."""
    g = load_graph(fixture("sparse-n54.edges"))
    start = time.perf_counter()
    got = recognize(g)
    assert time.perf_counter() - start < 1.0
    assert got is not None and check_apex_ordering(g, got[0])


def test_least_search_never_backtracks_up_to_five(small_graphs, least_backtracks):
    for n in range(6):
        for g in small_graphs[n]:
            recognize(g)
    assert least_backtracks["searches"] > 0 and least_backtracks["refused"] > 0
    assert least_backtracks["backtracks"] == 0


def test_least_search_is_fast_on_a_triangle_graph_with_20_vertices(least_backtracks):
    # the unpruned search takes more than 30 s on this graph
    g = load_graph(fixture("triangles-n20-s0.edges"))
    start = time.perf_counter()
    got = recognize(g)
    assert time.perf_counter() - start < 1.0
    assert got is not None and check_apex_ordering(g, got[0])
    assert least_backtracks["searches"] == 0  # its one leaf is the decision's T
    assert least_backtracks["backtracks"] == 0


def test_recognize_is_fast_on_a_relabelled_permutation_graph():
    # the rule search that the walk replaced took 2.6-3.8 s on this graph
    g = load_graph(fixture("permutation-n33-relabelled.edges"))
    start = time.perf_counter()
    got = recognize(g)
    assert time.perf_counter() - start < 1.0
    assert got[0] == (10, 17, 9, 20, 32, 14, 29, 4, 3, 8, 12, 22, 13, 0, 6, 19, 21, 2, 24, 5,
                      18, 30, 15, 25, 11, 26, 27, 31, 7, 16, 28, 1, 23)
