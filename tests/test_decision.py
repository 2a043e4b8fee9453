"""The orientation-first decision of ``recognize`` against its references.

``transitive_orientation`` is pinned to the orientation enumeration of the
oracles and must orient every comparability graph, the theorem step 2 rests
on is checked at n = 6, and ``recognize`` is pinned to the first complete
ordering of the ungated engine search.
"""
import random

import pytest

from simpletri import recognition
from simpletri.exhaustive import all_graphs, random_partial_order
from simpletri.graphs import (
    APEX_PATTERNS,
    Graph,
    Orientation,
    complement,
    cycle_graph,
    is_transitive_orientation,
    transitive_orientation,
)
from simpletri.oracles import enumerate_orientations
from simpletri.orders import _first_interval_extension
from simpletri.patterns import search_orderings
from simpletri.recognition import is_simple_triangle, recognize

SEED = 20261018


def ungated_search(g):
    """First ordering the engine clears without the decision step, or None."""
    search = search_orderings(g.adj, (0,) * g.n, APEX_PATTERNS)
    return next((o for o, hit in search if hit is None), None)


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
