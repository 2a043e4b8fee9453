import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings

from simpletri.errors import NotApexOrdering, SizeMismatch
from simpletri.exhaustive import all_graphs
from simpletri.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    fulfills_c4_rule,
    is_cocomparability_ordering,
)
from simpletri.orders import make_partial_order
from simpletri.patterns import APEX_PATTERNS
from simpletri.recognition import (
    apex_ordering,
    check_apex_ordering,
    is_simple_triangle,
    least_apex_ordering,
    realize,
    recognize,
    rejection_certificates,
)
from simpletri.triangles import (
    TriangleRepresentation,
    order_to_triangles,
    triangles_disjoint,
    verify_representation,
)
from simpletri.orders import build_interval_representation

from references import PRISM_EDGES, avoids_apex_patterns
from strategies import graphs, triangle_graph

C4 = cycle_graph(4)
C5 = cycle_graph(5)
PRISM = Graph.from_edges(6, PRISM_EDGES)

CHAIN_TRIANGLES = TriangleRepresentation((1, 2, 3), ((1, 2), (3, 4), (5, 6)))


class TestTrianglesDisjoint:
    def test_separated(self):
        t = TriangleRepresentation((1, 2), ((1, 2), (3, 4)))
        assert triangles_disjoint(t, 0, 1)
        assert triangles_disjoint(t, 1, 0)

    def test_crossing_sides(self):
        t = TriangleRepresentation((1, 2), ((3, 4), (1, 2)))
        assert not triangles_disjoint(t, 0, 1)

    def test_overlapping_bases(self):
        t = TriangleRepresentation((1, 2), ((1, 3), (2, 4)))
        assert not triangles_disjoint(t, 0, 1)


class TestVerifyRepresentation:
    def test_chain_triangles_realize_empty_graph(self):
        assert verify_representation(empty_graph(3), CHAIN_TRIANGLES)

    def test_chain_triangles_do_not_realize_k3(self):
        assert not verify_representation(complete_graph(3), CHAIN_TRIANGLES)

    def test_two_plus_two_triangles_realize_c4(self):
        p = make_partial_order(4, [(0, 2), (1, 3)])
        rep = build_interval_representation(p, (0, 2, 1, 3))
        t = order_to_triangles((0, 2, 1, 3), rep)
        assert t.apex == (1, 3, 2, 4)
        assert verify_representation(C4, t)
        disjoint_pairs = {
            (u, v)
            for u in range(4)
            for v in range(u + 1, 4)
            if triangles_disjoint(t, u, v)
        }
        assert disjoint_pairs == {(0, 2), (1, 3)}

    def test_antichain_pair_triangles_intersect(self):
        p = make_partial_order(2, [])
        rep = build_interval_representation(p, (0, 1))
        t = order_to_triangles((0, 1), rep)
        assert t.apex == (1, 2) and t.base == ((1, 2), (1, 2))
        assert not triangles_disjoint(t, 0, 1)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            verify_representation(empty_graph(4), CHAIN_TRIANGLES)


class TestCheckApexOrdering:
    def test_c4(self):
        assert check_apex_ordering(C4, (0, 2, 1, 3))
        assert not check_apex_ordering(C4, (0, 1, 2, 3))

    def test_complete_graph_accepts_everything(self):
        k4 = complete_graph(4)
        for sigma in permutations(range(4)):
            assert check_apex_ordering(k4, sigma)

    def test_matches_condition_pair(self):
        """Building and the condition pair (cocomparability and the C4 rule)
        both say what the tuple scan for cpc, p1 and p2 says."""
        for g in all_graphs(4):
            for sigma in permutations(range(4)):
                scanned = avoids_apex_patterns(g, sigma)
                assert check_apex_ordering(g, sigma) == scanned, (sorted(g.edges), sigma)
                assert (
                    is_cocomparability_ordering(g, sigma) and fulfills_c4_rule(g, sigma)
                ) == scanned, (sorted(g.edges), sigma)

    def test_apex_ordering_of_a_300_vertex_triangle_draw_is_checked_fast(self):
        """Checking by building takes a few milliseconds where the O(n³)
        pattern scans took 0.24-0.41 s on a 2-vCPU x86-64 VM."""
        g = triangle_graph(random.Random(300), 300)
        sigma = apex_ordering(g)
        start = time.perf_counter()
        assert check_apex_ordering(g, sigma)
        assert time.perf_counter() - start < 0.1


class TestRecognize:
    def test_c4(self):
        ordering, rep = recognize(C4)
        assert ordering == (0, 2, 1, 3)
        assert verify_representation(C4, rep)

    def test_2k2(self):
        g = Graph.from_edges(4, [(0, 2), (1, 3)])
        ordering, rep = recognize(g)
        assert ordering == (0, 2, 1, 3)
        assert verify_representation(g, rep)

    def test_c5_rejected(self):
        assert recognize(C5) is None
        for sigma in permutations(range(5)):
            assert not check_apex_ordering(C5, sigma)

    def test_prism_rejected(self):
        assert recognize(PRISM) is None

    def test_empty_and_trivial(self):
        assert recognize(empty_graph(0))[0] == ()
        assert recognize(empty_graph(1))[0] == (0,)

    def test_lexicographically_least(self):
        for g in all_graphs(4):
            got = recognize(g)
            accepted = [
                sigma
                for sigma in permutations(range(4))
                if check_apex_ordering(g, sigma)
            ]
            if accepted:
                assert got is not None and got[0] == accepted[0]
            else:
                assert got is None

    @given(graphs(max_n=5))
    @settings(max_examples=150)
    def test_accepted_output_verifies(self, g):
        got = recognize(g)
        if got is not None:
            ordering, rep = got
            assert verify_representation(g, rep)
            assert is_cocomparability_ordering(g, ordering)


def test_least_apex_ordering_is_what_recognize_realizes(small_graphs, recognition_results):
    for n in range(6):
        for g, rec in zip(small_graphs[n], recognition_results[n]):
            ordering = least_apex_ordering(g)
            assert ordering == (None if rec is None else rec[0]), sorted(g.edges)
            if ordering is not None:
                assert verify_representation(g, realize(g, ordering))


class TestApexOrdering:
    def test_decides_and_realizes_every_small_graph(self, small_graphs):
        """None exactly on rejection, else an apex ordering that realizes g."""
        for n in range(6):
            for g in small_graphs[n]:
                ordering = apex_ordering(g)
                assert (ordering is not None) == is_simple_triangle(g), sorted(g.edges)
                if ordering is not None:
                    assert check_apex_ordering(g, ordering), (sorted(g.edges), ordering)
                    assert verify_representation(g, realize(g, ordering))


class TestRejectionCertificates:
    def test_c5_certificates_are_real_patterns(self):
        certs = list(rejection_certificates(C5))
        assert certs
        by_name = dict(APEX_PATTERNS)
        for prefix, name, verts in certs:
            assert verts[-1] == prefix[-1]
            pat = by_name[name]
            adj = C5.adj
            assert all(
                adj[verts[i]] >> verts[j] & 1 for i, j in pat.required_edges
            )
            assert not any(
                adj[verts[i]] >> verts[j] & 1 for i, j in pat.required_non_edges
            )


class TestRealize:
    def test_c4_fixture(self):
        t = realize(C4, (0, 2, 1, 3))
        assert t.apex == (1, 3, 2, 4)
        assert t.base == ((1, 4), (1, 2), (5, 6), (3, 4))
        assert verify_representation(C4, t)

    def test_empty_graph_chain(self):
        t = realize(empty_graph(3), (0, 1, 2))
        assert t.base == ((1, 2), (3, 4), (5, 6))
        assert all(
            triangles_disjoint(t, u, v) for u in range(3) for v in range(u + 1, 3)
        )

    def test_k3_single_pass(self):
        t = realize(complete_graph(3), (1, 0, 2))
        assert t.base == ((1, 2), (1, 2), (1, 2))
        assert verify_representation(complete_graph(3), t)

    def test_apex_order_coincides(self):
        sigma = (0, 2, 1, 3)
        t = realize(C4, sigma)
        by_apex = sorted(range(4), key=lambda v: t.apex[v])
        assert tuple(by_apex) == sigma

    def test_bad_ordering_raises(self):
        with pytest.raises(NotApexOrdering):
            realize(C4, (0, 1, 2, 3))

    def test_raises_exactly_on_non_apex_orderings(self, small_graphs):
        """realize checks by building: it raises NotApexOrdering exactly when
        the tuple scan finds cpc, p1 or p2, and otherwise realizes with apex
        order σ."""
        rng = random.Random(20)
        corpus = [g for n in range(5) for g in small_graphs[n]]
        for n in (5, 6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            corpus += [
                Graph(n, frozenset(e for e in pairs if rng.random() < 0.5))
                for _ in range(40)
            ]
        for g in corpus:
            for sigma in permutations(range(g.n)):
                try:
                    t = realize(g, sigma)
                except NotApexOrdering:
                    assert not avoids_apex_patterns(g, sigma), (sorted(g.edges), sigma)
                    continue
                assert avoids_apex_patterns(g, sigma), (sorted(g.edges), sigma)
                assert verify_representation(g, t)
                assert tuple(sorted(range(g.n), key=t.apex.__getitem__)) == sigma
