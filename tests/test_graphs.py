from itertools import combinations, permutations
import random
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from simpletri._bits import iter_bits
from simpletri.errors import EdgeSetMismatch, NotComparabilityOrdering, SizeMismatch
from simpletri.exhaustive import all_graphs
from simpletri.graphs import (
    Graph,
    Orientation,
    PATTERN_CP,
    PATTERN_CPC,
    PATTERN_P1,
    PATTERN_P2,
    _touching_masks,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    find_pattern,
    fulfills_2k2_rule,
    fulfills_c4_rule,
    is_alternating_orientation,
    is_cocomparability_ordering,
    is_comparability_ordering,
    is_transitive_orientation,
    orient_complement_by_ordering,
    orientation_from_ordering,
    path_graph,
)
from simpletri.oracles import enumerate_orientations
from simpletri.orders import find_alternating_anticycle, is_linear_extension
from simpletri.patterns import C4_PATTERNS

from references import arcs_of, c4_rule_by_cycles, from_arcs, scan_pattern, union_is_acyclic
from strategies import edge_sets, graphs

C4 = cycle_graph(4)
ALL_PATTERNS = (PATTERN_CP, PATTERN_CPC, PATTERN_P1, PATTERN_P2, *(pat for _, pat in C4_PATTERNS))
TWO_K2 = Graph.from_edges(4, [(0, 2), (1, 3)])
P3 = path_graph(3)


class TestComplement:
    def test_c4_is_2k2(self):
        assert complement(C4) == TWO_K2

    def test_complete_is_empty(self):
        assert complement(complete_graph(4)) == empty_graph(4)

    @given(graphs(max_n=7))
    @settings(max_examples=100)
    def test_involution(self, g):
        back = complement(complement(g))
        assert back == g and hash(back) == hash(g) and back.edges == g.edges

    def test_is_the_pairwise_definition_up_to_six(self, graphs_up_to_six):
        for facts in graphs_up_to_six:
            g = facts.g
            pairs = {(u, v) for u, v in combinations(range(g.n), 2) if not g.adjacent(u, v)}
            assert facts.complement.edges == pairs, sorted(g.edges)


class TestMasks:
    """A graph holds its neighbour masks; ``edges`` is derived from them."""

    @given(edge_sets(max_n=7))
    @settings(max_examples=60)
    def test_edges_are_the_input_set(self, case):
        n, edges = case
        g = Graph(n, edges)
        assert g.edges == edges
        assert g == Graph.from_edges(n, [(v, u) for u, v in edges])
        assert all(g.adjacent(u, v) == ((min(u, v), max(u, v)) in edges) for u in range(n) for v in range(n))

    def test_rejects_pairs_that_are_not_normalized(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_rejects_a_negative_vertex_count(self):
        # as PartialOrder and Orientation do
        with pytest.raises(ValueError, match="negative"):
            Graph(-1, ())


class TestFindPattern:
    def test_c4_identity_has_p2(self):
        assert find_pattern(C4, (0, 1, 2, 3), PATTERN_P2) == (0, 1, 2, 3)

    def test_c4_apex_ordering_is_clean(self):
        for pat in (PATTERN_CPC, PATTERN_P1, PATTERN_P2):
            assert find_pattern(C4, (0, 2, 1, 3), pat) is None

    def test_p3_never_shows_cpc(self):
        # a single non-edge cannot supply the two absences the pattern needs
        for sigma in permutations(range(3)):
            assert find_pattern(P3, sigma, PATTERN_CPC) is None

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            find_pattern(C4, (0, 1, 2), PATTERN_CPC)

    def test_scan_order_is_positional(self):
        g = Graph.from_edges(5, [(0, 2), (0, 4)])
        # both (0, 1, 2) and (0, 1, 4) match cpc; the positionally first wins
        assert find_pattern(g, (0, 1, 2, 3, 4), PATTERN_CPC) == (0, 1, 2)

    def test_least_witness_over_all_second_to_last_positions(self):
        # (2, 3, 4) closes after position 3 and (0, 4, 5) only after
        # position 4, yet the later one is first in lexicographic order
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 5), (2, 4)])
        assert find_pattern(g, tuple(range(6)), PATTERN_CPC) == (0, 4, 5)

    def test_matches_the_tuple_scan_on_every_small_graph(self, small_graphs):
        """Each pattern of the library gets the witness of the scan over all
        position tuples, and the C4 rule is the comparison around every
        induced 4-cycle: on every ordering of every graph with n <= 4, and
        on every graph with n <= 5 under the identity and one seeded
        ordering.  An ordering has the instances that the identity has on
        the graph relabelled by position, so each graph under one ordering
        covers every (graph, ordering) pair with n <= 5 up to relabelling.
        The 124,470 pairs themselves take about 25 s on a 2-vCPU x86-64 VM,
        too long for this suite."""
        rng = random.Random(20261019)
        witnessed = set()
        for n in range(6):
            for g in small_graphs[n]:
                shuffled = rng.sample(range(n), n)
                for sigma in permutations(range(n)) if n <= 4 else (tuple(range(n)), shuffled):
                    got = [find_pattern(g, sigma, pat) for pat in ALL_PATTERNS]
                    assert got == [scan_pattern(g, sigma, pat) for pat in ALL_PATTERNS], (g, sigma)
                    assert fulfills_c4_rule(g, sigma) == c4_rule_by_cycles(g, sigma), (g, sigma)
                    witnessed.update(i for i, w in enumerate(got) if w is not None)
        assert witnessed == set(range(len(ALL_PATTERNS)))

    @given(graphs(max_n=9), st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_matches_the_tuple_scan_on_random_orderings(self, g, rng):
        sigma = list(range(g.n))
        rng.shuffle(sigma)
        for pat in ALL_PATTERNS:
            assert find_pattern(g, sigma, pat) == scan_pattern(g, sigma, pat)
        assert fulfills_c4_rule(g, sigma) == c4_rule_by_cycles(g, sigma)


class TestOrderingPredicates:
    def test_p3_comparability(self):
        assert not is_comparability_ordering(P3, (0, 1, 2))
        assert is_comparability_ordering(P3, (1, 0, 2))
        assert is_comparability_ordering(empty_graph(3), (0, 1, 2))

    def test_p3_cocomparability(self):
        assert is_cocomparability_ordering(P3, (0, 1, 2))
        assert not is_cocomparability_ordering(TWO_K2, (0, 1, 2, 3))
        assert is_cocomparability_ordering(complete_graph(4), (0, 1, 2, 3))

    def test_build_says_what_the_tuple_scan_says(self, ordering_predicates):
        """The predicates orient along the ordering; on every ordering of
        every graph with n <= 5 they hold exactly when the scan over all
        position triples finds no cpc, respectively no cp."""
        for g, predicates in ordering_predicates.items():
            for sigma, (cocomp, comp) in zip(permutations(range(g.n)), predicates):
                assert cocomp == (scan_pattern(g, sigma, PATTERN_CPC) is None), (
                    sorted(g.edges), sigma)
                assert comp == (scan_pattern(g, sigma, PATTERN_CP) is None), (
                    sorted(g.edges), sigma)

    @given(graphs(max_n=6), st.integers(0, 719))
    def test_cocomparability_is_complement_comparability(self, g, pick):
        perms = list(permutations(range(g.n)))
        sigma = perms[pick % len(perms)]
        assert is_cocomparability_ordering(g, sigma) == is_comparability_ordering(
            complement(g), sigma
        )


class TestFourCycleRule:
    def test_c4_good_ordering(self):
        assert fulfills_c4_rule(C4, (0, 2, 1, 3))

    def test_c4_identity_fails(self):
        assert not fulfills_c4_rule(C4, (0, 1, 2, 3))

    def test_vacuous_without_four_cycles(self):
        assert fulfills_c4_rule(path_graph(4), (0, 1, 2, 3))
        assert fulfills_c4_rule(complete_graph(4), (3, 1, 2, 0))

    def test_2k2_examples(self):
        assert fulfills_2k2_rule(TWO_K2, (0, 2, 1, 3))
        assert not fulfills_2k2_rule(TWO_K2, (0, 1, 2, 3))
        assert fulfills_2k2_rule(complete_graph(4), (0, 1, 2, 3))

    def test_rule_duality_exhaustive_small(self):
        for n in range(5):
            for g in all_graphs(n):
                gc = complement(g)
                for sigma in permutations(range(n)):
                    assert fulfills_c4_rule(g, sigma) == fulfills_2k2_rule(gc, sigma)

    @given(graphs(max_n=6), st.integers(0, 719))
    def test_rule_duality_random(self, g, pick):
        perms = list(permutations(range(g.n)))
        sigma = perms[pick % len(perms)]
        assert fulfills_c4_rule(g, sigma) == fulfills_2k2_rule(complement(g), sigma)

    def test_labeling_invariance_on_2k2(self):
        # the all-equal condition must not depend on how the two disjoint
        # edges are assigned to the roles
        g = TWO_K2
        for sigma in permutations(range(4)):
            pos = {v: i for i, v in enumerate(sigma)}
            reference = None
            for (u, w) in ((0, 2), (2, 0)):
                for (v, x) in ((1, 3), (3, 1)):
                    for swap in (False, True):
                        uu, ww, vv, xx = (v, x, u, w) if swap else (u, w, v, x)
                        vals = (
                            pos[uu] < pos[vv],
                            pos[ww] < pos[vv],
                            pos[ww] < pos[xx],
                            pos[uu] < pos[xx],
                        )
                        outcome = all(vals) or not any(vals)
                        if reference is None:
                            reference = outcome
                        assert outcome == reference
            assert reference == fulfills_2k2_rule(g, sigma)


class TestOrientComplement:
    def test_c4_gives_two_plus_two(self):
        p = orient_complement_by_ordering(C4, (0, 2, 1, 3))
        assert p.pairs == frozenset([(0, 2), (1, 3)])

    def test_complete_graph_gives_empty_order(self):
        p = orient_complement_by_ordering(complete_graph(3), (2, 0, 1))
        assert p.pairs == frozenset()

    def test_empty_graph_gives_chain(self):
        p = orient_complement_by_ordering(empty_graph(3), (0, 1, 2))
        assert p.pairs == frozenset([(0, 1), (0, 2), (1, 2)])

    def test_non_transitive_rejected(self):
        g = Graph.from_edges(3, [(0, 2)])
        with pytest.raises(NotComparabilityOrdering):
            orient_complement_by_ordering(g, (0, 1, 2))

    @given(graphs(max_n=6), st.integers(0, 719))
    def test_output_valid_and_extended(self, g, pick):
        perms = list(permutations(range(g.n)))
        sigma = perms[pick % len(perms)]
        try:
            p = orient_complement_by_ordering(g, sigma)
        except NotComparabilityOrdering:
            return
        assert is_linear_extension(p, sigma)

    def test_2k2_rule_transfers_to_2plus2_rule(self):
        # a clean complement ordering leaves no 4-anticycle in the order
        for n in range(5):
            for g in all_graphs(n):
                gc = complement(g)
                for sigma in permutations(range(n)):
                    if not is_comparability_ordering(gc, sigma):
                        continue
                    if not fulfills_2k2_rule(gc, sigma):
                        continue
                    p = orient_complement_by_ordering(g, sigma)
                    assert find_alternating_anticycle(p, sigma, k_max=2) is None


class TestOrientations:
    def test_acyclic_triangle_is_transitive(self):
        k3 = complete_graph(3)
        o = from_arcs(3, [(0, 1), (0, 2), (1, 2)])
        assert is_transitive_orientation(k3, o)

    def test_cyclic_triangle_is_not(self):
        k3 = complete_graph(3)
        o = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert not is_transitive_orientation(k3, o)

    def test_directed_path_not_transitive(self):
        o = from_arcs(3, [(0, 1), (1, 2)])
        assert not is_transitive_orientation(P3, o)

    def test_c4_alternating(self):
        o = from_arcs(4, [(0, 1), (2, 1), (2, 3), (0, 3)])
        assert is_alternating_orientation(C4, o)

    def test_c4_directed_cycle_not_alternating(self):
        o = from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not is_alternating_orientation(C4, o)

    def test_chordal_graph_vacuous(self):
        k4 = complete_graph(4)
        o = orientation_from_ordering(k4, (2, 0, 3, 1))
        assert is_alternating_orientation(k4, o)

    def test_edge_set_mismatch(self):
        o = from_arcs(4, [(0, 1)])
        with pytest.raises(EdgeSetMismatch):
            is_transitive_orientation(C4, o)

    def test_edge_set_mismatch_with_equal_edge_count(self):
        o = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        with pytest.raises(EdgeSetMismatch):
            is_transitive_orientation(C4, o)
        with pytest.raises(EdgeSetMismatch):
            is_alternating_orientation(C4, o)

    @pytest.mark.parametrize(
        "arcs", [[(0, 1), (1, 0)], [(1, 0), (0, 1)], [(0, 1), (1, 2), (2, 1)]]
    )
    def test_both_ways_rejected(self, arcs):
        with pytest.raises(ValueError):
            from_arcs(3, arcs)

    @pytest.mark.parametrize("out", [(2, 0), (8, 0, 0), (1, 0, 0), (-1, 0, 0)],
                             ids=["length", "range", "reflexive", "negative"])
    def test_invalid_masks_rejected(self, out):
        with pytest.raises(ValueError):
            Orientation(3, out)

    @pytest.mark.parametrize("g", [C4, complete_graph(4)], ids=["C4", "K4"])
    @pytest.mark.parametrize("mode", ["transitive", "alternating"])
    def test_masks_match_arcs(self, g, mode):
        for o in enumerate_orientations(g, mode):
            into = [0] * g.n
            for u, v in arcs_of(o):
                into[v] |= 1 << u
            assert o.into == tuple(into)
            assert tuple(out | into for out, into in zip(o.out, o.into)) == g.adj

    def test_predicates_match_arc_references(self):
        # every orientation of every graph with n <= 4, against the
        # definitions read straight off the arc set
        for n in range(5):
            for g in all_graphs(n):
                edges = sorted(g.edges)
                for flips in range(1 << len(edges)):
                    arcs = frozenset(
                        (v, u) if flips >> i & 1 else (u, v)
                        for i, (u, v) in enumerate(edges)
                    )
                    o = from_arcs(n, arcs)
                    transitive = all(
                        (u, w) in arcs for u, v in arcs for x, w in arcs if x == v
                    )
                    alternating = all(
                        ((a, b) in arcs) == ((c, b) in arcs)
                        for a, b, c in brute_cycle_p3s(g)
                    )
                    assert is_transitive_orientation(g, o) == transitive
                    assert is_alternating_orientation(g, o) == alternating

    def test_alternation_matches_cycle_p3_rule_on_seeded_orientations(self):
        # seeded G(n, p) with n = 5-8, each under random arc flips and along
        # random orderings, against the rule read off brute_cycle_p3s; both
        # answers come up on graphs that have cycle P3s
        rng = random.Random(20261020)
        outcomes = set()
        for _ in range(200):
            n, p = rng.randint(5, 8), rng.choice((0.3, 0.5, 0.7))
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            p3s = brute_cycle_p3s(g)
            for flip in (0.0, 0.5, 0.5, 0.5):
                order = rng.sample(range(n), n)
                arcs = frozenset(
                    (v, u) if rng.random() < flip else (u, v)
                    for u, v in arcs_of(orientation_from_ordering(g, order))
                )
                expected = all(((a, b) in arcs) == ((c, b) in arcs) for a, b, c in p3s)
                assert is_alternating_orientation(g, from_arcs(n, arcs)) == expected
                outcomes.add((bool(p3s), expected))
        assert {(True, False), (True, True)} <= outcomes

    def test_alternation_on_8x8_grid_is_fast(self):
        # the 7x7 grid already has 65,772 chordless cycles; this one has
        # 292 cycle P3s
        k = 8
        grid = Graph.from_edges(
            k * k,
            [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
            + [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)],
        )
        start = time.perf_counter()
        # every arc from the even colour class to the odd one
        bipartition = from_arcs(
            k * k, ((u, v) if (u // k + u % k) % 2 == 0 else (v, u) for u, v in grid.edges)
        )
        assert is_alternating_orientation(grid, bipartition)
        row_major = orientation_from_ordering(grid, tuple(range(k * k)))
        assert not is_alternating_orientation(grid, row_major)
        assert time.perf_counter() - start < 1.0


class TestUnionAcyclic:
    def test_single_ordering_induces_acyclic_union(self):
        sigma = (2, 0, 3, 1)
        o_g = orientation_from_ordering(C4, sigma)
        o_gc = orientation_from_ordering(complement(C4), sigma)
        assert union_is_acyclic(C4, o_g, o_gc)

    def test_directed_triangle_split_across_graphs(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        o_g = from_arcs(3, [(0, 1), (1, 2)])
        o_gc = from_arcs(3, [(2, 0)])
        assert not union_is_acyclic(g, o_g, o_gc)

    def test_edge_set_mismatch(self):
        o_g = orientation_from_ordering(C4, (0, 1, 2, 3))
        with pytest.raises(EdgeSetMismatch):
            union_is_acyclic(C4, o_g, o_g)


def brute_cycle_p3s(g):
    """(a, b, c), a < c, for every vertex b of every induced connected
    2-regular subset with at least four vertices, a and c its two neighbours
    there."""
    found = set()
    for size in range(4, g.n + 1):
        for sub in combinations(range(g.n), size):
            inside = 0
            for q in sub:
                inside |= 1 << q
            if any((g.adj[q] & inside).bit_count() != 2 for q in sub):
                continue
            seen = 1 << sub[0]
            stack = [sub[0]]
            while stack:
                x = stack.pop()
                for y in iter_bits(g.adj[x] & inside & ~seen):
                    seen |= 1 << y
                    stack.append(y)
            if seen == inside:
                for b in sub:
                    a, c = iter_bits(g.adj[b] & inside)
                    found.add((a, b, c))
    return tuple(sorted(found))


def cycle_p3s(g):
    """The sorted, distinct (a, b, c), a < c, with a and c non-adjacent in
    one mask of ``_touching_masks`` at b."""
    return tuple(sorted({
        (a, b, c)
        for b, masks in enumerate(_touching_masks(g)) for touching in masks
        for a, c in combinations(iter_bits(touching), 2) if not g.adjacent(a, c)
    }))


class TestChordlessCycles:
    """The cycle P3s, induced paths a-b-c on a chordless cycle of length >= 4,
    as read off the touching masks."""

    def test_c5_single_cycle(self):
        assert cycle_p3s(cycle_graph(5)) == (
            (0, 1, 2),
            (0, 4, 3),
            (1, 0, 4),
            (1, 2, 3),
            (2, 3, 4),
        )

    def test_k4_has_none(self):
        assert cycle_p3s(complete_graph(4)) == ()

    def test_prism_has_three_squares(self):
        # squares 0-1-4-3, 0-2-5-3 and 1-2-5-4, four triples each
        prism = Graph.from_edges(
            6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
        )
        assert cycle_p3s(prism) == (
            (0, 1, 4),
            (0, 2, 5),
            (0, 3, 4),
            (0, 3, 5),
            (1, 0, 3),
            (1, 2, 5),
            (1, 4, 3),
            (1, 4, 5),
            (2, 0, 3),
            (2, 1, 4),
            (2, 5, 3),
            (2, 5, 4),
        )

    def test_matches_subset_oracle_exhaustively(self):
        for n in range(6):
            for g in all_graphs(n):
                assert cycle_p3s(g) == brute_cycle_p3s(g)

    @given(graphs(max_n=7))
    @settings(max_examples=150)
    def test_matches_subset_oracle_random(self, g):
        assert cycle_p3s(g) == brute_cycle_p3s(g)
