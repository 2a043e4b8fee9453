import ast
import importlib
import importlib.util
import inspect
import random
from itertools import chain, permutations

import pytest
from hypothesis import given, settings

import simpletri.oracles
from simpletri.errors import LimitExceeded, NotSimpleTriangle
from simpletri.exhaustive import all_graphs, all_partial_orders
from simpletri.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_alternating_orientation,
    is_transitive_orientation,
    orientation_from_ordering,
)
from simpletri.oracles import (
    _alternating_orderings,
    _assemble,
    _before_masks,
    _solve_base_intervals,
    _transitive_orderings,
    _two_plus_two_orderings,
    all_transitive_complements_extend,
    enumerate_orientations,
    exact_triangle_intersection,
    geometric_search_order_realization,
    geometric_search_realization,
    has_alternating_transitive_pair,
    random_triangle_pair,
    triangle_interiors_intersect,
)
from simpletri.orders import (
    find_alternating_anticycle,
    is_linear_extension,
    make_partial_order,
    recognize_linear_interval_order,
)
from simpletri.recognition import recognize
from simpletri.triangles import TriangleRepresentation, triangles_disjoint, verify_representation

from references import (
    CROWN_RELATIONS,
    INTERVAL_PATTERNS,
    PRISM_EDGES,
    grid_search_realization,
    scan_pattern,
    union_is_acyclic,
)
from strategies import partial_orders

C4 = cycle_graph(4)
C5 = cycle_graph(5)
PRISM = Graph.from_edges(6, PRISM_EDGES)
C5_PLUS_ISOLATED = Graph.from_edges(6, sorted(C5.edges))
C5_PLUS_UNIVERSAL = Graph.from_edges(6, sorted(C5.edges) + [(v, 5) for v in range(5)])
CROWN = make_partial_order(6, CROWN_RELATIONS)


def sampled_six_vertex_graphs():
    rng = random.Random(6)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    samples = [PRISM, cycle_graph(6), complete_graph(6)]
    for _ in range(120):
        samples.append(
            Graph.from_edges(6, [e for e in pairs if rng.random() < rng.choice((0.3, 0.5, 0.7))])
        )
    return samples


def reference_geometric_search(g):
    """Every apex ordering, its position columns built pair by pair, sent to
    the solver, which finds the intransitive systems infeasible too."""
    n = g.n
    for sigma in permutations(range(n)):
        cols = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if not g.adjacent(sigma[i], sigma[j]):
                    cols[j] |= 1 << i
        base_by_pos = _solve_base_intervals(cols)
        if base_by_pos is not None:
            return _assemble(sigma, base_by_pos)
    return None


def reference_order_search(p):
    """Every extension of p, found and masked pair by pair, sent to the solver."""
    n = p.n
    for sigma in permutations(range(n)):
        if any(p.less(sigma[j], sigma[i]) for i in range(n) for j in range(i + 1, n)):
            continue
        cols = [sum(1 << i for i in range(j) if p.less(sigma[i], sigma[j])) for j in range(n)]
        base_by_pos = _solve_base_intervals(cols)
        if base_by_pos is not None:
            return _assemble(sigma, base_by_pos)
    return None


class TestGeometricSearch:
    def test_single_vertex(self):
        t = geometric_search_realization(Graph(1, frozenset()))
        assert t == TriangleRepresentation((1,), ((1, 2),))

    def test_c4_found(self):
        t = geometric_search_realization(C4)
        assert t is not None and verify_representation(C4, t)

    def test_c5_none(self):
        assert geometric_search_realization(C5) is None

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            geometric_search_realization(empty_graph(7))

    def test_agrees_with_grid_enumeration(self):
        # the assumption-free grid search validates the constraint solver
        for n in range(5):
            for g in all_graphs(n):
                fast = geometric_search_realization(g)
                slow = grid_search_realization(g)
                assert (fast is None) == (slow is None)
                if slow is not None:
                    assert verify_representation(g, slow)

    def test_agrees_with_recognizer_on_sampled_six_vertex_graphs(self):
        for g in sampled_six_vertex_graphs():
            assert (recognize(g) is None) == (geometric_search_realization(g) is None)

    def test_same_representation_as_reference_search(self):
        # filtering and dropping must not change which ordering is found first
        small = (g for n in range(6) for g in all_graphs(n))
        extra = [PRISM, complement(PRISM), cycle_graph(6)]
        for g in chain(small, extra, sampled_six_vertex_graphs()):
            assert geometric_search_realization(g) == reference_geometric_search(g)

    @staticmethod
    def counted_solves(monkeypatch):
        calls = []

        def counted(cols):
            calls.append(cols)
            return _solve_base_intervals(cols)

        monkeypatch.setattr(simpletri.oracles, "_solve_base_intervals", counted)
        return calls

    def test_prism_reaches_the_solver_once(self, monkeypatch):
        # its first kept ordering fails, and the 2+2 drop then empties the mask
        calls = self.counted_solves(monkeypatch)
        assert geometric_search_realization(PRISM) is None
        kept = _transitive_orderings(PRISM)
        first = list(permutations(range(6)))[(kept & -kept).bit_length() - 1]
        assert calls == [
            [sum(1 << i for i in range(j) if not PRISM.adjacent(first[i], first[j])) for j in range(6)]
        ]
        assert kept & ~_two_plus_two_orderings(6, complement(PRISM).adj) == 0

    def test_prism_rejected_without_the_drop(self, monkeypatch):
        calls = self.counted_solves(monkeypatch)
        monkeypatch.setattr(simpletri.oracles, "_two_plus_two_orderings", lambda n, disjoint: 0)
        assert geometric_search_realization(PRISM) is None
        assert len(calls) == bin(_transitive_orderings(PRISM)).count("1") == 96


def bellman_ford_base_intervals(separate):
    """Plain Bellman-Ford reference for ``_solve_base_intervals``: 2n rounds
    of relaxation over every constraint, then one pass looking for a
    positive cycle."""
    n = len(separate)
    edges = [(i, n + i, 1) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if separate[i] >> j & 1:
                edges.append((n + i, j, 1))
            else:
                edges.append((j, n + i, 0))
    dist = [1] * (2 * n)
    for _ in range(2 * n):
        for x, y, w in edges:
            dist[y] = max(dist[y], dist[x] + w)
    if any(dist[x] + w > dist[y] for x, y, w in edges):
        return None
    return [(dist[i], dist[n + i]) for i in range(n)]


def test_base_intervals_match_bellman_ford():
    samples = [g for n in range(5) for g in all_graphs(n)]
    samples += [PRISM, cycle_graph(6), C5_PLUS_ISOLATED, C5_PLUS_UNIVERSAL]
    for g in samples:
        for sigma in permutations(range(g.n)):
            separate = [
                sum(1 << j for j in range(i + 1, g.n) if not g.adjacent(sigma[i], sigma[j]))
                for i in range(g.n)
            ]
            cols = [
                sum(1 << i for i in range(j) if not g.adjacent(sigma[i], sigma[j]))
                for j in range(g.n)
            ]
            assert _solve_base_intervals(cols) == bellman_ford_base_intervals(separate)


class TestTwoPlusTwoDrop:
    """Every ordering that ``_two_plus_two_orderings`` drops has no base
    intervals, and the drop is the 2+2 as the recognizer's patterns and the
    2+2 rule define it."""

    GRAPHS = [g for n in range(6) for g in all_graphs(n)] + [PRISM]

    def test_dropped_orderings_have_no_base_intervals(self):
        systems = set()  # the separate rows of each dropped ordering
        for g in self.GRAPHS:
            drop = _two_plus_two_orderings(g.n, complement(g).adj)
            for k, sigma in enumerate(permutations(range(g.n))):
                if drop >> k & 1:
                    systems.add(tuple(
                        sum(1 << j for j in range(i + 1, g.n) if not g.adjacent(sigma[i], sigma[j]))
                        for i in range(g.n)
                    ))
        assert len(systems) > 100
        for separate in systems:
            cols = [sum(1 << i for i in range(j) if separate[i] >> j & 1) for j in range(len(separate))]
            assert _solve_base_intervals(cols) is None
            assert bellman_ford_base_intervals(separate) is None

    def test_drop_is_p1_or_p2_on_the_transitive_orderings(self):
        for g in self.GRAPHS:
            drop, kept = _two_plus_two_orderings(g.n, complement(g).adj), _transitive_orderings(g)
            for k, sigma in enumerate(permutations(range(g.n))):
                if kept >> k & 1:
                    hit = any(scan_pattern(g, sigma, pat) for _, pat in INTERVAL_PATTERNS)
                    assert (drop >> k & 1) == hit, (sorted(g.edges), sigma)

    def test_drop_is_a_four_anticycle_on_order_extensions(self):
        for p in (p for n in range(5) for p in all_partial_orders(n)):
            drop = _two_plus_two_orderings(p.n, [s | q for s, q in zip(p.succ, p.pred)])
            for k, sigma in enumerate(permutations(range(p.n))):
                if is_linear_extension(p, sigma):
                    hit = find_alternating_anticycle(p, sigma) is not None
                    assert (drop >> k & 1) == hit, (p, sigma)


class TestOrderRealization:
    def test_chain(self):
        p = make_partial_order(3, [(0, 1), (1, 2)])
        t = geometric_search_order_realization(p)
        assert t is not None and t.induced_order() == p

    def test_two_plus_two(self):
        p = make_partial_order(4, [(0, 2), (1, 3)])
        t = geometric_search_order_realization(p)
        assert t is not None and t.induced_order() == p

    def test_crown_rejected(self):
        assert geometric_search_order_realization(CROWN) is None

    def test_same_representation_as_reference_search(self):
        small = (p for n in range(6) for p in all_partial_orders(n))
        for p in chain(small, [CROWN]):
            assert geometric_search_order_realization(p) == reference_order_search(p)

    @given(partial_orders(max_n=5))
    @settings(max_examples=120)
    def test_agrees_with_extension_search(self, p):
        direct = recognize_linear_interval_order(p)
        oracle = geometric_search_order_realization(p)
        assert (direct is None) == (oracle is None)


class TestEnumerateOrientations:
    def test_k3_transitive_count(self):
        assert len(list(enumerate_orientations(complete_graph(3), "transitive"))) == 6

    def test_c4_alternating_count(self):
        assert len(list(enumerate_orientations(C4, "alternating"))) == 2

    def test_c4_transitive_count(self):
        assert len(list(enumerate_orientations(C4, "transitive"))) == 2

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            list(enumerate_orientations(C4, "sideways"))

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            list(enumerate_orientations(complete_graph(6), "transitive", limit=10))


def brute_pair_exists(g):
    gc = complement(g)
    for o_g in enumerate_orientations(g, "alternating"):
        for o_gc in enumerate_orientations(gc, "transitive"):
            if union_is_acyclic(g, o_g, o_gc):
                return True
    return False


def brute_all_extend(g):
    gc = complement(g)
    for o_gc in enumerate_orientations(gc, "transitive"):
        if not any(
            union_is_acyclic(g, o_g, o_gc)
            for o_g in enumerate_orientations(g, "alternating")
        ):
            return False
    return True


def reference_pair_exists(g):
    """The ordering scan with the orientations along each ordering and the
    public predicates."""
    gc = complement(g)
    return any(
        is_transitive_orientation(gc, orientation_from_ordering(gc, sigma))
        and is_alternating_orientation(g, orientation_from_ordering(g, sigma))
        for sigma in permutations(range(g.n))
    )


def reference_all_extend(g):
    """Same scan as ``reference_pair_exists``, keyed by the orientation of
    the complement; raises NotSimpleTriangle where the oracle must."""
    gc = complement(g)
    outcome = {}
    for sigma in permutations(range(g.n)):
        o_gc = orientation_from_ordering(gc, sigma)
        if is_transitive_orientation(gc, o_gc):
            o_g = orientation_from_ordering(g, sigma)
            alternating = is_alternating_orientation(g, o_g)
            outcome[o_gc] = outcome.get(o_gc, False) or alternating
    if not any(outcome.values()):
        raise NotSimpleTriangle("reference: no alternating/transitive pair")
    return all(outcome.values())


@pytest.mark.parametrize("n", [0, 1])
def test_oracles_on_zero_and_one_vertex(n):
    g, p = empty_graph(n), make_partial_order(n, [])
    t = geometric_search_realization(g)
    assert t is not None and t == reference_geometric_search(g)
    assert has_alternating_transitive_pair(g) and reference_pair_exists(g)
    assert all_transitive_complements_extend(g) and reference_all_extend(g)
    t = geometric_search_order_realization(p)
    assert t is not None and t == reference_order_search(p)


@pytest.mark.parametrize(
    "oracle, instance",
    [
        (geometric_search_realization, empty_graph(11)),
        (geometric_search_order_realization, make_partial_order(11, [])),
        (has_alternating_transitive_pair, empty_graph(11)),
        (all_transitive_complements_extend, empty_graph(11)),
    ],
    ids=["geometric", "order", "pair", "extend"],
)
def test_oracles_refuse_eleven_vertices_whatever_the_limit(oracle, instance):
    # the masks for n = 11 alone would take 1.5-1.8 s and a 710 MB peak
    before = _before_masks.cache_info()
    with pytest.raises(LimitExceeded, match="n=11 exceeds oracle limit 10"):
        oracle(instance, limit=11)
    assert _before_masks.cache_info() == before


class TestOrientationPairChecks:
    def test_examples(self):
        assert has_alternating_transitive_pair(C4)
        assert not has_alternating_transitive_pair(C5)
        assert has_alternating_transitive_pair(Graph(1, frozenset()))
        assert all_transitive_complements_extend(C4)
        assert all_transitive_complements_extend(
            Graph.from_edges(4, [(0, 2), (1, 3)])
        )
        assert all_transitive_complements_extend(empty_graph(3))

    def test_requires_accepted_graph(self):
        with pytest.raises(NotSimpleTriangle):
            all_transitive_complements_extend(C5)

    def test_matches_double_enumeration_small(self):
        # the ordering scan must agree with literally pairing orientations
        for n in range(5):
            for g in all_graphs(n):
                assert has_alternating_transitive_pair(g) == brute_pair_exists(g)
                if recognize(g) is not None:
                    assert all_transitive_complements_extend(g) == brute_all_extend(g)

    def test_mask_scan_matches_arc_set_reference(self):
        # the prism is the one n = 6 graph (up to isomorphism) whose
        # complement is transitive but which is rejected, so the alternating
        # half of each scan decides it
        prism = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
        )
        small = (g for n in range(6) for g in all_graphs(n))
        # the rejected n = 6 graphs of the crosscheck stream scan all 720 orderings
        tail = [C5_PLUS_ISOLATED, C5_PLUS_UNIVERSAL, cycle_graph(6)]
        # the split by complement edge stops at once on both ends, and on
        # the edgeless graph only its all-alternating stop keeps it from
        # reaching each of the 720 orientations of the complement
        ends = [empty_graph(6), complete_graph(6)]
        for g in chain(small, [prism, complement(prism)], tail, ends):
            assert has_alternating_transitive_pair(g) == reference_pair_exists(g)
            try:
                expected = reference_all_extend(g)
            except NotSimpleTriangle:
                with pytest.raises(NotSimpleTriangle):
                    all_transitive_complements_extend(g)
            else:
                assert all_transitive_complements_extend(g) == expected

    def test_false_when_one_complement_orientation_has_no_alternating_ordering(
        self, monkeypatch
    ):
        """The False branch, reached only through a synthetic mask: by the
        paper's theorem (acceptance test 07), every transitive orientation of
        a simple-triangle graph's complement extends, so no graph reaches it.
        C4's complement, 0-2 and 1-3, has four transitive orientations; the
        mask drops the alternating orderings of the one with 0 before 2 and
        1 before 3, and the other three keep theirs."""
        P, alternating = _before_masks(4), simpletri.oracles._alternating_orderings
        assert all_transitive_complements_extend(C4)
        monkeypatch.setattr(
            simpletri.oracles,
            "_alternating_orderings",
            lambda g: alternating(g) & ~(P[0][2] & P[1][3]),
        )
        assert has_alternating_transitive_pair(C4)
        assert not all_transitive_complements_extend(C4)

    def test_split_reaches_nine_vertices_without_the_ordering_table(self):
        # an intersection graph of nine random triangles, whose complement
        # has 9 edges and whose transitive orderings are not all alternating
        rng, n = random.Random(6), 9
        points = rng.sample(range(1, 2 * n + 1), 2 * n)
        t = TriangleRepresentation(
            tuple(rng.sample(range(1, n + 1), n)),
            tuple(tuple(sorted(points[2 * v: 2 * v + 2])) for v in range(n)),
        )
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if not triangles_disjoint(t, u, v)]
        )
        assert len(complement(g).edges) == 9
        assert _transitive_orderings(g) & ~_alternating_orderings(g)
        assert has_alternating_transitive_pair(g, limit=9)
        assert all_transitive_complements_extend(g, limit=9)

    def test_masks_are_built_once_per_size(self):
        # every oracle of one size reads one set of masks, and a build does
        # not go through the one-entry cache for the smaller sizes
        _before_masks.cache_clear()
        accepted = complement(Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]))
        for g in (Graph(PRISM.n, PRISM.edges), accepted, cycle_graph(6)):
            geometric_search_realization(g)
            if has_alternating_transitive_pair(g):
                all_transitive_complements_extend(g)
        geometric_search_order_realization(CROWN)
        assert _before_masks.cache_info().misses == 1
        geometric_search_order_realization(make_partial_order(5, [(0, 1)]))
        assert _before_masks.cache_info().misses == 2


class TestTransitiveMatrix:
    """The n!-bit ordering masks and the two filters the oracles build from
    them."""

    def test_masks_match_the_table_orderings(self):
        for n in range(8):
            orderings = reversed(list(permutations(range(n))))
            positions = [{v: i for i, v in enumerate(sigma)} for sigma in orderings]
            masks = _before_masks(n)
            for u in range(n):
                for v in range(n):
                    digits = "".join(str(int(pos[u] < pos[v])) for pos in positions)
                    assert masks[u][v] == int(digits, 2)

    def test_shared_pass_is_the_filter_by_the_public_predicate(self):
        for n in range(6):
            for g in all_graphs(n):
                gc = complement(g)
                transitive = _transitive_orderings(g)
                alternating = _alternating_orderings(g)
                for k, sigma in enumerate(permutations(range(n))):
                    o_gc = orientation_from_ordering(gc, sigma)
                    o_g = orientation_from_ordering(g, sigma)
                    assert transitive >> k & 1 == is_transitive_orientation(gc, o_gc)
                    assert alternating >> k & 1 == is_alternating_orientation(g, o_g)


class TestExactGeometry:
    def test_disjoint(self):
        t = TriangleRepresentation((1, 2), ((1, 2), (3, 4)))
        assert not exact_triangle_intersection(t, 0, 1)

    def test_crossing(self):
        t = TriangleRepresentation((2, 1), ((1, 2), (3, 4)))
        assert exact_triangle_intersection(t, 0, 1)

    def test_degenerate_touch(self):
        t = TriangleRepresentation((1, 2), ((1, 2), (2, 3)))
        assert exact_triangle_intersection(t, 0, 1)
        assert not triangle_interiors_intersect(t, 0, 1)

    def test_nested(self):
        t = TriangleRepresentation((5, 4), ((1, 9), (3, 6)))
        assert exact_triangle_intersection(t, 0, 1)
        assert triangle_interiors_intersect(t, 0, 1)

    def test_shared_base_overlap(self):
        t = TriangleRepresentation((1, 9), ((1, 4), (2, 6)))
        assert exact_triangle_intersection(t, 0, 1)
        assert triangle_interiors_intersect(t, 0, 1)

    def test_agrees_with_combinatorial_predicate(self):
        rng = random.Random(20260808)
        for _ in range(2000):
            t = random_triangle_pair(rng)
            assert (not triangles_disjoint(t, 0, 1)) == exact_triangle_intersection(
                t, 0, 1
            )

    def test_exhaustive_tiny_grid(self):
        # every triangle pair with endpoints in 1..6 and distinct apexes
        # (6,750 pairs); interiors miss each other only at a base abutment
        span = 6
        bases = [
            (lo, hi) for lo in range(1, span) for hi in range(lo + 1, span + 1)
        ]
        for a1 in range(1, span + 1):
            for a2 in range(1, span + 1):
                if a1 == a2:
                    continue
                for b1 in bases:
                    for b2 in bases:
                        t = TriangleRepresentation((a1, a2), (b1, b2))
                        closed = not triangles_disjoint(t, 0, 1)
                        abut = a1 < a2 and b1[1] == b2[0] or a2 < a1 and b2[1] == b1[0]
                        assert exact_triangle_intersection(t, 0, 1) == closed
                        assert triangle_interiors_intersect(t, 0, 1) == (
                            closed and not abut
                        )

    @pytest.mark.parametrize("span", [2, 3, 40, 1000])
    def test_draws_match_randint(self, span):
        # a seed checks the same pairs as when the draws went through randint
        def reference(rng):
            a1 = rng.randint(1, span)
            a2 = rng.randint(1, span - 1)
            if a2 >= a1:
                a2 += 1
            bases = []
            for _ in range(2):
                lo = rng.randint(1, span - 1)
                bases.append((lo, rng.randint(lo + 1, span)))
            return TriangleRepresentation((a1, a2), tuple(bases))

        drawn, expected = random.Random(span), random.Random(span)
        for _ in range(10_000):
            assert random_triangle_pair(drawn, span) == reference(expected)

    def test_span_without_two_endpoints_raises(self):
        with pytest.raises(ValueError):
            random_triangle_pair(random.Random(0), span=1)


def test_oracles_import_nothing_from_the_engine():
    """The oracles share no code path with the recognizer: nothing imported
    into the module comes from the recognition, pattern-search or 2-SAT
    modules."""
    engine = {"simpletri.recognition", "simpletri.patterns", "simpletri.twosat"}
    tree = ast.parse(inspect.getsource(simpletri.oracles))
    origins = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            origins += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), "simpletri"
            )
            for alias in node.names:
                obj = getattr(importlib.import_module(module), alias.name)
                if inspect.ismodule(obj):
                    origins.append(obj.__name__)
                else:
                    origins.append(getattr(obj, "__module__", module))
    assert origins and not engine & set(origins), sorted(engine & set(origins))
