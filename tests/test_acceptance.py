"""Acceptance suite: exhaustive desk-scale validation of every contract.

One test per criterion; pytest -v prints a pass/fail line for each.  The
expensive shared corpus (all small graphs, every ordering, realizations for
every accepted pair) is computed once per module.
"""
import os
import random
from itertools import permutations

import pytest

from simpletri.errors import NotApexOrdering, NotSimpleTriangle
from simpletri.exhaustive import (
    naturally_ordered_relations,
    random_linear_extension,
    random_partial_order,
)
from simpletri.graphs import (
    Graph,
    complement,
    cycle_graph,
    find_pattern,
    fulfills_2k2_rule,
    fulfills_c4_rule,
    is_cocomparability_ordering,
    transitive_orientation,
    PATTERN_CP,
    PATTERN_P1,
    PATTERN_P2,
)
from simpletri.oracles import (
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
    Anticycle,
    IntervalRepresentation,
    build_interval_representation,
    enumerate_linear_extensions,
    find_alternating_anticycle,
    intersect_orders,
    is_valid_anticycle,
    linear_order,
    recognize_linear_interval_order,
)
from simpletri.recognition import realize, recognize
from simpletri.triangles import triangles_disjoint, verify_representation

from references import INTERVAL_PATTERNS, scan_pattern

RANDOM_SEED = 20260808
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="module")
def ordering_corpus(small_graphs, ordering_predicates):
    """Per (graph, ordering): the four acceptance conditions plus realizations.

    The conditions are cocomparability and the C4 rule (b2), building a
    realization from the ordering (b3, ``realize`` does not raise, which is
    ``check_apex_ordering``), the complement's comparability and 2K2 rule
    (b4), and no cp, p1 or p2 on the complement (b5).  Each accepted pair
    is built once, and b3 keeps what it built.  Cocomparability and the
    complement's comparability are read from ``ordering_predicates``.

    cond_mismatch collects tuples where the four formulations disagree,
    realizations holds (graph, ordering, representation) for every accepted
    pair, and per_graph maps each graph to whether some ordering is accepted.
    """
    cond_mismatch = []
    duality_mismatch = []
    verify_failures = []
    realizations = []
    per_graph = {}
    for n in range(6):
        for g in small_graphs[n]:
            gc = complement(g)
            accepted_any = False
            for sigma, (cocomp, _), (_, comp_c) in zip(
                    permutations(range(n)), ordering_predicates[g], ordering_predicates[gc]):
                c4 = fulfills_c4_rule(g, sigma)
                k22_c = fulfills_2k2_rule(gc, sigma)
                b2 = cocomp and c4
                try:
                    rep = realize(g, sigma)
                except NotApexOrdering:
                    rep = None
                b3 = rep is not None
                b4 = comp_c and k22_c
                b5 = all(
                    find_pattern(gc, sigma, pat) is None
                    for pat in (PATTERN_CP, PATTERN_P1, PATTERN_P2)
                )
                if not (b2 == b3 == b4 == b5):
                    cond_mismatch.append((g, sigma, b2, b3, b4, b5))
                if c4 != k22_c or cocomp != comp_c:
                    duality_mismatch.append((g, sigma))
                if b3:
                    accepted_any = True
                    if not verify_representation(g, rep):
                        verify_failures.append((g, sigma))
                    realizations.append((g, sigma, rep))
            per_graph[g] = accepted_any
    return {
        "cond_mismatch": cond_mismatch,
        "duality_mismatch": duality_mismatch,
        "verify_failures": verify_failures,
        "realizations": realizations,
        "per_graph": per_graph,
    }


def test_01_order_recognition_matches_geometric_oracle(small_orders):
    """Every order with n <= 5: extension search and geometric search agree."""
    checked = 0
    for n in range(6):
        for p in small_orders[n]:
            direct = recognize_linear_interval_order(p)
            oracle = geometric_search_order_realization(p)
            assert (direct is None) == (
                oracle is None
            ), f"disagreement on {sorted(p.pairs)}"
            if direct is not None:
                ext, rep = direct
                assert intersect_orders(linear_order(ext), rep.induced_order()) == p
                assert oracle.induced_order() == p
            checked += 1
    assert checked == 1 + 1 + 3 + 19 + 219 + 4231


def test_02_interval_construction_contract(small_orders):
    """Anticycle-free extensions build intervals with the exact intersection
    property; extensions with a 4-anticycle get a valid certificate.  An
    extension has one exactly when the reference scan finds p1 or p2 on the
    comparability graph along it (``test_two_plus_two_rule_is_the_p1_p2_pair``)."""
    for n in range(6):
        for p in small_orders[n]:
            comparability = Graph.from_edges(n, p.pairs)
            for ext in enumerate_linear_extensions(p):
                blocked = any(scan_pattern(comparability, ext, pat) for _, pat in INTERVAL_PATTERNS)
                out = build_interval_representation(p, ext)
                assert (find_alternating_anticycle(p, ext, k_max=2) is not None) == blocked
                if not blocked:
                    assert isinstance(out, IntervalRepresentation)
                    assert all(1 <= lo < hi <= 2 * n for lo, hi in out.intervals)
                    assert (
                        intersect_orders(linear_order(ext), out.induced_order()) == p
                    )
                else:
                    assert isinstance(out, Anticycle)
                    assert is_valid_anticycle(p, ext, out)
    rng = random.Random(RANDOM_SEED)
    for _ in range(1000):
        p = random_partial_order(rng, rng.randint(0, 9))
        ext = random_linear_extension(rng, p)
        out = build_interval_representation(p, ext)
        blocked = any(scan_pattern(Graph.from_edges(p.n, p.pairs), ext, pat) for _, pat in INTERVAL_PATTERNS)
        assert isinstance(out, Anticycle) == blocked
        if isinstance(out, IntervalRepresentation):
            assert intersect_orders(linear_order(ext), out.induced_order()) == p
            assert find_alternating_anticycle(p, ext, k_max=2) is None
        else:
            assert is_valid_anticycle(p, ext, out)
            assert out == find_alternating_anticycle(p, ext, k_max=2)


def test_03_any_anticycle_implies_a_short_one():
    """Pairs (order, extension) with n <= 6: an extension L without a
    4-anticycle gets intervals whose interval order I has L ∩ I = P, so L
    has no longer anticycle either.

    Intervals with ``L ∩ I = P`` rule out anticycles of every length:
    a[i] below b[i] in P gives r(a[i]) < l(b[i]), and a[i+1] before b[i] in
    L but not below it in P gives r(a[i+1]) >= l(b[i]), so
    r(a0) < r(a1) < ... < r(a0).  Whether L has a 4-anticycle is read by
    the reference scan for p1 and p2 on the comparability graph, which
    shares no code with the construction.  Anticycle existence is invariant
    under relabeling both the order and the extension (property-tested
    separately), so scanning every order having the identity as extension
    covers all pairs; anticycles longer than 4 need six distinct elements,
    making n = 6 the first interesting size.
    """
    total = 0
    with_short = 0
    for n in range(7):
        for p in naturally_ordered_relations(n):
            ext = tuple(range(n))
            comparability = Graph(n, p.pairs)
            short = any(scan_pattern(comparability, ext, pat) for _, pat in INTERVAL_PATTERNS)
            out = build_interval_representation(p, ext)
            if not short:
                if not isinstance(out, IntervalRepresentation):
                    pytest.fail(f"no intervals without a 4-anticycle in {sorted(p.pairs)}")
                assert intersect_orders(linear_order(ext), out.induced_order()) == p
            else:
                assert isinstance(out, Anticycle) and is_valid_anticycle(p, ext, out)
                with_short += 1
            total += 1
    assert total == 1 + 1 + 2 + 7 + 40 + 357 + 4824
    assert with_short > 0


def test_04_ordering_condition_equivalence(small_graphs, recognition_results, ordering_corpus):
    """The four per-ordering formulations coincide on every (graph, ordering)
    with n <= 5; recognizer acceptance matches the geometric oracle; every
    accepted pair realizes and verifies."""
    assert ordering_corpus["cond_mismatch"] == []
    assert ordering_corpus["duality_mismatch"] == []
    assert ordering_corpus["verify_failures"] == []
    for n in range(6):
        for g, rec in zip(small_graphs[n], recognition_results[n]):
            oracle = geometric_search_realization(g)
            assert (rec is None) == (oracle is None), f"disagreement on {sorted(g.edges)}"
            assert (rec is not None) == ordering_corpus["per_graph"][g]
            if rec is not None:
                ordering, rep = rec
                assert verify_representation(g, rep)
                assert is_cocomparability_ordering(g, ordering)


def test_05_four_cycle_rule_matches_pattern_pair():
    """On the 4-cycle, rule violation and a p1/p2 witness coincide ordering
    by ordering; the pattern-free count is pinned as a golden value."""
    c4 = cycle_graph(4)
    clean = 0
    for sigma in permutations(range(4)):
        violated = not fulfills_c4_rule(c4, sigma)
        witnessed = (
            find_pattern(c4, sigma, PATTERN_P1) is not None
            or find_pattern(c4, sigma, PATTERN_P2) is not None
        )
        assert violated == witnessed
        if not witnessed:
            clean += 1
    assert clean == 8


def test_06_nested_pair_implications_in_apex_order(ordering_corpus):
    """In every produced representation, each induced 2+2 of the derived
    order satisfies the four all-equal implications in apex order."""
    reps = ordering_corpus["realizations"]
    assert reps
    checked = 0
    for g, sigma, rep in reps:
        derived = rep.induced_order()
        rel = sorted(derived.pairs)
        apex = rep.apex
        for i, (a0, b0) in enumerate(rel):
            for a1, b1 in rel[i + 1 :]:
                if derived.less(a0, b1) or derived.less(a1, b0):
                    continue
                votes = (
                    apex[a0] < apex[a1],
                    apex[b0] < apex[a1],
                    apex[b0] < apex[b1],
                    apex[a0] < apex[b1],
                )
                assert all(votes) or not any(votes), (sorted(g.edges), sigma, (a0, b0, a1, b1))
                checked += 1
    assert checked > 0


def test_07_every_transitive_complement_orientation_extends(
    small_graphs, recognition_results
):
    """Accepted graphs n <= 5: every transitive orientation of the complement
    joins some alternating orientation of the graph into an acyclic union.
    Existence of any such pair coincides with acceptance."""
    from simpletri.oracles import has_alternating_transitive_pair

    for n in range(6):
        for g, rec in zip(small_graphs[n], recognition_results[n]):
            assert has_alternating_transitive_pair(g) == (rec is not None), sorted(
                g.edges
            )
            if rec is None:
                with pytest.raises(NotSimpleTriangle):
                    all_transitive_complements_extend(g)
            else:
                assert all_transitive_complements_extend(g), sorted(g.edges)


def test_08_permutation_graphs_are_accepted(small_graphs, recognition_results,
                                           ordering_predicates):
    """Graphs with both a comparability and a cocomparability ordering are
    never rejected."""
    found_permutation_graphs = 0
    for n in range(6):
        for g, rec in zip(small_graphs[n], recognition_results[n]):
            has_cocomp, has_comp = map(any, zip(*ordering_predicates[g]))
            if has_comp and has_cocomp:
                found_permutation_graphs += 1
                assert rec is not None, sorted(g.edges)
    assert found_permutation_graphs > 1000


def test_09_geometry_cross_check():
    """Combinatorial disjointness equals exact closed intersection on 10^4
    random pairs; boundary-touching pairs occur only at base abutments."""
    rng = random.Random(RANDOM_SEED)
    touching = 0
    for _ in range(10_000):
        t = random_triangle_pair(rng)
        overlap = exact_triangle_intersection(t, 0, 1)
        assert (not triangles_disjoint(t, 0, 1)) == overlap
        if overlap and not triangle_interiors_intersect(t, 0, 1):
            touching += 1
            (ul, ur), (vl, vr) = t.base
            au, av = t.apex
            assert (au < av and ur == vl) or (av < au and vr == ul)
    assert touching > 0


def _load_fixture_graph(name):
    path = os.path.join(FIXTURE_DIR, name)
    if not os.path.exists(path):
        return None
    from simpletri.io import load_graph

    return load_graph(path)


def test_10a_separating_example_corpus_slot():
    """Alternately orientable cocomparability graph that is rejected; its
    10-vertex edge set exists only as a drawing and must be transcribed by
    hand into tests/fixtures/wbar.edges to enable this check."""
    g = _load_fixture_graph("wbar.edges")
    if g is None:
        pytest.skip("wbar.edges not transcribed; corpus slot intentionally empty")
    from simpletri.oracles import enumerate_orientations

    assert any(
        is_cocomparability_ordering(g, sigma)
        for sigma in permutations(range(g.n))
    )
    assert next(iter(enumerate_orientations(g, "alternating", limit=32)), None) is not None
    assert recognize(g) is None


def test_separating_example_with_nine_vertices():
    """A computed graph that Ḡ orients transitively and G alternately, yet
    that is rejected, by the pair oracle too, while every one-vertex
    deletion is realized: a minimal separating example."""
    g = _load_fixture_graph("separating-n9.edges")
    assert recognize(g) is None
    assert transitive_orientation(complement(g)) is not None
    assert next(enumerate_orientations(g, "alternating", limit=len(g.edges)), None) is not None
    assert geometric_search_realization(g, limit=9) is None
    assert not has_alternating_transitive_pair(g, limit=9)
    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        h = Graph.from_edges(
            g.n - 1,
            [(keep.index(a), keep.index(b)) for a, b in g.edges if v not in (a, b)],
        )
        assert recognize(h) is not None
        t = geometric_search_realization(h, limit=8)
        assert t is not None and verify_representation(h, t)


def test_10b_orientation_nonuniqueness_corpus_slot():
    """Accepted graph with several alternating orientations over a uniquely
    (up to reversal) orientable complement; transcribe its edge set into
    tests/fixtures/ivbar.edges to enable this check."""
    g = _load_fixture_graph("ivbar.edges")
    if g is None:
        pytest.skip("ivbar.edges not transcribed; corpus slot intentionally empty")
    from simpletri.oracles import enumerate_orientations

    assert recognize(g) is not None
    transitive_complement = list(
        enumerate_orientations(complement(g), "transitive", limit=32)
    )
    assert len(transitive_complement) == 2
    alternating = list(enumerate_orientations(g, "alternating", limit=32))
    assert len(alternating) > 2
