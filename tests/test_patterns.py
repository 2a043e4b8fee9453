"""The pattern search engine against the references it replaced.

Both recognizers and the extension enumeration run on
:func:`simpletri.patterns.search_orderings`; these tests pin its answers to
the plain scanners: ``find_pattern`` over every permutation for graphs, and
enumerate-then-filter by the anticycle search for orders.
"""
import random
from itertools import permutations

from simpletri.exhaustive import (
    naturally_ordered_relations,
    random_partial_order,
    relabel_order,
)
from simpletri.graphs import APEX_PATTERNS, PATTERN_P1, PATTERN_P2, Graph, find_pattern
from simpletri.orders import (
    enumerate_linear_extensions,
    find_alternating_anticycle,
    make_partial_order,
    recognize_linear_interval_order,
)
from simpletri.recognition import recognize

SEED = 20261017
CROWN = [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]


def test_two_plus_two_rule_is_the_p1_p2_pair():
    """An extension has no 4-anticycle iff it avoids p1 and p2 on the
    comparability graph; every order with n <= 6 under the identity, which
    covers all (order, extension) pairs up to relabeling."""
    checked = 0
    for n in range(7):
        ext = tuple(range(n))
        for p in naturally_ordered_relations(n):
            comparability = Graph(n, p.pairs)
            clean = all(
                find_pattern(comparability, ext, pat) is None
                for pat in (PATTERN_P1, PATTERN_P2)
            )
            assert (find_alternating_anticycle(p, ext, k_max=2) is None) == clean
            checked += 1
    assert checked == 1 + 1 + 2 + 7 + 40 + 357 + 4824


def test_order_recognition_matches_enumerate_then_filter():
    """Random orders are nearly all accepted, so every other instance is a
    3-crown (rejected, as the class is closed under suborders) next to a
    random order on up to two more elements, randomly relabeled."""
    rng = random.Random(SEED)
    outcomes = set()
    for i in range(60):
        n = rng.randint(6, 8)
        p = random_partial_order(rng, n)
        if i % 2:
            rest = [(u + 6, v + 6) for u, v in random_partial_order(rng, n - 6).pairs]
            labels = list(range(n))
            rng.shuffle(labels)
            p = relabel_order(make_partial_order(n, CROWN + rest), tuple(labels))
        expected = next(
            (
                ext
                for ext in enumerate_linear_extensions(p)
                if find_alternating_anticycle(p, ext, k_max=2) is None
            ),
            None,
        )
        got = recognize_linear_interval_order(p)
        assert (None if got is None else got[0]) == expected, sorted(p.pairs)
        outcomes.add(expected is None)
    assert outcomes == {False, True}


def test_graph_recognition_matches_permutation_scan():
    rng = random.Random(SEED)
    outcomes = set()
    for _ in range(30):
        n = rng.randint(6, 7)
        density = rng.uniform(0.2, 0.8)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        )
        expected = next(
            (
                sigma
                for sigma in permutations(range(n))
                if all(find_pattern(g, sigma, pat) is None for _, pat in APEX_PATTERNS)
            ),
            None,
        )
        got = recognize(g)
        assert (None if got is None else got[0]) == expected, sorted(g.edges)
        outcomes.add(expected is None)
    assert outcomes == {False, True}
