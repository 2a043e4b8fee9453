"""The pattern search engine against the references it replaced.

Both recognizers and the extension enumeration run on
:func:`simpletri.patterns.search_orderings`, and the forward pattern check
is its rule :class:`simpletri.patterns.PatternRule`; these tests pin the
two to plain scanners that share no code with them: the reference tuple
scan ``references.scan_pattern`` over every permutation for graphs, and
enumerate-then-filter by the anticycle search for orders.  The
whole yield stream is pinned, not only its first ordering: the complete
orderings are exactly the clean ones in lexicographic order, and every
refused branch carries a real pattern and is one no clean ordering lies in.
A synthetic rule, composed with a ``PatternRule``, pins the contract of the
search's ``rule`` argument.
"""
import random
from itertools import combinations, permutations

import pytest

from simpletri.exhaustive import (
    naturally_ordered_relations,
    random_partial_order,
    relabel_order,
)
from simpletri.graphs import Graph
from simpletri.orders import (
    enumerate_linear_extensions,
    find_alternating_anticycle,
    is_linear_extension,
    make_partial_order,
    recognize_linear_interval_order,
)
from simpletri.patterns import APEX_PATTERNS, OrderedPattern, PatternRule, search_orderings
from simpletri.recognition import recognize, rejection_certificates

from references import CROWN_RELATIONS, INTERVAL_PATTERNS, avoids_apex_patterns, scan_pattern

SEED = 20261017


def random_graph(rng, n):
    density = rng.uniform(0.2, 0.8)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    )


def crown_or_random_order(rng, i, n):
    """Random orders are nearly all accepted, so every other instance is a
    3-crown (rejected, as the class is closed under suborders) next to a
    random order on up to two more elements, randomly relabeled."""
    if not i % 2:
        return random_partial_order(rng, n)
    rest = [(u + 6, v + 6) for u, v in random_partial_order(rng, n - 6).pairs]
    labels = list(range(n))
    rng.shuffle(labels)
    return relabel_order(make_partial_order(n, CROWN_RELATIONS + rest), tuple(labels))


def split_stream(pred, rule):
    """The complete orderings of the search with a ``PatternRule``, and per
    refused branch its certificate: the branch followed by the vertex that
    closes the witness, the pattern's name, and the witness."""
    complete, pruned = [], []
    for ordering, hit in search_orderings(pred, rule):
        if hit is None:
            complete.append(ordering)
        else:
            name, witness = rule.hit
            pruned.append(((*ordering, witness[-1]), name, witness))
    return complete, pruned


def assert_certificates(g, patterns, certificates, clean):
    """Each certificate is real and dead.

    Real: its prefix is a branch followed by one vertex not on it, and the
    witness is a subsequence of the prefix ending at that vertex on which
    the reference scan finds the named pattern.  Dead: no clean ordering
    starts with the branch.
    """
    by_name = dict(patterns)
    starts = {s[:k] for s in clean for k in range(g.n + 1)}
    matched = set()
    for prefix, name, witness in certificates:
        assert witness[-1] == prefix[-1] not in prefix[:-1], prefix
        assert witness == tuple(v for v in prefix if v in witness), prefix
        assert prefix[:-1] not in starts, (sorted(g.edges), prefix)
        if (name, witness) not in matched:
            k = len(witness)
            sub = Graph.from_edges(
                k, [(i, j) for i, j in combinations(range(k), 2) if g.adjacent(witness[i], witness[j])]
            )
            assert scan_pattern(sub, tuple(range(k)), by_name[name]) == tuple(range(k))
            matched.add((name, witness))


@pytest.mark.parametrize("size", [0, 1, 2, 5])
def test_pattern_sizes_other_than_three_and_four_are_refused(size):
    """The rule's kernels match 3 and 4 positions only."""
    with pytest.raises(ValueError, match="not 3 or 4"):
        OrderedPattern(size, frozenset(), frozenset())


def interval_instances(p):
    """Each 4-set of elements that is a p1 or p2 instance, by the scan, on
    the comparability graph of ``p`` under the identity, with its name."""
    for quad in combinations(range(p.n), 4):
        sub = Graph(4, [(i, j) for i, j in combinations(range(4), 2) if p.less(quad[i], quad[j])])
        for name, pat in INTERVAL_PATTERNS:
            if scan_pattern(sub, range(4), pat):
                yield quad, name


def test_two_plus_two_rule_is_the_p1_p2_pair():
    """An extension has no 4-anticycle iff it avoids p1 and p2 on the
    comparability graph; every order with n <= 6 under the identity, which
    covers all (order, extension) pairs up to relabeling.  The certificate's
    four elements, in extension order, are the p1 instance (a0, a1, b0, b1)
    or the p2 instance (a0, a1, b1, b0), and the first along the extension:
    no instance has an earlier third element."""
    checked = 0
    for n in range(7):
        ext = tuple(range(n))
        for p in naturally_ordered_relations(n):
            comparability = Graph(n, p.pairs)
            clean = all(
                scan_pattern(comparability, ext, pat) is None for _, pat in INTERVAL_PATTERNS
            )
            ac = find_alternating_anticycle(p, ext, k_max=2)
            assert (ac is None) == clean
            if ac is not None:
                instances = dict(interval_instances(p))
                (a0, a1), (b0, b1) = ac.a, ac.b
                quad = tuple(sorted(ac.elements()))
                assert (quad, instances.get(quad)) in {
                    ((a0, a1, b0, b1), "p1"), ((a0, a1, b1, b0), "p2")
                }
                assert quad[2] == min(other[2] for other in instances)
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
            p = relabel_order(make_partial_order(n, CROWN_RELATIONS + rest), tuple(labels))
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
            (sigma for sigma in permutations(range(n)) if avoids_apex_patterns(g, sigma)), None
        )
        got = recognize(g)
        assert (None if got is None else got[0]) == expected, sorted(g.edges)
        outcomes.add(expected is None)
    assert outcomes == {False, True}


def test_graph_search_yields_exactly_the_clean_permutations(small_graphs):
    """Every graph with n <= 5 and seeded ones with n = 6-7: the complete
    orderings are the permutations the reference scan clears of cpc, p1 and p2,
    in lexicographic order, and every pruned prefix is real and dead."""
    rng = random.Random(SEED)
    graphs = [g for n in range(6) for g in small_graphs[n]]
    graphs += [random_graph(rng, rng.randint(6, 7)) for _ in range(6)]
    outcomes = set()
    for g in graphs:
        clean = [sigma for sigma in permutations(range(g.n)) if avoids_apex_patterns(g, sigma)]
        complete, pruned = split_stream((0,) * g.n, PatternRule(g.adj, APEX_PATTERNS))
        assert complete == clean, sorted(g.edges)
        assert_certificates(g, APEX_PATTERNS, pruned, clean)
        outcomes.add((g.n > 5, not clean))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_order_search_yields_exactly_the_clean_extensions():
    """Seeded orders with n <= 7: the complete orderings are the linear
    extensions without p1 and p2 on the comparability graph, found by
    filtering all permutations, and every pruned prefix is real and dead."""
    rng = random.Random(SEED)
    outcomes = set()
    for i in range(60):
        p = crown_or_random_order(rng, i, rng.randint(6, 7) if i % 2 else rng.randint(3, 7))
        comparability = Graph.from_edges(p.n, p.pairs)
        clean = [
            ext
            for ext in permutations(range(p.n))
            if is_linear_extension(p, ext)
            and all(scan_pattern(comparability, ext, pat) is None for _, pat in INTERVAL_PATTERNS)
        ]
        rule = PatternRule(comparability.adj, INTERVAL_PATTERNS)
        complete, pruned = split_stream(p.pred, rule)
        assert complete == clean, sorted(p.pairs)
        assert_certificates(comparability, INTERVAL_PATTERNS, pruned, clean)
        outcomes.add((not clean, bool(pruned)))
    assert outcomes == {(False, False), (False, True), (True, True)}


class NoAdjacentPair:
    """A synthetic rule: no vertex right after one it is paired with in
    ``forbidden``, read from the rule's own stack of placed vertices, which
    only ``undo`` pops.  It records each branch it is shown and each one it
    accepts, and checks that every token comes back once, latest first."""

    def __init__(self, n, forbidden):
        self.n, self.forbidden = n, forbidden
        self.stack, self.tokens = [], []
        self.shown, self.accepted = [], []

    def accepts(self, ordering):
        return all(pair not in self.forbidden for pair in zip(ordering, ordering[1:]))

    def place(self, v, unplaced):
        branch = (*self.stack, v)
        assert unplaced == (1 << self.n) - 1 & ~sum(1 << u for u in branch)
        self.shown.append(branch)
        if not self.accepts(branch[-2:]):
            return None
        self.stack.append(v)
        self.tokens.append(len(self.accepted))
        self.accepted.append(branch)
        return self.tokens[-1]

    def undo(self, token):
        assert token == self.tokens.pop()
        self.stack.pop()


class PatternsThen:
    """A ``PatternRule`` composed with a second rule, which is shown only the
    branches the patterns let through, as ``recognition`` composes them.
    It records each branch either refuses."""

    def __init__(self, patterns, rule):
        self.patterns, self.rule = patterns, rule
        self.refused = []

    def place(self, v, unplaced):
        token = None
        if self.patterns.place(v, unplaced) is not None:
            token = self.rule.place(v, unplaced)
        if token is None:
            self.refused.append((*self.rule.stack, v))
        return token

    def undo(self, token):
        self.rule.undo(token)


def test_rule_prunes_as_a_filter_and_each_placement_is_undone_once():
    """Seeded graphs and orders with n = 5-7 under the synthetic rule
    composed with the pattern rule: the complete orderings are those of the
    pattern rule alone that the synthetic rule accepts, in order; the
    search yields exactly the branches the rule refuses, with the refused
    vertex last; the synthetic rule is never shown a branch that a pattern
    refused; the search leaves branches the rule accepted (real
    backtracks); and every accepted placement is undone exactly once."""
    rng = random.Random(SEED)
    backtracked = 0
    for i in range(40):
        n = rng.randint(5, 7)
        if i % 2:
            adj, pred, patterns = random_graph(rng, n).adj, (0,) * n, APEX_PATTERNS
        else:
            p = crown_or_random_order(rng, i, n)
            adj = tuple(s | q for s, q in zip(p.succ, p.pred))
            pred, patterns = p.pred, INTERVAL_PATTERNS
        forbidden = {(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3}
        rule = NoAdjacentPair(n, forbidden)
        both = PatternsThen(PatternRule(adj, patterns), rule)
        stream = list(search_orderings(pred, both))
        plain, abandoned = split_stream(pred, PatternRule(adj, patterns))
        complete = [o for o, hit in stream if hit is None]
        assert complete == [o for o in plain if rule.accepts(o)], (adj, pred, sorted(forbidden))
        assert [o for o, hit in stream if hit is not None] == both.refused
        assert rule.stack == rule.tokens == []
        assert not {prefix[:-1] for prefix, *_ in abandoned} & set(rule.shown)
        starts = {o[:k] for o in complete for k in range(n + 1)}
        backtracked += sum(branch not in starts for branch in rule.accepted)
    assert backtracked > 0


def test_rejection_certificates_are_real_on_rejected_graphs(graphs_up_to_six):
    """Every certificate on every rejected graph with n <= 6."""
    rejected = 0
    for facts in graphs_up_to_six:
        if facts.apex is None:
            rejected += 1
            assert_certificates(facts.g, APEX_PATTERNS, list(rejection_certificates(facts.g)), ())
    assert rejected == 12 + 2664
