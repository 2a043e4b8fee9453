"""The 2-SAT decision of linear-interval orders against the plain search.

``orders._first_interval_extension`` runs the search of
:mod:`simpletri.patterns` with :class:`simpletri.twosat.IntervalFormula` as
its rule, and decides the formula at the first branch the rule refuses.
These tests pin the formula's verdict and the rule search's answer to the
plain search, whose rule is a ``PatternRule`` on p1 and p2, check
that the rule search never backtracks on the exhaustive corpora, guard each
piece of the formula and of its decision with a small order that needs it,
check its propagation against a naive fixpoint over the two clause
families, check that the formula is sized by the elements, run the rule search on
triangle graphs with n = 40, and pin the two families that were exponential
before.
"""
import random

import pytest
from hypothesis import example, given, settings

from simpletri import orders
from simpletri.exhaustive import naturally_ordered_relations
from simpletri.graphs import Graph
from simpletri.orders import (
    build_interval_representation,
    make_partial_order,
    recognize_linear_interval_order,
)
from simpletri.patterns import search_orderings
from simpletri.recognition import apex_ordering, is_simple_triangle, realize
from simpletri.triangles import verify_representation
from simpletri.twosat import IntervalFormula

from references import CROWN_RELATIONS, PRISM_EDGES, engine_extension
from strategies import orders_with_extension, triangle_graph

# No order with n <= 6 needs the negation branch of ``satisfiable``; this one does.
FIRST_LITERAL_CONFLICTS = {
    0: (4, 5, 7, 8, 9, 11, 12), 1: (5, 7, 9, 11, 12), 2: (5, 7, 9, 12), 3: (5, 7, 8),
    4: (5, 7, 8, 11, 12), 5: (7,), 6: (1, 5, 7, 9, 11, 12), 8: (5, 7), 9: (7, 12),
    10: (4, 5, 7, 8, 9, 11, 12), 11: (7, 12), 12: (7,),
}


def test_verdict_matches_the_search_on_naturally_ordered_relations(backtracks):
    rejected = 0
    for n in range(7):
        for p in naturally_ordered_relations(n):
            expected = engine_extension(p)
            rejected += expected is None
            assert IntervalFormula(p).satisfiable() == (expected is not None)
            assert orders._first_interval_extension(p) == expected, sorted(p.pairs)
    assert rejected == 8
    assert backtracks["refused"] > 0
    assert backtracks["backtracks"] == 0


def test_recognizer_matches_the_search_on_small_orders(small_orders, backtracks):
    for n in range(6):
        for p in small_orders[n]:
            expected = engine_extension(p)
            got = recognize_linear_interval_order(p)
            if expected is None:
                assert got is None, sorted(p.pairs)
            else:
                assert got == (expected, build_interval_representation(p, expected))
    assert backtracks["refused"] > 0
    assert backtracks["backtracks"] == 0


# Each order below needs one piece of the formula; the test fails when that
# piece is removed.


def test_transitivity_clauses():
    # the 2+2 clauses alone are met by an intransitive assignment; only
    # transitivity with one relation makes the 3-crown's formula unsatisfiable
    p = make_partial_order(6, CROWN_RELATIONS)
    assert not IntervalFormula(p).satisfiable()


def test_transitivity_clauses_after_the_pair():
    # a fence of seven elements: propagation must also put x before each
    # s >_P y incomparable to x, else the literals it sets are not closed
    # and a later one conflicts with them
    p = make_partial_order(7, [(0, 3), (0, 5), (1, 5), (1, 6), (2, 3), (2, 4)])
    assert IntervalFormula(p).satisfiable()


def test_two_plus_two_clauses():
    # without the 2+2 clauses the rule lets 1 come second, and 0 1 2 3 is a
    # 4-anticycle of 0 < 2 and 1 < 3
    p = make_partial_order(4, [(0, 2), (1, 3)])
    assert orders._first_interval_extension(p) == (0, 2, 1, 3)


def test_unit_clauses():
    # once 0 is placed, only the unit clause "1 before 4" refutes 1 as the
    # next element: with 0 < 4 and 1 < 2 it forces 2 before 0
    p = make_partial_order(5, [(0, 4), (1, 2)])
    assert orders._first_interval_extension(p) == (0, 3, 4, 1, 2)


def test_negation_of_a_conflicting_literal():
    # "0 before 1" is tried first and conflicts; only its negation shows that
    # the formula is satisfiable
    n = 13
    relations = [(u, v) for u, above in FIRST_LITERAL_CONFLICTS.items() for v in above]
    formula = IntervalFormula(make_partial_order(n, relations))
    assert formula.inc[0] & -formula.inc[0] == 1 << 1
    assert formula._assume([0] * n, [0] * n, 0, 1 << 1) is None
    assert formula.satisfiable()


def literals_of(p):
    """Every literal (x, y), "x before y": x and y distinct and unrelated."""
    return {(x, y) for x in range(p.n) for y in range(p.n) if x != y and not (p.less(x, y) or p.less(y, x))}


def implications(p):
    """Each literal mapped to the literals that one clause of the module
    doc's two families forces with it, both ways."""
    out = {}
    rel, lits = p.pairs, literals_of(p)
    inc = lambda a, b: (a, b) in lits
    for a, b in rel:
        for c in range(p.n):
            if inc(c, a) and inc(c, b):  # not "b before c" and "c before a"
                out.setdefault((b, c), []).append((a, c))
                out.setdefault((c, a), []).append((c, b))
        for a1, b1 in rel:
            if inc(a1, b) and inc(a, b1):  # not "a1 before b" and "a before b1"
                out.setdefault((a1, b), []).append((b1, a))
                out.setdefault((a, b1), []).append((b, a1))
    return out


def closure(forces, literals):
    """The literals forced by ``literals``, and whether they hold a literal
    and its negation."""
    done, todo = set(literals), list(literals)
    while todo:
        for lit in forces.get(todo.pop(), ()):
            if lit not in done:
                done.add(lit)
                todo.append(lit)
    return done, any((y, x) in done for x, y in done)


def masks(n, literals):
    bef, aft = [0] * n, [0] * n
    for x, y in literals:
        bef[x] |= 1 << y
        aft[y] |= 1 << x
    return bef, aft


@given(orders_with_extension(max_n=8))
@example((make_partial_order(8, CROWN_RELATIONS), tuple(range(8))))  # unsatisfiable
@example((make_partial_order(4, [(0, 2), (1, 3)]), (0, 1, 2, 3)))  # 1 is refused
@settings(max_examples=100, deadline=None)
def test_propagation_matches_a_naive_fixpoint(case):
    p, ext = case
    lits, forces, formula = literals_of(p), implications(p), IntervalFormula(p)
    idle = ([0] * p.n, [0] * p.n)
    # place along ext until refused, then undo back to the root
    states, tokens, unplaced = [set()], [], (1 << p.n) - 1
    for x in ext:
        unplaced ^= 1 << x
        new = {(x, y) for y in range(p.n) if unplaced >> y & 1 and (x, y) in lits}
        literals, conflict = closure(forces, states[-1] | new)
        token = formula.place(x, unplaced)
        assert (token is None) == conflict
        assert (formula.bef_due, formula.aft_due) == idle
        if token is None:
            assert (formula.bef, formula.aft) == masks(p.n, states[-1])
            break
        assert (formula.bef, formula.aft) == masks(p.n, literals)
        states.append(literals)
        tokens.append(token)
    while tokens:
        formula.undo(tokens.pop())
        states.pop()
        assert (formula.bef, formula.aft) == masks(p.n, states[-1])
    # unsatisfiable iff some literal and its negation each force a conflict
    expected = not any(closure(forces, [lit])[1] and closure(forces, [lit[::-1]])[1] for lit in lits)
    assert formula.satisfiable() == expected
    assert (formula.bef, formula.aft) == idle == (formula.bef_due, formula.aft_due)


def test_formula_is_sized_by_the_incomparable_pairs():
    # the 3-crown below a 1,000-element chain: 18 literals among n = 1,006;
    # the formula keeps a few masks per element and no list of clauses
    n = 1006
    chain = [(v, v + 1) for v in range(6, n - 1)]
    p = make_partial_order(n, CROWN_RELATIONS + [(u, 6) for u in range(6)] + chain)
    formula = IntervalFormula(p)
    state = [v for v in vars(formula).values() if not isinstance(v, int)]
    assert state and all(len(v) == n for v in state)
    assert sum(bin(m).count("1") for m in formula.inc) == 18
    assert not formula.satisfiable()


@pytest.mark.parametrize("seed", range(5))
def test_construction_realizes_triangle_graphs_with_40_vertices(seed, backtracks):
    # the extension of step 2 is an apex ordering (recognition module doc)
    g = triangle_graph(random.Random(seed), 40)
    assert is_simple_triangle(g)
    ext = apex_ordering(g)
    assert backtracks["searches"] == 2
    assert backtracks["refused"] > 0
    assert backtracks["backtracks"] == 0
    assert verify_representation(g, realize(g, ext))


@pytest.fixture
def one_abandoned_branch(monkeypatch):
    """Fail as soon as the search inside ``orders`` abandons a second branch,
    that is, when the formula did not decide after the first."""

    def counted(*args):
        branches = 0
        for item in search_orderings(*args):
            branches += item[1] is not None
            assert branches <= 1, "the search abandoned a second branch"
            yield item

    monkeypatch.setattr(orders, "search_orderings", counted)


def test_crown_with_six_free_elements_is_rejected_at_once(one_abandoned_branch):
    assert recognize_linear_interval_order(make_partial_order(12, CROWN_RELATIONS)) is None


def test_prism_with_six_universal_vertices_is_rejected_at_once(one_abandoned_branch):
    n = 12
    universal = [(u, v) for v in range(6, n) for u in range(v)]
    assert not is_simple_triangle(Graph.from_edges(n, PRISM_EDGES + universal))
