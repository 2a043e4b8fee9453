from itertools import permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from simpletri.errors import CycleError, NotAnExtension, SizeMismatch
from simpletri.exhaustive import all_partial_orders, relabel_order
from simpletri.orders import (
    Anticycle,
    IntervalRepresentation,
    PartialOrder,
    build_interval_representation,
    enumerate_linear_extensions,
    find_alternating_anticycle,
    intersect_orders,
    is_linear_extension,
    is_valid_anticycle,
    linear_order,
    make_partial_order,
    recognize_linear_interval_order,
)

from references import is_interval_order
from strategies import orders_with_extension, partial_orders

CHAIN3 = make_partial_order(3, [(0, 1), (1, 2)])
TWO_PLUS_TWO = make_partial_order(4, [(0, 2), (1, 3)])


def brute_force_extensions(p):
    return [
        perm
        for perm in permutations(range(p.n))
        if all(perm.index(u) < perm.index(v) for u, v in p.pairs)
    ]


class TestMakePartialOrder:
    def test_closure_adds_transitive_pair(self):
        assert (0, 2) in CHAIN3.pairs

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            make_partial_order(2, [(0, 1), (1, 0)])

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleError):
            make_partial_order(3, [(0, 1), (1, 2), (2, 0)])

    def test_antichain(self):
        p = make_partial_order(4, [])
        assert p.pairs == frozenset()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            make_partial_order(2, [(0, 5)])

    def test_direct_construction_requires_closure(self):
        with pytest.raises(ValueError, match="not transitively closed"):
            PartialOrder(3, (0b010, 0b100, 0))

    @pytest.mark.parametrize(
        "succ, message",
        [
            ((0b010, 0), "2 successor masks"),
            ((0b1000, 0, 0), "out of range"),
            ((0, -0b100, 0), "out of range"),
            ((0, 0b010, 0), "irreflexivity"),
        ],
        ids=["mask-count", "bit-beyond-n", "negative-mask", "reflexive-bit"],
    )
    def test_direct_construction_rejects_malformed_masks(self, succ, message):
        with pytest.raises(ValueError, match=message):
            PartialOrder(3, succ)

    def test_direct_construction_derives_pred_and_pairs(self):
        p = PartialOrder(3, [0b110, 0b100, 0])
        assert p.succ == (0b110, 0b100, 0) and p.pred == (0, 0b001, 0b011)
        assert p.pairs == frozenset([(0, 1), (0, 2), (1, 2)])
        assert p == CHAIN3 and hash(p) == hash(CHAIN3)

    @given(partial_orders(max_n=7))
    def test_rebuilt_from_its_pairs(self, p):
        assert make_partial_order(p.n, p.pairs) == p


class TestLinearExtensions:
    def test_chain_respected(self):
        assert is_linear_extension(CHAIN3, (0, 1, 2))
        assert not is_linear_extension(make_partial_order(2, [(0, 1)]), (1, 0))

    def test_antichain_unconstrained(self):
        p = make_partial_order(3, [])
        for perm in permutations(range(3)):
            assert is_linear_extension(p, perm)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            is_linear_extension(CHAIN3, (0, 1))

    def test_matches_pairwise_definition(self):
        for n in range(5):
            for p in all_partial_orders(n):
                for perm in permutations(range(n)):
                    pos = {v: i for i, v in enumerate(perm)}
                    expect = all(pos[u] < pos[v] for u, v in p.pairs)
                    assert is_linear_extension(p, perm) == expect

    def test_chain_has_single_extension(self):
        assert list(enumerate_linear_extensions(CHAIN3)) == [(0, 1, 2)]

    def test_antichain_has_all_permutations(self):
        p = make_partial_order(3, [])
        assert len(list(enumerate_linear_extensions(p))) == 6

    def test_two_plus_two_has_six(self):
        exts = list(enumerate_linear_extensions(TWO_PLUS_TWO))
        assert len(exts) == 6
        assert exts == brute_force_extensions(TWO_PLUS_TWO)

    @given(partial_orders(max_n=5))
    def test_matches_brute_force_filter(self, p):
        assert list(enumerate_linear_extensions(p)) == brute_force_extensions(p)


class TestAnticycles:
    def test_two_plus_two_bad_extension(self):
        ac = find_alternating_anticycle(TWO_PLUS_TWO, (0, 1, 2, 3))
        assert ac == Anticycle(a=(0, 1), b=(2, 3))
        assert ac.elements() == (0, 2, 1, 3)
        assert is_valid_anticycle(TWO_PLUS_TWO, (0, 1, 2, 3), ac)

    def test_two_plus_two_good_extension(self):
        assert find_alternating_anticycle(TWO_PLUS_TWO, (0, 2, 1, 3)) is None

    def test_shorter_anticycle_found_first(self):
        # solid pairs i -> i+3 plus 0->4, 1->5, 2->3; the identity extension
        # has both a 4-anticycle and a 6-anticycle
        p = make_partial_order(6, [(0, 3), (1, 4), (2, 5), (0, 4), (1, 5), (2, 3)])
        ext = (0, 1, 2, 3, 4, 5)
        ac = find_alternating_anticycle(p, ext)
        assert ac.a == (0, 1) and ac.b == (3, 5)

    @pytest.mark.parametrize("a, b", [((0, 1, 2), (3, 4, 5)), ((0,), (1,)), ((0, 1), (1, 2))])
    def test_anticycle_is_two_pairs_of_four_distinct_elements(self, a, b):
        # by the 2+2 rule only 4-anticycles occur, so a longer one is refused
        with pytest.raises(ValueError, match="two pairs of four distinct"):
            Anticycle(a, b)

    def test_not_an_extension(self):
        with pytest.raises(NotAnExtension):
            find_alternating_anticycle(TWO_PLUS_TWO, (2, 0, 1, 3))

    @pytest.mark.parametrize("order, error", [
        ((0, 1, 2), SizeMismatch), ((0, 0, 2, 3), ValueError), ((2, 0, 1, 3), NotAnExtension),
    ], ids=["short", "repeat", "not-an-extension"])
    def test_valid_anticycle_checks_the_ordering(self, order, error):
        # the peeling's check: a malformed ordering is refused, not read
        with pytest.raises(error):
            is_valid_anticycle(TWO_PLUS_TWO, order, Anticycle((0, 1), (2, 3)))

    def test_valid_anticycle_refuses_elements_out_of_range(self):
        # -4 would index element 0, which does complete a 2+2 with 1, 2 and 3
        assert not is_valid_anticycle(TWO_PLUS_TWO, (0, 1, 2, 3), Anticycle((-4, 1), (2, 3)))
        assert not is_valid_anticycle(TWO_PLUS_TWO, (0, 1, 2, 3), Anticycle((0, 1), (2, 4)))

    def test_k_max_bounds_search(self):
        p = make_partial_order(6, [(0, 3), (1, 4), (2, 5), (0, 4), (1, 5), (2, 3)])
        assert find_alternating_anticycle(p, (0, 1, 2, 3, 4, 5), k_max=1) is None

    def test_default_k_max_on_anticycle_free_extension(self):
        # unit-interval order u < v iff v - u > 3: the identity extension has
        # intervals, so no anticycle of any length; one scan answers at once
        n = 24
        p = make_partial_order(n, [(u, v) for u in range(n) for v in range(u + 4, n)])
        assert find_alternating_anticycle(p, range(n)) is None
        assert isinstance(build_interval_representation(p, range(n)), IntervalRepresentation)

    @given(orders_with_extension(max_n=7))
    def test_found_anticycles_are_valid(self, pair):
        p, ext = pair
        ac = find_alternating_anticycle(p, ext)
        if ac is not None:
            assert is_valid_anticycle(p, ext, ac)

    @given(orders_with_extension(max_n=6), st.permutations(range(6)))
    def test_existence_invariant_under_relabeling(self, pair, raw_perm):
        p, ext = pair
        perm = tuple(raw_perm[: p.n])
        if sorted(perm) != list(range(p.n)):
            perm = tuple(range(p.n))
        q = relabel_order(p, perm)
        q_ext = tuple(perm[v] for v in ext)
        before = find_alternating_anticycle(p, ext, k_max=2) is not None
        after = find_alternating_anticycle(q, q_ext, k_max=2) is not None
        assert before == after


def induced_two_plus_twos(p):
    rel = sorted(p.pairs)
    for i, (a, b) in enumerate(rel):
        for c, d in rel[i + 1 :]:
            if not p.less(a, d) and not p.less(c, b):
                yield (a, b), (c, d)


class TestTwoPlusTwoRuleLink:
    def test_four_anticycle_iff_some_two_plus_two_undischarged(self):
        # exhaustive over all orders and extensions with n <= 4
        for n in range(5):
            for p in all_partial_orders(n):
                for ext in enumerate_linear_extensions(p):
                    pos = {v: i for i, v in enumerate(ext)}
                    violated = any(
                        not (pos[b0] < pos[a1] or pos[b1] < pos[a0])
                        for (a0, b0), (a1, b1) in induced_two_plus_twos(p)
                    )
                    found = find_alternating_anticycle(p, ext, k_max=2) is not None
                    assert found == violated

    @given(orders_with_extension(max_n=7))
    def test_link_on_random_instances(self, pair):
        p, ext = pair
        pos = {v: i for i, v in enumerate(ext)}
        violated = any(
            not (pos[b0] < pos[a1] or pos[b1] < pos[a0])
            for (a0, b0), (a1, b1) in induced_two_plus_twos(p)
        )
        assert violated == (find_alternating_anticycle(p, ext, k_max=2) is not None)


class TestBuildIntervalRepresentation:
    def test_chain(self):
        rep = build_interval_representation(CHAIN3, (0, 1, 2))
        assert rep.intervals == ((1, 2), (3, 4), (5, 6))

    def test_antichain_pair(self):
        p = make_partial_order(2, [])
        rep = build_interval_representation(p, (0, 1))
        assert rep.intervals == ((1, 2), (1, 2))

    def test_two_plus_two_good_extension(self):
        rep = build_interval_representation(TWO_PLUS_TWO, (0, 2, 1, 3))
        assert rep.intervals == ((1, 4), (1, 2), (5, 6), (3, 4))
        recovered = intersect_orders(linear_order((0, 2, 1, 3)), rep.induced_order())
        assert recovered == TWO_PLUS_TWO

    def test_two_plus_two_stall_returns_witness(self):
        out = build_interval_representation(TWO_PLUS_TWO, (0, 1, 2, 3))
        assert isinstance(out, Anticycle)
        assert is_valid_anticycle(TWO_PLUS_TWO, (0, 1, 2, 3), out)

    def test_empty_order(self):
        p = make_partial_order(0, [])
        rep = build_interval_representation(p, ())
        assert rep.intervals == ()

    def test_not_an_extension(self):
        with pytest.raises(NotAnExtension):
            build_interval_representation(CHAIN3, (2, 1, 0))

    @given(orders_with_extension(max_n=9))
    @settings(max_examples=300)
    def test_contract_or_witness(self, pair):
        p, ext = pair
        out = build_interval_representation(p, ext)
        if isinstance(out, IntervalRepresentation):
            assert all(
                1 <= lo < hi <= 2 * p.n for lo, hi in out.intervals
            )
            assert intersect_orders(linear_order(ext), out.induced_order()) == p
            assert find_alternating_anticycle(p, ext, k_max=2) is None
        else:
            assert is_valid_anticycle(p, ext, out)
            assert find_alternating_anticycle(p, ext) is not None


class TestIntersectOrders:
    def test_idempotent(self):
        assert intersect_orders(CHAIN3, CHAIN3) == CHAIN3

    def test_chain_with_antichain(self):
        antichain = make_partial_order(3, [])
        assert intersect_orders(linear_order((0, 1, 2)), antichain) == antichain

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            intersect_orders(CHAIN3, make_partial_order(2, []))

    @given(partial_orders(max_n=6), partial_orders(max_n=6))
    def test_output_always_valid(self, p1, p2):
        if p1.n != p2.n:
            with pytest.raises(SizeMismatch):
                intersect_orders(p1, p2)
            return
        out = intersect_orders(p1, p2)
        assert out.pairs == p1.pairs & p2.pairs  # constructor re-validates


class TestIsIntervalOrder:
    def test_chain(self):
        assert is_interval_order(CHAIN3)

    def test_two_plus_two(self):
        assert not is_interval_order(TWO_PLUS_TWO)

    def test_antichain(self):
        assert is_interval_order(make_partial_order(3, []))

    def test_matches_induced_two_plus_twos(self):
        # exhaustive over all 4,474 labeled orders with n <= 5
        for n in range(6):
            for p in all_partial_orders(n):
                has_two_plus_two = next(induced_two_plus_twos(p), None) is not None
                assert is_interval_order(p) == (not has_two_plus_two), sorted(p.pairs)

    @given(partial_orders(max_n=6))
    def test_matches_representation_existence(self, p):
        # an interval order is realizable with EVERY extension, a non-interval
        # order has at least one failing extension
        failing = any(
            isinstance(build_interval_representation(p, ext), Anticycle)
            or intersect_orders(
                linear_order(ext),
                build_interval_representation(p, ext).induced_order(),
            )
            != p
            for ext in enumerate_linear_extensions(p)
        )
        assert failing == (not is_interval_order(p))


class TestRecognizeLinearIntervalOrder:
    def test_linear_order_accepts_itself(self):
        p = linear_order((0, 1, 2))
        ext, rep = recognize_linear_interval_order(p)
        assert ext == (0, 1, 2)
        assert intersect_orders(linear_order(ext), rep.induced_order()) == p

    def test_interval_order_accepted(self):
        rep = IntervalRepresentation(((1, 4), (2, 6), (5, 7), (8, 9)))
        p = rep.induced_order()
        assert is_interval_order(p)
        assert recognize_linear_interval_order(p) is not None

    def test_two_plus_two_accepted(self):
        ext, rep = recognize_linear_interval_order(TWO_PLUS_TWO)
        assert ext == (0, 2, 1, 3)
        assert intersect_orders(linear_order(ext), rep.induced_order()) == TWO_PLUS_TWO

    def test_crown_rejected(self):
        # three-element crown: smallest order whose every extension has a
        # 4-anticycle, found by exhausting the six-element corpus
        crown = make_partial_order(
            6, [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]
        )
        assert recognize_linear_interval_order(crown) is None
