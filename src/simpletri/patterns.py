"""Ordered forbidden patterns and the one search over orderings.

Both recognizers, the rejection certificates and the linear-extension
enumeration run on :func:`search_orderings`, and only its *rule* refuses a
branch: :class:`PatternRule` by checking patterns forward (all three, alone,
in ``recognition.rejection_certificates``), and ``twosat.IntervalFormula``
by the 2-SAT relaxation of linear-interval orders, which is step 2 of both
recognizers.  Whether a given ordering is an apex ordering is decided by
building from it (``recognition.realize``); the rule's kernels are the one
matcher that looks for a pattern in it: ``graphs.find_pattern``, the C4 and
2K2 rules and the stall certificate of ``orders.build_interval_representation``
place a ``PatternRule`` along an ordering (:meth:`PatternRule.hits`), on the
input's own labels but for ``find_pattern``, which relabels by position.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Optional, Sequence

from ._bits import iter_bits, lowest_bit

__all__ = [
    "OrderedPattern",
    "PATTERN_CP",
    "PATTERN_CPC",
    "PATTERN_P1",
    "PATTERN_P2",
    "APEX_PATTERNS",
    "C4_PATTERNS",
    "PatternRule",
    "search_orderings",
]


@dataclass(frozen=True)
class OrderedPattern:
    """Edge/non-edge constraints on a tuple of ordering positions.

    Positions are 0-based ranks inside the matched subordering, 3 or 4 of
    them, the sizes the rule's kernels match; pairs not listed in either set
    are unconstrained.  ``codes`` compiles the pairs for :class:`PatternRule`,
    those ending at the last position first, then the rest in lexicographic
    order: 0 unconstrained, 1 edge, 2 non-edge.  The rule turns each code
    into a table of allowed neighbours; the pairs ending at the last
    position cut down the mask of unplaced vertices that can close the
    pattern, the others match its placed vertices.
    """

    size: int
    required_edges: frozenset[tuple[int, int]]
    required_non_edges: frozenset[tuple[int, int]]
    codes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size not in (3, 4):
            raise ValueError(f"pattern size {self.size} is not 3 or 4")
        both = self.required_edges & self.required_non_edges
        if both:
            raise ValueError(f"positions {sorted(both)} required present and absent")
        for i, j in self.required_edges | self.required_non_edges:
            if not 0 <= i < j < self.size:
                raise ValueError(f"position pair ({i}, {j}) invalid for size {self.size}")
        last = self.size - 1
        pairs = [(i, last) for i in range(last)] + list(combinations(range(last), 2))
        codes = tuple(
            1 if q in self.required_edges else 2 if q in self.required_non_edges else 0
            for q in pairs
        )
        object.__setattr__(self, "codes", codes)


def _pattern(size, edges, non_edges):
    return OrderedPattern(size, frozenset(edges), frozenset(non_edges))


# Middle vertex adjacent to both ends of a non-edge: breaks transitive
# orientability along the ordering.
PATTERN_CP = _pattern(3, [(0, 1), (1, 2)], [(0, 2)])
# An edge spanning a vertex adjacent to neither end: breaks cocomparability.
PATTERN_CPC = _pattern(3, [(0, 2)], [(0, 1), (1, 2)])
# Interleaved edge pair (0-2 and 1-3) with the inner and outer pairs absent.
PATTERN_P1 = _pattern(4, [(0, 2), (1, 3)], [(1, 2), (0, 3)])
# Nested edge pair (0-3 over 1-2) with the interleaved pairs absent.
PATTERN_P2 = _pattern(4, [(0, 3), (1, 2)], [(0, 2), (1, 3)])

APEX_PATTERNS = (("cpc", PATTERN_CPC), ("p1", PATTERN_P1), ("p2", PATTERN_P2))

# The induced 4-cycles whose diagonals (the non-edges) interleave, 0-1-2-3,
# or nest, 0-1-3-2: p2 and p1 with the pairs 0-1 and 2-3 also adjacent.
# ``graphs.fulfills_c4_rule`` forbids both.
C4_PATTERNS = (
    ("c4-p2", _pattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 2), (1, 3)])),
    ("c4-p1", _pattern(4, [(0, 1), (1, 3), (2, 3), (0, 2)], [(0, 3), (1, 2)])),
)


def _closes3(tables, upto, used, v, later):
    """Witness of a 3-vertex pattern that v, newly placed, leaves to close, or None.

    The witness is ``(x0, v, z)`` with x0 among ``used``, the vertices placed
    before v, and z among ``later``, the vertices not yet placed.  Each table
    maps a vertex to the vertices its pair of positions allows, in the order
    of ``OrderedPattern.codes``.  The candidates z form one mask that each
    placed position cuts down, so only placed positions are enumerated: O(k)
    mask operations on a k-prefix here, O(k^2) in _closes4, where
    ``upto[x0]``, the vertices placed up to x0 inclusive, keeps x1 after x0.
    """
    t02, t12, t01 = tables
    last = later & t12[v]
    if last:
        for x0 in iter_bits(used & t01[v]):
            found = last & t02[x0]
            if found:
                return (x0, v, lowest_bit(found))
    return None


def _closes4(tables, upto, used, v, later):
    t03, t13, t23, t01, t02, t12 = tables
    last = later & t23[v]
    middle = used & t12[v]
    if last and middle:
        for x0 in iter_bits(used & t02[v]):
            last0 = last & t03[x0]
            if last0:
                for x1 in iter_bits(middle & ~upto[x0] & t01[x0]):
                    found = last0 & t13[x1]
                    if found:
                        return (x0, x1, v, lowest_bit(found))
    return None


_CLOSES = {3: _closes3, 4: _closes4}


class PatternRule:
    """Forward checking of ``patterns`` on the graph ``adj`` as a rule of
    :func:`search_orderings` (Haralick and Elliott, "Increasing tree search
    efficiency for constraint satisfaction problems", Artificial
    Intelligence 14, 1980).

    ``place(v, unplaced)`` refuses v when v is second to last in an instance
    of a pattern whose last vertex z is unplaced and the rest placed: z must
    come later, whether or not ``pred`` lets it come next.  ``hit`` records
    the first such pattern's name and witness, which ends at z and is the
    least such one by label; only ``graphs.find_pattern`` relabels the graph
    by position first, so that it is the least by position.  Every instance
    is found at its second-to-last vertex, so the complete orderings are
    exactly the pattern-avoiding ones.
    """

    def __init__(self, adj: Sequence[int], patterns: Sequence[tuple[str, OrderedPattern]]):
        n = len(adj)
        by_code = ((-1,) * n, adj, [~mask for mask in adj])
        self.compiled = [(name, _CLOSES[pat.size], [by_code[c] for c in pat.codes])
                         for name, pat in patterns]
        self.full = (1 << n) - 1
        self.upto = [0] * n

    def place(self, v: int, unplaced: int) -> Optional[bool]:
        """True, or None when v closes a pattern (recorded in ``hit``)."""
        self.upto[v] = placed = self.full & ~unplaced
        used = placed & ~(1 << v)
        for name, closes, tables in self.compiled:
            witness = closes(tables, self.upto, used, v, unplaced)
            if witness is not None:
                self.hit = name, witness
                return None
        return True

    def undo(self, token: bool) -> None:
        """Nothing to restore: ``upto[v]`` is rewritten whenever v is placed."""

    def hits(self, ordering: Sequence[int]) -> Iterator[tuple[str, tuple[int, ...]]]:
        """Place the whole ``ordering``, one vertex after another, and yield
        ``hit`` at each vertex that is second to last in an instance."""
        unplaced = self.full
        for v in ordering:
            unplaced ^= 1 << v
            if self.place(v, unplaced) is None:
                yield self.hit


def search_orderings(
    pred: Sequence[int], rule=None
) -> Iterator[tuple[tuple[int, ...], Optional[str]]]:
    """Depth-first search over orderings of ``0..len(pred)-1`` in lexicographic order.

    Vertex v may be placed once all of the bitmask ``pred[v]`` is.  Then an
    optional ``rule`` is asked ``rule.place(v, unplaced)``, with the mask of
    the vertices not yet placed.  None refuses v: the search yields
    ``(branch, "refused")``, the branch ending at v.  Any other value is a
    token for ``rule.undo`` when the search leaves the branch.  Complete
    orderings are yielded as ``(ordering, None)``.  The next vertex to try
    at each depth is kept on an explicit stack, not Python's call stack.
    """
    n = len(pred)
    full = (1 << n) - 1
    prefix: list[int] = []
    tokens = []  # per placed vertex, what ``rule.place`` returned
    tries = [0]  # per depth, the least vertex not yet tried there
    used = 0
    while tries:
        v = tries[-1]
        if used == full:
            yield tuple(prefix), None
            v = n
        while v < n and (used >> v & 1 or pred[v] & ~used):
            v += 1
        if v == n:
            tries.pop()
            if prefix:
                used ^= 1 << prefix.pop()
                if rule is not None:
                    rule.undo(tokens.pop())
            continue
        tries[-1] = v + 1
        if rule is not None:
            token = rule.place(v, full & ~used & ~(1 << v))
            if token is None:
                yield (*prefix, v), "refused"
                continue
            tokens.append(token)
        prefix.append(v)
        used |= 1 << v
        tries.append(0)
