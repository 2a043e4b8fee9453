"""Ordered forbidden patterns and the one search over orderings that avoids them.

Both recognizers, the rejection certificates and the linear-extension
enumeration run on :func:`search_orderings`, with different patterns,
precedence relations and rules; ``graphs.find_pattern`` scans one ordering for
one pattern (``recognition.realize`` checks a given ordering by building).
The search checks forward: it abandons a prefix as soon as its newest vertex
is second to last in a pattern whose last vertex is still unplaced, since
that vertex must come later and the pattern is then certain to appear
(Haralick and Elliott, "Increasing tree search efficiency for constraint
satisfaction problems", Artificial Intelligence 14, 1980).
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
    "search_orderings",
]


@dataclass(frozen=True)
class OrderedPattern:
    """Edge/non-edge constraints on a tuple of ordering positions.

    Positions are 0-based ranks inside the matched subordering; pairs not
    listed in either set are unconstrained.  ``codes`` compiles the pairs
    for the search, those ending at the last position first, then the rest
    in lexicographic order: 0 unconstrained, 1 edge, 2 non-edge.  The search
    turns each code into a table of allowed neighbours; the pairs ending at
    the last position cut down the mask of unplaced vertices that can close
    the pattern, the others match its placed vertices.
    """

    size: int
    required_edges: frozenset[tuple[int, int]]
    required_non_edges: frozenset[tuple[int, int]]
    codes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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


def search_orderings(
    adj: Sequence[int],
    pred: Sequence[int],
    patterns: Sequence[tuple[str, OrderedPattern]],
    rule=None,
) -> Iterator[tuple[tuple[int, ...], Optional[tuple[str, tuple[int, ...]]]]]:
    """Depth-first search over orderings of ``0..len(pred)-1`` in lexicographic order.

    Vertex v may be placed once all of the bitmask ``pred[v]`` is.  Yields
    ``(ordering, None)`` for each complete ordering that avoids the 3- and
    4-position ``patterns`` on the graph ``adj``, and ``(prefix, (name,
    witness))`` for each abandoned branch.  A branch is abandoned as soon as
    its newest vertex v is second to last in an instance of a pattern (the
    first in ``patterns`` order) whose earlier vertices are placed and whose
    last vertex z is not: z has to come later in every completion, so the
    pattern is certain to appear (forward checking).  The yielded ``prefix``
    is the abandoned branch followed by z, and the witness ends at z; its
    earlier vertices are picked by vertex label, not by prefix position as
    ``graphs.find_pattern`` does.  z need not be placeable yet under
    ``pred``.

    Every abandoned branch is dead, since no ordering extending it avoids the
    pattern.  No pattern-avoiding ordering is lost and none containing a
    pattern is yielded: when the second-to-last vertex of any instance is
    placed, its last vertex is still unplaced and the others are placed, so
    the check at that node finds an instance.  The complete orderings yielded
    are therefore exactly the pattern-avoiding ones, in lexicographic order.
    The walk keeps the next vertex to try at each depth on an explicit stack,
    so the depth of the search is not bounded by Python's recursion limit.

    Once v passes the pattern check, an optional ``rule`` is asked
    ``rule.place(v, unplaced)``, with the mask of the vertices not yet placed.
    None refuses v and yields ``(branch, ("rule", (v,)))``; any other value
    is a token for ``rule.undo`` when the search leaves the branch.  The
    complete orderings are the pattern-avoiding ones the rule refuses nowhere.
    """
    n = len(pred)
    by_code = ((-1,) * n, adj, [~mask for mask in adj])
    compiled = [
        (name, _CLOSES[pat.size], [by_code[c] for c in pat.codes])
        for name, pat in patterns
    ]
    full = (1 << n) - 1
    upto = [0] * n
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
        upto[v] = placed = used | 1 << v
        prefix.append(v)
        for name, closes, tables in compiled:
            witness = closes(tables, upto, used, v, full & ~placed)
            if witness is not None:
                yield (*prefix, witness[-1]), (name, witness)
                break
        else:
            if rule is not None:
                token = rule.place(v, full & ~placed)
                if token is None:
                    yield tuple(prefix), ("rule", (v,))
                    prefix.pop()
                    continue
                tokens.append(token)
            used = placed
            tries.append(0)
            continue
        prefix.pop()
