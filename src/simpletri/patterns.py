"""Ordered forbidden patterns and the one search over orderings that avoids them.

Both recognizers, the rejection certificates and the linear-extension
enumeration run on :func:`search_orderings`, with different patterns and
precedence relations; one given ordering is checked by ``graphs.find_pattern``.
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
    in lexicographic order: 0 unconstrained, 1 edge, 2 non-edge.
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


def _completes3(tables, upto, used, z):
    """Witness of a 3-vertex pattern ending at the newest vertex z, or None.

    ``used`` holds the vertices placed before z, ``upto[x]`` those up to x
    inclusive; each table maps a vertex to the vertices its pair allows.  The
    last earlier position is only tested, never enumerated: O(k) mask
    operations on a k-prefix here, O(k^2) in _completes4.
    """
    z0, z1, t01 = tables
    last = used & z1[z]
    if last:
        for x0 in iter_bits(used & z0[z]):
            found = last & ~upto[x0] & t01[x0]
            if found:
                return (x0, lowest_bit(found), z)
    return None


def _completes4(tables, upto, used, z):
    z0, z1, z2, t01, t02, t12 = tables
    last = used & z2[z]
    if last:
        middle = used & z1[z]
        for x0 in iter_bits(used & z0[z]):
            after0 = ~upto[x0]
            last0 = last & after0 & t02[x0]
            if last0:
                for x1 in iter_bits(middle & after0 & t01[x0]):
                    found = last0 & ~upto[x1] & t12[x1]
                    if found:
                        return (x0, x1, lowest_bit(found), z)
    return None


_COMPLETES = {3: _completes3, 4: _completes4}


def search_orderings(
    adj: Sequence[int],
    pred: Sequence[int],
    patterns: Sequence[tuple[str, OrderedPattern]],
) -> Iterator[tuple[tuple[int, ...], Optional[tuple[str, tuple[int, ...]]]]]:
    """Depth-first search over orderings of ``0..len(pred)-1`` in lexicographic order.

    Vertex v may be placed once all of the bitmask ``pred[v]`` is.  Yields
    ``(prefix, (name, witness))`` for each prefix whose newest vertex
    completes one of the 3- or 4-position ``patterns`` on the graph ``adj``
    (the first such), and ``(ordering, None)`` for each complete ordering.
    Pruning is sound: a pattern lies within the prefix ending at its last vertex.
    The witness ends at the newest vertex; its earlier vertices are picked by
    vertex label, not by prefix position as ``graphs.find_pattern`` does.
    """
    n = len(pred)
    by_code = ((-1,) * n, adj, [~mask for mask in adj])
    compiled = [
        (name, _COMPLETES[pat.size], [by_code[c] for c in pat.codes])
        for name, pat in patterns
    ]
    full = (1 << n) - 1
    upto = [0] * n
    prefix: list[int] = []

    def extend(used: int):
        if used == full:
            yield tuple(prefix), None
            return
        for v in range(n):
            if used >> v & 1 or pred[v] & ~used:
                continue
            upto[v] = used | 1 << v
            prefix.append(v)
            for name, completes, tables in compiled:
                witness = completes(tables, upto, used, v)
                if witness is not None:
                    yield tuple(prefix), (name, witness)
                    break
            else:
                yield from extend(upto[v])
            prefix.pop()

    return extend(0)
