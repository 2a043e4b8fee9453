"""Apex-ordering recognition of simple-triangle graphs.

A vertex ordering is an apex ordering iff it avoids the three forbidden
patterns (cpc, p1, p2).  The search for one is the pattern engine of
:mod:`simpletri.patterns`, shared with linear-interval order recognition;
an accepted ordering is turned into a triangle representation by orienting
the complement along it and building interval bases for the resulting order.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .errors import NotApexOrdering
from .graphs import Graph, find_pattern, orient_complement_by_ordering
from .orders import Anticycle, build_interval_representation
from .patterns import APEX_PATTERNS, search_orderings
from .triangles import TriangleRepresentation, order_to_triangles

__all__ = [
    "check_apex_ordering",
    "recognize",
    "realize",
    "rejection_certificates",
]


def check_apex_ordering(g: Graph, ordering: Sequence[int]) -> bool:
    """True iff the ordering avoids all three forbidden patterns."""
    return all(find_pattern(g, ordering, pat) is None for _, pat in APEX_PATTERNS)


def recognize(
    g: Graph,
) -> Optional[tuple[tuple[int, ...], TriangleRepresentation]]:
    """Lexicographically least apex ordering with its realization, or None."""
    search = search_orderings(g.adj, (0,) * g.n, APEX_PATTERNS)
    ordering = next((o for o, hit in search if hit is None), None)
    if ordering is None:
        return None
    return ordering, realize(g, ordering)


def rejection_certificates(
    g: Graph,
) -> Iterator[tuple[tuple[int, ...], str, tuple[int, ...]]]:
    """Yield (prefix, pattern name, witness) for every pruned search prefix.

    Follows the same search order as :func:`recognize`; on a rejected graph
    the yielded certificates cover every abandoned branch of the search tree.
    """
    search = search_orderings(g.adj, (0,) * g.n, APEX_PATTERNS)
    return ((prefix, *hit) for prefix, hit in search if hit is not None)


def realize(g: Graph, ordering: Sequence[int]) -> TriangleRepresentation:
    """Triangle representation whose apex order coincides with ``ordering``.

    Raises :class:`NotApexOrdering` with the offending certificate when the
    ordering contains a forbidden pattern (or, defensively, stalls the
    interval construction).
    """
    for name, pat in APEX_PATTERNS:
        witness = find_pattern(g, ordering, pat)
        if witness is not None:
            raise NotApexOrdering(f"pattern {name} at vertices {witness}")
    p = orient_complement_by_ordering(g, ordering)
    rep = build_interval_representation(p, tuple(ordering))
    if isinstance(rep, Anticycle):
        raise NotApexOrdering(f"anticycle {rep.elements()} in oriented complement")
    return order_to_triangles(ordering, rep)
