"""Triangle representations: an apex on a top line, a base interval below.

A triangle lies completely to the left of another exactly when both its apex
and its base do, so disjointness is a pure coordinate comparison; everything
geometric about the class is captured by these integer tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import SizeMismatch
from .orders import IntervalRepresentation, PartialOrder, _check_permutation, _positions

__all__ = [
    "TriangleRepresentation",
    "triangles_disjoint",
    "verify_representation",
    "order_to_triangles",
]


@dataclass(frozen=True)
class TriangleRepresentation:
    """Per-vertex apex coordinate (top line) and base interval (bottom line)."""

    apex: tuple[int, ...]
    base: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.apex) != len(self.base):
            raise ValueError("apex and base counts differ")
        if len(set(self.apex)) != len(self.apex):
            raise ValueError("apex coordinates must be pairwise distinct")
        for v, (lo, hi) in enumerate(self.base):
            if lo >= hi:
                raise ValueError(f"base of {v} is degenerate: [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return len(self.apex)

    def induced_order(self) -> PartialOrder:
        """Order with u below v iff u's triangle lies completely left of v's."""
        apex, base = self.apex, self.base
        succ = tuple(
            sum(1 << v for v in range(self.n) if a < apex[v] and hi < base[v][0])
            for a, (_, hi) in zip(apex, base)
        )
        return PartialOrder(self.n, succ)


def triangles_disjoint(t: TriangleRepresentation, u: int, v: int) -> bool:
    """True iff one triangle lies completely to the left of the other."""
    au, av = t.apex[u], t.apex[v]
    if au < av:
        return t.base[u][1] < t.base[v][0]
    return t.base[v][1] < t.base[u][0]


def verify_representation(g, t: TriangleRepresentation) -> bool:
    """Adjacency in g must coincide with triangle intersection everywhere."""
    if g.n != t.n:
        raise SizeMismatch(f"graph has {g.n} vertices, representation {t.n}")
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adjacent(u, v) == triangles_disjoint(t, u, v):
                return False
    return True


def order_to_triangles(
    order: Sequence[int], rep: IntervalRepresentation
) -> TriangleRepresentation:
    """Place apices at 1-based extension positions over the given bases."""
    _check_permutation(order, rep.n)
    apex = tuple(i + 1 for i in _positions(order))
    return TriangleRepresentation(apex, rep.intervals)
