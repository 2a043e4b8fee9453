"""Simple undirected graphs, ordered forbidden patterns, and orientations.

Vertex orderings are plain permutations of ``0..n-1``.  The ordered patterns
of :mod:`simpletri.patterns` are re-exported here: the three-vertex ones
characterize comparability and cocomparability orderings, and the four-vertex
ones are the extra obstructions of an apex ordering.  Whether an ordering is
a (co)comparability ordering is decided by building from it: orienting the
non-edges along it, which is transitive exactly when no cpc lies along it.
:func:`find_pattern` and the C4 and 2K2 rules place the search engine's
:class:`~simpletri.patterns.PatternRule` along the ordering, on the graph's
own labels but for :func:`find_pattern`, which relabels it by position.
Rules and predicates here are all pure functions over immutable values.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from ._bits import clear_rows, iter_bits, relabel, set_row
from .errors import EdgeSetMismatch, NotComparabilityOrdering
from .orders import PartialOrder, _check_permutation, _later_masks
from .patterns import C4_PATTERNS, OrderedPattern, PatternRule
from .patterns import PATTERN_CP, PATTERN_CPC, PATTERN_P1, PATTERN_P2

__all__ = [
    "Graph",
    "Orientation",
    "OrderedPattern",
    "PATTERN_CP",
    "PATTERN_CPC",
    "PATTERN_P1",
    "PATTERN_P2",
    "complement",
    "find_pattern",
    "is_comparability_ordering",
    "is_cocomparability_ordering",
    "fulfills_c4_rule",
    "fulfills_2k2_rule",
    "orient_complement_by_ordering",
    "transitive_orientation",
    "orientation_from_ordering",
    "is_transitive_orientation",
    "is_alternating_orientation",
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "empty_graph",
]


@dataclass(frozen=True, init=False)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adj`` holds a neighbour bitmask per vertex, and it and ``n`` alone are
    compared and hashed.  ``edges``, the normalized pairs ``(u, v)`` with
    u < v, is derived from ``adj`` on first use.  ``Graph(n, edges)`` takes
    normalized pairs and :meth:`from_edges` any pairs.
    """

    n: int
    adj: tuple[int, ...] = field(repr=False)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count {n} is negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) is not normalized or out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.__dict__.update(n=n, adj=tuple(adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, ((min(u, v), max(u, v)) for u, v in edges))

    @classmethod
    def _from_adj(cls, n: int, adj: Iterable[int]) -> "Graph":
        """The graph with neighbour masks ``adj``, unchecked: its callers,
        ``io.parse_graph``, :func:`complement` and the component split of
        ``recognition.least_apex_ordering``, build them symmetric,
        irreflexive and below ``1 << n``."""
        g = cls.__new__(cls)
        g.__dict__.update(n=n, adj=tuple(adj))
        return g

    @functools.cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (u, v) for u, adj in enumerate(self.adj) for v in iter_bits(adj & ~((2 << u) - 1))
        )

    def adjacent(self, u: int, v: int) -> bool:
        return self.adj[u] >> v & 1 == 1

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    return Graph(n, ())


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    full = (1 << g.n) - 1
    return Graph._from_adj(g.n, (full & ~adj & ~(1 << u) for u, adj in enumerate(g.adj)))


def _components(adj: Sequence[int], left: int) -> Iterator[tuple[int, int]]:
    """The components of the graph ``adj`` induced on the mask ``left``, in
    the order of their least vertex, each as its mask and the union of its
    vertices' neighbourhoods; flood-filled on bitmasks."""
    while left:
        comp = frontier = left & -left
        reach = 0
        while frontier:
            for x in iter_bits(frontier):
                reach |= adj[x]
            frontier = reach & left & ~comp
            comp |= frontier
        left &= ~comp
        yield comp, reach


def find_pattern(
    g: Graph, ordering: Sequence[int], pattern: OrderedPattern
) -> Optional[tuple[int, ...]]:
    """First ordering-increasing vertex tuple matching ``pattern``, or None.

    First in lexicographic order of the tuples' ordering positions, so the
    returned witness is deterministic.  The graph is relabelled by position
    and a :class:`PatternRule` placed along the positions; at each position
    v that is second to last in an instance its kernels return the least
    one ``(x0, [x1,] v, z)``, and the least of those is the witness.
    """
    _check_permutation(ordering, g.n)
    hits = PatternRule(relabel(g.adj, ordering), [("", pattern)]).hits(range(g.n))
    first = min((witness for _, witness in hits), default=None)
    return None if first is None else tuple(ordering[p] for p in first)


def is_comparability_ordering(g: Graph, ordering: Sequence[int]) -> bool:
    """No two adjacent pairs u < v < w with uv, vw edges but uw a non-edge:
    :func:`is_cocomparability_ordering` on the complement."""
    return is_cocomparability_ordering(complement(g), ordering)


def is_cocomparability_ordering(g: Graph, ordering: Sequence[int]) -> bool:
    """Every edge uw spanning a middle vertex v has uv or vw present, that is,
    :func:`orient_complement_by_ordering` does not raise."""
    try:
        orient_complement_by_ordering(g, ordering)
    except NotComparabilityOrdering:
        return False
    return True


def fulfills_c4_rule(g: Graph, ordering: Sequence[int]) -> bool:
    """All-equal comparison condition around every induced 4-cycle.

    For a cycle (u, v, w, x) the four comparisons u<v, w<v, w<x, u<x must
    agree, so one diagonal pair, u and w or v and x, comes before the other.
    The cycles that break the rule are those whose diagonals interleave or
    nest along the ordering, the two ordered patterns of
    ``patterns.C4_PATTERNS``, asked in one pass.  They contain p2 and p1, so
    every apex ordering meets the rule; conversely a cocomparability
    ordering that meets it is an apex ordering, the paper's lemma that
    acceptance test 04 checks.
    """
    _check_permutation(ordering, g.n)
    return next(PatternRule(g.adj, C4_PATTERNS).hits(ordering), None) is None


def fulfills_2k2_rule(g: Graph, ordering: Sequence[int]) -> bool:
    """All-equal comparison condition across every induced disjoint edge pair.

    With edges uw and vx, u-v-w-x is an induced 4-cycle of the complement,
    and the C4 rule there asks the same four comparisons u<v, w<v, w<x, u<x.
    """
    return fulfills_c4_rule(complement(g), ordering)


def orient_complement_by_ordering(g: Graph, ordering: Sequence[int]) -> PartialOrder:
    """Orient every non-edge of g along the ordering and validate transitivity.

    Returns the partial order with u below v iff uv is a non-edge and u comes
    first; raises :class:`NotComparabilityOrdering` when the oriented
    non-edges are not transitive.
    """
    _check_permutation(ordering, g.n)
    succ = tuple(later & ~adj for later, adj in zip(_later_masks(ordering), g.adj))
    try:
        return PartialOrder(g.n, succ)
    except ValueError as exc:
        raise NotComparabilityOrdering(
            "ordering does not transitively orient the complement"
        ) from exc


def transitive_orientation(g: Graph) -> Optional[PartialOrder]:
    """A transitive orientation of g as a partial order, or None if g has none.

    Golumbic's algorithm TRO (*Algorithmic Graph Theory and Perfect Graphs*,
    1980, ch. 5): orient the least edge left from its smaller end and close
    its implication class under Γ-forcing in the graph that remains, where
    arc ab forces ab' when bb' is no edge left and a'b when a'a is none.  g
    is a comparability graph iff no class holds an arc and its reverse; the
    classes, each removed before the next is taken, then together orient g
    transitively, which the :class:`PartialOrder` constructor re-checks.
    A class is closed on bitmasks by :func:`_force_arcs`.

    >>> transitive_orientation(cycle_graph(5)) is None
    True
    >>> sorted(transitive_orientation(path_graph(3)).pairs)
    [(0, 1), (2, 1)]
    """
    rem = list(g.adj)
    out, into = [0] * g.n, [0] * g.n
    for u in range(g.n):
        while higher := rem[u] & ~((2 << u) - 1):
            rows = _force_arcs(rem, out, into, [(u, higher & -higher)])
            if rows is None:
                return None
            members = 0
            for _, _, x, row in rows:
                members |= 1 << x | row
            for x in iter_bits(members):
                rem[x] &= ~(out[x] | into[x])
    return PartialOrder(g.n, tuple(out))


def _force_arcs(adj: Sequence[int], out: list[int], into: list[int], arcs) -> Optional[list]:
    """Set the arcs from each x to the mask h, for (x, h) in ``arcs``, in the
    heads masks ``out`` and tails masks ``into``, and close them under
    Γ-forcing in the graph ``adj``.

    Arc ab forces ac for each neighbour c of a that is neither b nor a
    neighbour of b, and cb for each such neighbour c of b.  Each arc forces
    all its heads ``adj[a] & ~adj[b]`` and tails ``adj[b] & ~adj[a]`` at
    once, and one mask test against the arcs into a and out of b finds a
    reverse.  The rows set are also the worklist: each is read in turn and
    its arcs forced, so nothing is kept per arc.  Returns the arcs set, as
    rows for ``_bits.clear_rows``, or None, with nothing set, when one of
    them has its reverse set.  Arcs set before count only as set or as
    reverses; they are not closed again.
    """
    rows = []
    for x, heads in arcs:
        if heads & into[x]:
            clear_rows(rows)
            return None
        if heads := heads & ~out[x]:
            set_row(rows, out, into, x, heads)
    done = 0
    while done < len(rows):
        first, _, x, row = rows[done]
        done += 1
        while row:
            low = row & -row
            row ^= low
            c = low.bit_length() - 1
            a, b = (x, c) if first is out else (c, x)
            heads = adj[a] & ~adj[b] & ~(1 << b)
            tails = adj[b] & ~adj[a] & ~(1 << a)
            if heads & into[a] or tails & out[b]:
                clear_rows(rows)
                return None
            if heads := heads & ~out[a]:
                set_row(rows, out, into, a, heads)
            if tails := tails & ~into[b]:
                set_row(rows, into, out, b, tails)
    return rows


@dataclass(frozen=True)
class Orientation:
    """A direction per edge: ``out[v]`` masks the heads of v's arcs, as
    ``PartialOrder.succ`` does, and it and ``n`` alone are compared and
    hashed.  ``into[v]`` masks the tails of the arcs into v, derived from
    ``out``."""

    n: int
    out: tuple[int, ...]
    into: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, out = self.n, tuple(self.out)
        if len(out) != n:
            raise ValueError(f"{len(out)} head masks for n={n}")
        into = [0] * n
        for u, heads in enumerate(out):
            if heads < 0 or heads >> n or heads >> u & 1:
                raise ValueError(f"head mask of {u} out of range or holding {u} for n={n}")
            if both := heads & into[u]:  # the tails into u seen so far
                raise ValueError(f"edge {{{u}, {both.bit_length() - 1}}} oriented both ways")
            for v in iter_bits(heads):
                into[v] |= 1 << u
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "into", tuple(into))


def orientation_from_ordering(g: Graph, ordering: Sequence[int]) -> Orientation:
    """Direct every edge of g from the earlier to the later endpoint."""
    _check_permutation(ordering, g.n)
    heads = (later & adj for later, adj in zip(_later_masks(ordering), g.adj))
    return Orientation(g.n, tuple(heads))


def _check_orients(g: Graph, o: Orientation) -> None:
    if o.n != g.n:
        raise EdgeSetMismatch(f"orientation is on {o.n} vertices, graph on {g.n}")
    if any(out | into != adj for out, into, adj in zip(o.out, o.into, g.adj)):
        raise EdgeSetMismatch("orientation does not cover exactly the graph's edges")


def is_transitive_orientation(g: Graph, o: Orientation) -> bool:
    """True iff every directed path u -> v -> w is closed by the arc u -> w."""
    _check_orients(g, o)
    out = o.out
    return not any(out[v] & ~heads for heads in out for v in iter_bits(heads))


@functools.lru_cache(maxsize=1)
def _touching_masks(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Per vertex b, a mask per component C of G - N[b]: the neighbours of b
    with a neighbour in C, kept when it has two or more.

    Two non-adjacent a and c in one mask are the ends of an induced path
    a-b-c on a chordless cycle of length >= 4: a shortest path from a's
    neighbourhood to c's through C closes it.  Conversely the rest of such a
    cycle avoids N[b] and is connected, so it lies in one component.  A
    component's mask is the union of its vertices' neighbourhoods in N(b).
    """
    adj = g.adj
    masks = []
    for b in range(g.n):
        per_b = []
        for _, reach in _components(adj, (1 << g.n) - 1 & ~adj[b] & ~(1 << b)):
            if (touching := reach & adj[b]) & touching - 1:
                per_b.append(touching)
        masks.append(tuple(per_b))
    return tuple(masks)


def is_alternating_orientation(g: Graph, o: Orientation) -> bool:
    """At every induced path a-b-c on a chordless cycle of length >= 4,
    both arcs enter b or both leave b.

    Equivalently, directions alternate around every such cycle: no two
    consecutive cycle edges form a directed path, which is what transitivity
    can possibly mean on a chordless cycle.  It fails at b exactly when one
    mask of :func:`_touching_masks` holds an a with a→b and a c with b→c
    that are not adjacent, so the paths are never listed.
    """
    _check_orients(g, o)
    adj, out = g.adj, o.out
    for b, masks in enumerate(_touching_masks(g)):
        for touching in masks:
            if heads := touching & out[b]:
                for a in iter_bits(touching & ~heads):
                    if heads & ~adj[a]:
                        return False
    return True
