"""Recognition of simple-triangle graphs: decided by orientation, and searched.

A vertex ordering is an apex ordering iff it avoids the three forbidden
patterns (cpc, p1, p2), and G is a simple-triangle graph iff it has one.

Every entry point that decides G works one component at a time.  An
induced subsequence of an apex ordering is one of the induced subgraph.
In an apex ordering each component C is contiguous: the ordering has no
cpc, so it orients Ḡ transitively, and a vertex y of another component
between the ends of an edge ab of C, a first, would give the arcs a→y→b of
Ḡ, which force a→b, yet ab is no edge of Ḡ; C is connected, so its edges
cover the span of its positions.  Conversely, realizations of the
components placed side by side, each right of the last on both lines,
realize any concatenation of their apex orderings.  So these
concatenations are the apex orderings of G, and G is accepted iff each
component is.  Each component with two or more vertices, relabelled (G
itself when connected), is decided before any is ordered, by ext(T) or by
the walk of step 3, and the blocks are concatenated sorted by their first
vertex.  Steps 1 and 2 decide one component G without a search:

1. Orient the complement Ḡ transitively (``graphs.transitive_orientation``,
   polynomial), and reject when that fails.  This step is unconditional: an
   ordering without cpc on G has no cp on Ḡ, so it orients Ḡ transitively
   and is a linear extension of that orientation.
2. Decide whether that one orientation T has a linear extension avoiding
   p1 and p2 on Ḡ, the comparability graph of T (one without a
   4-anticycle: T is then a linear-interval order), and reject when it has
   none.  ``orders._first_interval_extension`` decides this as
   ``recognize_linear_interval_order`` does: one run of the search engine
   of :mod:`simpletri.patterns` with the 2-SAT relaxation of
   :mod:`simpletri.twosat` as its rule, which rejects in polynomial time
   when unsatisfiable.  This step rests on
   the paper's theorem, pinned by acceptance test 07: when G is
   simple-triangle, every transitive orientation of Ḡ, T included, has an
   apex ordering of G among its linear extensions, and an apex ordering
   avoids p1 and p2.

Accepting is self-checking.  p1 and p2 are each other's complement, so an
extension of T avoiding them on Ḡ avoids them on G, and it has no cpc on G
because T is transitive: it is an apex ordering of G, the block that
:func:`apex_ordering` takes, and :func:`is_simple_triangle` is its verdict.

3. :func:`recognize` returns the lexicographically least apex ordering σ*
   (:func:`least_apex_ordering`).  σ* is the least of ext(T′) over the
   transitive orientations T′ of Ḡ, where ext(T′) is step 2's answer on T′:
   every ext(T′) is an apex ordering by the argument above, and σ* is a
   linear extension without a 4-anticycle of the orientation T_σ* it
   induces, so ext(T_σ*) ≤ σ*.  The walk of G from its decision reaches
   T_σ* unless its best ordering is already σ*:

   - it starts from the arcs x→y in Ḡ for each pair of false twins x < y of
     G (equal neighbourhoods).  σ* puts false twins in label order, since
     swapping two out of order gives a smaller apex ordering, so T_σ*
     holds these arcs;
   - it closes every arc under Γ-forcing in the whole of Ḡ
     (``graphs._force_arcs``).  A forced arc lies in every transitive
     orientation that holds the arc forcing it, so the closure of arcs of
     T_σ* stays in T_σ*;
   - at each node it orients the least free edge u–v of Ḡ both ways, u→v
     first, each closed as above, so some branch keeps to T_σ*;
   - it cuts a node whose least topological order is not below the best
     ordering found so far, starting from ext(T), or in which it meets a
     cycle of arcs.  ext(T′) is a topological order of every arc of T′, so
     it is never below the least one of the node's arcs, and the cut drops
     no ordering below the best;
   - at a leaf Ḡ is fully oriented.  One that is not transitive is dropped,
     T is skipped (step 2 gave ext(T) on it, the first best, and the best
     only falls), and step 2's search runs on the rest without
     ``IntervalFormula.satisfiable()``: the search alone is exact, and by
     the theorem behind step 2 each leaf's formula is satisfiable, so the
     call could only return True.  The search finds an ordering on each
     leaf, so finding none raises RuntimeError.

   :func:`rejection_certificates` runs the search over all orderings by a
   ``PatternRule`` on the three patterns alone.

A given ordering is judged by building from it: :func:`realize` orients the
complement along it and builds interval bases for the resulting order, and a
cpc, p1 or p2 stops one of the two steps, so :func:`check_apex_ordering` is
"``realize`` does not raise".  ``graphs.find_pattern`` only names a witness
in an ordering found wanting.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ._bits import clear_rows, iter_bits, lowest_bit, relabel
from .errors import NotApexOrdering, NotComparabilityOrdering
from .graphs import (
    Graph,
    _components,
    _force_arcs,
    complement,
    orient_complement_by_ordering,
    transitive_orientation,
)
from .graphs import find_pattern  # noqa: F401  (bench/tracing.py wraps recognition.find_pattern)
from .orders import (
    Anticycle,
    PartialOrder,
    _first_interval_extension,
    build_interval_representation,
)
from .patterns import APEX_PATTERNS, PatternRule, search_orderings
from .triangles import TriangleRepresentation, order_to_triangles
from .twosat import IntervalFormula

__all__ = [
    "apex_ordering",
    "check_apex_ordering",
    "is_simple_triangle",
    "least_apex_ordering",
    "recognize",
    "realize",
    "rejection_certificates",
]


def check_apex_ordering(g: Graph, ordering: Sequence[int]) -> bool:
    """True iff the ordering avoids all three forbidden patterns, that is,
    :func:`realize` does not raise :class:`NotApexOrdering`."""
    try:
        realize(g, ordering)
    except NotApexOrdering:
        return False
    return True


def apex_ordering(g: Graph) -> Optional[tuple[int, ...]]:
    """An apex ordering of g, decided per component by the module doc, or None.

    Each component's block is its ext(T), the first linear extension of T
    without a 4-anticycle.  It is deterministic, but in general not the
    lexicographically least apex ordering that :func:`recognize` returns.
    None means g is not a simple-triangle graph; the 0-vertex graph's
    ordering is ``()``, so test the result with ``is not None``.
    """
    return _by_components(g, lambda sub, t, ext: ext)


def _decide(g: Graph) -> Optional[tuple[PartialOrder, tuple[int, ...]]]:
    """``(T, ext(T))`` of steps 1 and 2 of the module doc, or None when either rejects."""
    t = transitive_orientation(complement(g))
    ext = None if t is None else _first_interval_extension(t)
    return None if ext is None else (t, ext)


def is_simple_triangle(g: Graph) -> bool:
    """True iff g is a simple-triangle graph, decided per component (module doc)."""
    return apex_ordering(g) is not None


def least_apex_ordering(g: Graph) -> Optional[tuple[int, ...]]:
    """The lexicographically least apex ordering of g, or None: the walk of
    step 3 of the module doc on each component."""
    return _by_components(g, _walk)


def _by_components(g: Graph, order) -> Optional[tuple[int, ...]]:
    """None at the first component of g that :func:`_decide` rejects, else the
    blocks ordered by ``order(sub, T, ext(T))`` on each relabelled ``sub``;
    a connected g with two or more vertices is decided and ordered as it is."""
    full = (1 << g.n) - 1
    comps = [comp for comp, _ in _components(g.adj, full)]
    if comps == [full] and g.n > 1:
        decided = _decide(g)
        return None if decided is None else order(g, *decided)
    blocks, parts = [], []
    for comp in comps:
        vs = list(iter_bits(comp))
        blocks.append(vs)
        if len(vs) > 1:
            sub = Graph._from_adj(len(vs), relabel(g.adj, vs))
            if (decided := _decide(sub)) is None:
                return None
            parts.append((vs, sub, decided))
    for vs, sub, decided in parts:
        vs[:] = [vs[i] for i in order(sub, *decided)]
    return tuple(v for block in sorted(blocks) for v in block)


def _walk(g: Graph, t: PartialOrder, best: tuple[int, ...]) -> tuple[int, ...]:
    """The least apex ordering of g, by the walk of step 3 of the module doc
    from g's decision ``t, best`` (:func:`_decide`)."""
    n, cadj = g.n, complement(g).adj
    out, into = [0] * n, [0] * n
    # false twins of g, each before its twins with larger labels
    later: dict[int, int] = {}  # per neighbourhood, the vertices after v
    twins = []
    for v in reversed(range(n)):
        heads = later.get(g.adj[v], 0)
        twins.append((v, heads))
        later[g.adj[v]] = heads | 1 << v
    # the walk, by an explicit stack: it can go as deep as Ḡ has implication
    # classes; each entry is the depth of its node and the arcs to set there
    pending = [(0, twins)]
    path: list[list] = []  # the rows set at each depth down to the node
    while pending:
        depth, arcs = pending.pop()
        while len(path) > depth:
            clear_rows(path.pop())
        rows = _force_arcs(cadj, out, into, arcs)
        if rows is None:
            continue
        path.append(rows)
        if not _can_beat(out, best):
            continue
        for u in range(n):
            if free := cadj[u] & ~(out[u] | into[u]):  # u–v, the least free edge
                v = lowest_bit(free)
                pending += [(depth + 1, [(v, 1 << u)]), (depth + 1, [(u, 1 << v)])]
                break
        else:  # every edge of Ḡ is oriented: a leaf
            if tuple(out) == t.succ:  # step 2 on t gave the first best
                continue
            try:
                order = PartialOrder(n, tuple(out))
            except ValueError:  # the orientation is not transitive
                continue
            # step 2's search alone; satisfiable() is True here (module doc)
            ext = next((o for o, hit in search_orderings(order.pred, IntervalFormula(order))
                        if hit is None), None)
            if ext is None:
                raise RuntimeError(f"accepted graph has no apex ordering: {sorted(g.edges)}")
            best = min(best, ext)
    return best


def _can_beat(out: list[int], best: tuple[int, ...]) -> bool:
    """Whether the least ordering that puts each vertex before its heads in
    ``out`` can be below ``best``.  It is built along ``best`` up to their
    first difference: the vertices left at position i are ``best[i:]``, so
    those with a tail among them are the heads ``after[i]`` of ``best[i:]``.
    False when it is not below, or when every vertex left there has a tail
    left (the arcs hold a cycle); a cycle among the vertices left after the
    first difference is not looked for."""
    after = [0] * (len(best) + 1)
    for i in reversed(range(len(best))):
        after[i] = after[i + 1] | out[best[i]]
    left = (1 << len(best)) - 1
    for i, b in enumerate(best):
        ready = left & ~after[i]
        least = ready & -ready
        if least != 1 << b:
            return 0 < least < 1 << b
        left ^= least
    return False


def recognize(
    g: Graph,
) -> Optional[tuple[tuple[int, ...], TriangleRepresentation]]:
    """:func:`least_apex_ordering` with its realization, or None.

    Returns None exactly when :func:`is_simple_triangle` rejects.
    """
    ordering = least_apex_ordering(g)
    return None if ordering is None else (ordering, realize(g, ordering))


def rejection_certificates(
    g: Graph,
) -> Iterator[tuple[tuple[int, ...], str, tuple[int, ...]]]:
    """Yield (prefix, pattern name, witness) for every pruned search prefix.

    Runs :func:`recognize`'s search without its decision step or rule, by a
    ``PatternRule`` on cpc, p1 and p2 alone; on a rejected graph the yielded
    certificates cover every abandoned branch of the search tree.  A prefix
    is an abandoned branch followed by the unplaced vertex that closes the
    witness, which ends at that vertex.
    """
    rule = PatternRule(g.adj, APEX_PATTERNS)
    for branch, hit in search_orderings((0,) * g.n, rule):
        if hit is not None:
            name, witness = rule.hit
            yield (*branch, witness[-1]), name, witness


def realize(g: Graph, ordering: Sequence[int]) -> TriangleRepresentation:
    """Triangle representation whose apex order coincides with ``ordering``.

    Checks the ordering by building: orient the complement Ḡ along it, build
    interval bases for that order with ``ordering`` as the extension, and
    read off the triangles.  Raises :class:`NotApexOrdering` exactly when the
    ordering is not an apex ordering, since each pattern stops one step:

    - a cpc on G is exactly a non-transitive triple of Ḡ oriented along the
      ordering, so the orientation is not a partial order;
    - a p1 or p2 instance is a 4-anticycle of that order and the ordering,
      and an anticycle stalls the peeling, while an extension without a
      4-anticycle never stalls (``recognize_linear_interval_order`` asserts
      this).
    """
    try:
        p = orient_complement_by_ordering(g, ordering)
    except NotComparabilityOrdering as exc:
        raise NotApexOrdering(f"pattern cpc: {exc}") from exc
    rep = build_interval_representation(p, tuple(ordering))
    if isinstance(rep, Anticycle):
        raise NotApexOrdering(f"anticycle {rep.elements()} in oriented complement")
    return order_to_triangles(ordering, rep)
