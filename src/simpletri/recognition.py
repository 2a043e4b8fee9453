"""Recognition of simple-triangle graphs: decided by orientation, and searched.

A vertex ordering is an apex ordering iff it avoids the three forbidden
patterns (cpc, p1, p2), and G is a simple-triangle graph iff it has one.
:func:`is_simple_triangle` decides this without searching all orderings:

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
because T is transitive: it is an apex ordering of G.  :func:`apex_ordering`
returns that extension, and :func:`is_simple_triangle` is its verdict.

3. :func:`recognize` searches all orderings for the lexicographically
   least apex ordering σ* (:func:`least_apex_ordering`) and runs the
   decision of steps 1 and 2 once, at the search's first dead branch: a
   refusal for any reason but an arc from an unplaced vertex, which is a
   precedence like the engine's ``pred``, or the first backtrack.  A
   rejecting decision returns None at once; after an accepting one the
   search must find σ*, and it raises instead of returning None if it does
   not.  Until its first dead branch the search only goes deeper, trying at
   most n vertices at each depth, so a rejection is decided within n² calls
   of the rule.  Accepting needs no decision: every complete ordering of
   the search extends a transitive orientation of Ḡ without a 4-anticycle
   (below), so it is an apex ordering by the argument above.

   The search's rule (:class:`_LeastOrderingRule`) prunes by the theorem
   behind step 2: an apex ordering orients Ḡ transitively, without a
   4-anticycle.  Before the search, each pair of false twins x < y of G
   (equal neighbourhoods) is oriented x→y in Ḡ.  Placing v orients Ḡ's
   edges from v to the unplaced vertices as v→w, so an arc w→v from an
   unplaced w refuses v.  Each new arc is closed under Γ-forcing in the
   whole of Ḡ (``graphs._force_arcs``), and an arc whose reverse is set
   refuses v.  Until then it also asks a ``patterns.PatternRule`` on p1 and
   p2; cpc is implied, as Γ-forcing sets z→v from x→v for a cpc (x, v, z).
   Once every edge of Ḡ is oriented, the orientation is fixed: the rule
   refuses it if it is not transitive, and otherwise builds its 2-SAT
   relaxation, replays the prefix into it, and refuses as step 2 does below
   that depth, asking no pattern: unit propagation of the prefix's literals
   meets every 2+2 clause that a p1 or p2 would violate.

   The rule refuses only branches that hold no apex ordering with false
   twins in label order, and σ* is one: swapping two twins out of order
   would give a smaller apex ordering.  Along such an ordering's path every
   arc the rule sets is an arc of its orientation of Ḡ: the twin arcs, the
   placed ones, and what Γ-forcing derives from them, since that
   orientation is transitive.  When all are set, the orientation is that
   one, and the ordering satisfies every literal of its formula.  So the
   first complete ordering is σ*, as it is without the rule.  Without the
   twin arcs no refused branch would hold an apex ordering, but an edge of
   Ḡ between two false twins is forced by no other arc: it stays
   unoriented until one of them is placed, and the 2-SAT waits for it (the
   n = 16 draw of the README).  :func:`rejection_certificates` runs the
   search without the decision and without the rule.

An accepted ordering is turned into a triangle representation by orienting
the complement along it and building interval bases for the resulting
order.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ._bits import clear_rows
from .errors import NotApexOrdering, NotComparabilityOrdering
from .graphs import (
    Graph,
    _force_arcs,
    complement,
    find_pattern,
    orient_complement_by_ordering,
    transitive_orientation,
)
from .orders import (
    Anticycle,
    PartialOrder,
    _first_interval_extension,
    build_interval_representation,
)
from .patterns import APEX_PATTERNS, PATTERN_P1, PATTERN_P2, PatternRule, search_orderings
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
    """True iff the ordering avoids all three forbidden patterns."""
    return all(find_pattern(g, ordering, pat) is None for _, pat in APEX_PATTERNS)


def apex_ordering(g: Graph) -> Optional[tuple[int, ...]]:
    """An apex ordering of g found by the two steps of the module doc, or None.

    It is the first linear extension of the transitive orientation of the
    complement without a 4-anticycle.  It is deterministic, but in general
    not the lexicographically least apex ordering that :func:`recognize`
    returns.  None means g is not a simple-triangle graph; the 0-vertex
    graph's ordering is ``()``, so test the result with ``is not None``.
    """
    t = transitive_orientation(complement(g))
    return None if t is None else _first_interval_extension(t)


def is_simple_triangle(g: Graph) -> bool:
    """True iff g is a simple-triangle graph, by the two steps of the module doc."""
    return apex_ordering(g) is not None


def least_apex_ordering(g: Graph) -> Optional[tuple[int, ...]]:
    """The lexicographically least apex ordering of g, or None (step 3 of the
    module doc).

    Searches first, and calls :func:`is_simple_triangle` once, at the
    search's first dead branch, within n² calls of the rule: None comes only
    from that call.  Raises RuntimeError if it accepts and the search finds
    no apex ordering.
    """
    rule = _LeastOrderingRule(g)
    search = search_orderings((0,) * g.n, rule)
    for ordering, hit in search:
        if hit is None:
            return ordering
        if rule.dead:
            break
    if not is_simple_triangle(g):
        return None
    ordering = next((o for o, hit in search if hit is None), None)
    if ordering is None:
        raise RuntimeError(f"accepted graph has no apex ordering: {sorted(g.edges)}")
    return ordering


def recognize(
    g: Graph,
) -> Optional[tuple[tuple[int, ...], TriangleRepresentation]]:
    """:func:`least_apex_ordering` with its realization, or None.

    Returns None exactly when :func:`is_simple_triangle` rejects, but runs
    that decision only where the search meets a dead branch.
    """
    ordering = least_apex_ordering(g)
    return None if ordering is None else (ordering, realize(g, ordering))


class _LeastOrderingRule:
    """The rule of :func:`recognize`'s search (step 3 of the module doc).

    ``out``/``into`` hold the arcs of the complement Ḡ oriented so far, as
    heads and tails masks.  Once every edge of Ḡ is oriented, ``formula`` is
    the 2-SAT relaxation of that orientation, built when the ``handoff``-th
    vertex of ``prefix`` was placed; ``patterns`` is asked only before then.
    ``dead`` is set at the first dead branch: a refusal other than by
    ``into``, which is a precedence, or the first ``undo``.
    """

    def __init__(self, g: Graph):
        n = g.n
        full = (1 << n) - 1
        self.cadj = [full & ~adj & ~(1 << v) for v, adj in enumerate(g.adj)]
        self.out, self.into = [0] * n, [0] * n
        self.prefix: list[int] = []
        self.patterns = PatternRule(g.adj, (("p1", PATTERN_P1), ("p2", PATTERN_P2)))
        self.formula: Optional[IntervalFormula] = None
        self.handoff = -1
        self.dead = False
        # false twins of g, each before its twins with larger labels; this
        # sets nothing only if Ḡ has no transitive orientation
        later: dict[int, int] = {}  # per neighbourhood, the vertices after v
        twins = []
        for v in reversed(range(n)):
            heads = later.get(g.adj[v], 0)
            twins.append((v, heads))
            later[g.adj[v]] = heads | 1 << v
        _force_arcs(self.cadj, self.out, self.into, twins)

    def place(self, v: int, unplaced: int) -> Optional[list]:
        """The rows set for v, or None when v is refused (module doc)."""
        if self.into[v] & unplaced:
            return None
        if self.formula is not None:
            rows = self.formula.place(v, unplaced)
        elif self.patterns.place(v, unplaced) is None:
            rows = None
        else:
            rows = _force_arcs(self.cadj, self.out, self.into, [(v, self.cadj[v] & unplaced)])
            if rows is not None and all(
                o | i == c for o, i, c in zip(self.out, self.into, self.cadj)
            ):
                self.formula = self._formula(v, unplaced)
                self.handoff = len(self.prefix)
                if self.formula is None:
                    clear_rows(rows)
                    rows = None
        if rows is None:
            self.dead = True
        else:
            self.prefix.append(v)
        return rows

    def undo(self, rows: list) -> None:
        self.dead = True
        self.prefix.pop()
        if len(self.prefix) == self.handoff:
            self.formula = None
        clear_rows(rows)

    def _formula(self, v: int, unplaced: int) -> Optional[IntervalFormula]:
        """The 2-SAT relaxation of the complete orientation with the prefix,
        v last, replayed into it, or None if either refuses the branch."""
        try:
            order = PartialOrder(len(self.out), tuple(self.out))
        except ValueError:  # the orientation is not transitive
            return None
        formula = IntervalFormula(order)
        rest = (1 << order.n) - 1
        for x in (*self.prefix, v):
            rest ^= 1 << x
            if formula.place(x, rest) is None:
                return None
        return formula


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
