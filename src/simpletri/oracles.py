"""Independent brute-force oracles backing the acceptance suite.

Nothing here shares a code path with the recognizer: realizability is
decided straight from the definition by trying every apex ordering and
solving the base-interval constraints each one induces, orientation-level
characterizations are checked by enumerating orientations, and triangle
intersection is re-decided with exact integer geometry: two triangles are
disjoint exactly when the line along one side of one of them separates them.

The oracles judge the n! orderings of 0..n-1 by n!-bit masks: bit k of
``P[u][v]`` (:func:`_before_masks`) says that the k-th ordering in
lexicographic order puts u before v, so each filter (transitive complement
orientation, alternating orientation, order extension, 2+2 constraint
cycle) is O(n³) ANDs per input, not one check per ordering.  Every oracle
reads only the masks, and the geometric searches solve what theirs keep,
lowest bit first.  Only the last size's masks are kept: 0.1, 0.2 and 0.7 ms
and 4 kB, 30 kB and 0.3 MB at n = 6, 7 and 8, and 6 and 100 ms and 3.4 and
43 MB at n = 9 and 10 (2-vCPU x86-64 VM, CPython 3.11).  n = 11 would take
1.5-1.8 s and a 710 MB peak, so no oracle goes past n = :data:`MAX_N` = 10,
whatever its limit.
"""
from __future__ import annotations

import functools
import operator
import random
from itertools import combinations
from math import factorial
from typing import Iterable, Iterator, Optional, Sequence

from ._bits import iter_bits
from .errors import LimitExceeded, NotSimpleTriangle
from .graphs import (
    Graph,
    Orientation,
    _touching_masks,
    complement,
    is_alternating_orientation,
    is_transitive_orientation,
)
from .orders import PartialOrder
from .triangles import TriangleRepresentation, verify_representation

__all__ = [
    "geometric_search_realization",
    "geometric_search_order_realization",
    "enumerate_orientations",
    "has_alternating_transitive_pair",
    "all_transitive_complements_extend",
    "exact_triangle_intersection",
    "triangle_interiors_intersect",
    "random_triangle_pair",
]

DEFAULT_LIMIT = 6
MAX_N = 10


def _check_size(n: int, limit: int) -> None:
    """Refuse n over ``limit`` or over :data:`MAX_N`, before any mask is built."""
    cap = min(limit, MAX_N)
    if n > cap:
        raise LimitExceeded(f"n={n} exceeds oracle limit {cap}")


def _solve_base_intervals(cols: Sequence[int]) -> Optional[list[tuple[int, int]]]:
    """Least integer base intervals for a fixed apex ordering, if any exist.

    ``cols[j] >> i & 1`` (for positions i < j) says the pair must be
    disjoint, i.e. r(i) < l(j); otherwise l(j) <= r(i) is required.  These
    are difference constraints.  Their least solution with every endpoint at
    least 1 is found one value t = 2, 3, ... at a time, as the positions
    whose l reaches t and those whose r does: l(j) >= t exactly when
    r(i) >= t - 1 for some i in ``cols[j]``, and r(i) >= t exactly when
    l(i) >= t - 1 or l(j) >= t for some later j that i must meet.  Both sets
    only shrink as t grows.  Either they run out, and each endpoint is 1
    plus the number of values beyond 1 it reaches, or they repeat, and the
    values grow without bound along a positive cycle: the system is
    infeasible.  Intransitive disjoint pairs make one, which the searches
    never send, and so does a 2+2 (:func:`_two_plus_two_orderings`).
    """
    n = len(cols)
    meet = [(1 << j) - 1 & ~col for j, col in enumerate(cols)]
    levels = []
    lower = upper = (1 << n) - 1  # the positions whose l, and whose r, reach t - 1
    while upper:
        level = 0
        for j, col in enumerate(cols):
            if col & upper:
                level |= 1 << j
        reach, rest = lower, level
        while rest:
            low = rest & -rest
            reach |= meet[low.bit_length() - 1]
            rest ^= low
        if level == lower and reach == upper:
            return None
        levels.append((level, reach))
        lower, upper = level, reach
    return [
        (1 + sum(ls >> j & 1 for ls, _ in levels), 1 + sum(rs >> j & 1 for _, rs in levels))
        for j in range(n)
    ]


@functools.lru_cache(maxsize=1)
def _before_masks(n: int) -> list[list[int]]:
    """``P[u][v]``, whose bit k is set iff the k-th ordering of 0..n-1 in
    lexicographic order puts u before v.  The orderings that start with f
    are f followed by those of the other n - 1 vertices, relabelled, so the
    masks grow from the last size's by O(n³) shifts."""
    masks, count = [], 1  # the smaller size's masks and number of orderings
    for m in range(1, n + 1):
        grown = [[0] * m for _ in range(m)]
        for f in range(m):
            rest = [x for x in range(m) if x != f]
            for i, u in enumerate(rest):
                grown[f][u] |= (1 << count) - 1 << f * count
                for j, v in enumerate(rest):
                    grown[u][v] |= masks[i][j] << f * count
        masks, count = grown, count * m
    return masks


def _outside(n: int, masks: Iterable[int]) -> int:
    """The n!-bit mask of the orderings in none of ``masks``."""
    return (1 << factorial(n)) - 1 & ~functools.reduce(operator.or_, masks, 0)


@functools.lru_cache(maxsize=1)
def _transitive_orderings(g: Graph) -> int:
    """The orderings whose complement orientation is transitive: none puts a
    before b before c on a path a-b-c of the complement with a, c apart."""
    P, gc = _before_masks(g.n), complement(g).adj
    return _outside(g.n, (
        P[a][b] & P[b][c]
        for b in range(g.n) for a in iter_bits(gc[b]) for c in iter_bits(gc[b] & ~gc[a] & ~(1 << a))
    ))


@functools.lru_cache(maxsize=1)
def _alternating_orderings(g: Graph) -> int:
    """The orderings whose orientation of g is alternating: none puts b
    between a and c for two non-adjacent a < c in one mask of
    ``graphs._touching_masks`` at b, the ends of an induced path a-b-c on a
    chordless cycle of length >= 4."""
    P, adj = _before_masks(g.n), g.adj
    return _outside(g.n, (
        P[a][b] & P[b][c] | P[c][b] & P[b][a]
        for b, masks in enumerate(_touching_masks(g)) for touching in masks
        for a in iter_bits(touching) for c in iter_bits(touching & ~adj[a] & ~((2 << a) - 1))
    ))


def _two_plus_two_orderings(n: int, disjoint: Sequence[int]) -> int:
    """The orderings that put a before b and c before d on two disjoint
    pairs, and c before b and a before d on two meeting pairs: the OR of
    ``P[a][b] & P[c][d] & P[c][b] & P[a][d]`` over the pairs ab and cd in
    ``disjoint`` and bc and ad not in it, O(n³) ANDs since b and d range
    independently once a < c is fixed.  None has base intervals:
    r(a) + 1 <= l(b) <= r(c) and r(c) + 1 <= l(d) <= r(a) sum to 2 <= 0."""
    P, cycles = _before_masks(n), 0
    for a, c in combinations(range(n), 2):
        bs = disjoint[a] & ~disjoint[c] & ~(1 << c)  # disjoint from a, meeting c
        ds = disjoint[c] & ~disjoint[a] & ~(1 << a)  # disjoint from c, meeting a
        if bs and ds:
            before_b = functools.reduce(operator.or_, (P[a][b] & P[c][b] for b in iter_bits(bs)))
            before_d = functools.reduce(operator.or_, (P[c][d] & P[a][d] for d in iter_bits(ds)))
            cycles |= before_b & before_d
    return cycles


def _first_realization(keep: int, disjoint: Sequence[int]) -> Optional[TriangleRepresentation]:
    """Triangles on the first ordering in ``keep`` whose base intervals
    solve, where the base of each vertex of ``disjoint[w]`` that comes before
    w must end before w's base begins.  Bit k is the ordering spelled by k's
    factorial-base digits, lowest first.  The first infeasible system drops
    :func:`_two_plus_two_orderings` from the rest, once, so an input whose
    first ordering solves never builds that mask."""
    n, drop = len(disjoint), None
    while keep:
        low = keep & -keep
        k, rest, sigma, cols = low.bit_length() - 1, list(range(n)), [], []
        for j in range(n - 1, -1, -1):
            digit, k = divmod(k, factorial(j))
            w = rest.pop(digit)
            cols.append(sum(1 << i for i, u in enumerate(sigma) if disjoint[w] >> u & 1))
            sigma.append(w)
        if (base_by_pos := _solve_base_intervals(cols)) is not None:
            return _assemble(sigma, base_by_pos)
        keep ^= low
        if drop is None:
            keep &= ~(drop := _two_plus_two_orderings(n, disjoint))
    return None


def geometric_search_realization(
    g: Graph, limit: int = DEFAULT_LIMIT
) -> Optional[TriangleRepresentation]:
    """Definition-level search for a triangle representation of g.

    Tries every apex ordering and solves the induced base constraints; the
    first hit is verified against the adjacency predicate before being
    returned.  "Lies completely left of" is transitive, so an ordering is
    dropped before any system is built when the complement orientation it
    induces, each vertex towards its later non-neighbours, is not: with u, v
    and v, w disjoint but not u, w, r(u) + 1 <= l(v), l(v) + 1 <= r(v),
    r(v) + 1 <= l(w) and l(w) <= r(u) sum to 3 <= 0.  After the first
    infeasible system, so is every ordering that puts a and c before b and
    d, with ab and cd disjoint and bc and ad meeting: r(a) + 1 <= l(b) <=
    r(c) and r(c) + 1 <= l(d) <= r(a) sum to 2 <= 0.  Shares no code with
    :func:`simpletri.recognition.recognize`.
    """
    _check_size(g.n, limit)
    t = _first_realization(_transitive_orderings(g), complement(g).adj)
    assert t is None or verify_representation(g, t)
    return t


def geometric_search_order_realization(
    p: PartialOrder, limit: int = DEFAULT_LIMIT
) -> Optional[TriangleRepresentation]:
    """Triangle representation realizing exactly the precedences of ``p``.

    A triangle lies completely left of another only if its apex does, so an
    apex ordering can realize ``p`` only when it extends it, that is when no
    element comes after one of its predecessors; every extension is tried
    with disjointness required exactly on the related pairs.
    """
    _check_size(p.n, limit)
    P = _before_masks(p.n)
    extensions = _outside(p.n, (P[v][u] for v in range(p.n) for u in iter_bits(p.pred[v])))
    t = _first_realization(extensions, [s | q for s, q in zip(p.succ, p.pred)])
    assert t is None or t.induced_order() == p
    return t


def _assemble(
    sigma: Sequence[int], base_by_pos: Sequence[tuple[int, int]]
) -> TriangleRepresentation:
    n = len(sigma)
    apex = [0] * n
    base = [(0, 0)] * n
    for i, v in enumerate(sigma):
        apex[v] = i + 1
        base[v] = base_by_pos[i]
    return TriangleRepresentation(tuple(apex), tuple(base))


def enumerate_orientations(
    g: Graph, mode: str, limit: int = 16
) -> Iterator[Orientation]:
    """Yield exactly the transitive or alternating orientations of g.

    Filters all 2^|E| direction assignments, in increasing order of the flip
    mask over the sorted edge list.
    """
    if mode not in ("transitive", "alternating"):
        raise ValueError(f"unknown mode {mode!r}")
    edge_list = sorted(g.edges)
    if len(edge_list) > limit:
        raise LimitExceeded(f"|E|={len(edge_list)} exceeds orientation limit {limit}")
    check = is_transitive_orientation if mode == "transitive" else is_alternating_orientation
    for flips in range(1 << len(edge_list)):
        out = [0] * g.n
        for i, (u, v) in enumerate(edge_list):
            if flips >> i & 1:
                u, v = v, u
            out[u] |= 1 << v
        o = Orientation(g.n, tuple(out))
        if check(g, o):
            yield o


def has_alternating_transitive_pair(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    """Some alternating orientation of g plus transitive orientation of the
    complement whose union is acyclic.

    An acyclic union admits a topological vertex ordering, and that ordering
    induces both orientations back; conversely any single ordering induces an
    acyclic union.  So it suffices that one ordering is in both the
    transitive and the alternating mask.
    """
    _check_size(g.n, limit)
    return bool(_transitive_orderings(g) & _alternating_orderings(g))


def all_transitive_complements_extend(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    """Every transitive orientation of the complement extends to an acyclic
    union with some alternating orientation of g.

    Requires g to be a simple-triangle graph, which the same masks decide:
    :class:`NotSimpleTriangle` is raised when no ordering gives an
    alternating and transitive pair.  Every transitive orientation of the
    complement is induced by each of its topological orderings, so the
    orderings with a transitive one are split by the direction of one edge
    of the complement after another, with ``P[a][b]`` and ``P[b][a]``, until
    each part holds the orderings of one orientation.  That orientation
    succeeds when one of its orderings is also alternating.  A part stops
    early once all its orderings are alternating (each of its orientations
    succeeds) or none is (each fails).
    """
    _check_size(g.n, limit)
    kept, alternating = _transitive_orderings(g), _alternating_orderings(g)
    if not kept & alternating:
        raise NotSimpleTriangle("graph is not a simple-triangle graph")
    P, edges = _before_masks(g.n), sorted(complement(g).edges)
    unalternating = kept & ~alternating

    def extends(part: int, e: int) -> bool:
        if not part & alternating:
            return not part
        if not part & unalternating or e == len(edges):
            return True
        a, b = edges[e]
        return extends(part & P[a][b], e + 1) and extends(part & P[b][a], e + 1)

    return extends(kept, 0)


# --- exact integer geometry -------------------------------------------------

Point = tuple[int, int]


def _corners(t: TriangleRepresentation, v: int) -> tuple[Point, Point, Point]:
    lo, hi = t.base[v]
    return ((t.apex[v], 1), (lo, 0), (hi, 0))


def _separated(
    tri: tuple[Point, Point, Point], other: tuple[Point, Point, Point], touching: bool
) -> bool:
    """Some side of ``tri`` has every corner of ``other`` on its far side.

    The far side is the open half-plane beyond the side's line, away from
    ``tri``; with ``touching`` the line itself counts as far.  Each side is
    read through integer cross products, signed by the turn of ``tri``'s own
    corners so that either orientation works.  ``tri`` must not be flat.
    """
    (ax, ay), (bx, by), (cx, cy) = tri
    turn = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    near = 1 if touching else 0
    for px, py, qx, qy in ((ax, ay, bx, by), (bx, by, cx, cy), (cx, cy, ax, ay)):
        dx, dy = qx - px, qy - py
        for ox, oy in other:
            if (dx * (oy - py) - dy * (ox - px)) * turn >= near:
                break
        else:
            return True
    return False


def exact_triangle_intersection(t: TriangleRepresentation, u: int, v: int) -> bool:
    """Closed filled triangles share at least one point; integer-exact.

    By the separating axis theorem, two convex polygons are disjoint exactly
    when a line along a side of one of them separates them, strictly for
    closed triangles.  The test reads the corners only, never the two-line
    layout that ``triangles_disjoint`` relies on, so it can check it.

    >>> t = TriangleRepresentation((1, 2), ((1, 2), (2, 3)))
    >>> exact_triangle_intersection(t, 0, 1), triangle_interiors_intersect(t, 0, 1)
    (True, False)
    """
    tu, tv = _corners(t, u), _corners(t, v)
    return not (_separated(tu, tv, False) or _separated(tv, tu, False))


def triangle_interiors_intersect(t: TriangleRepresentation, u: int, v: int) -> bool:
    """Open interiors overlap: no line along a side separates the triangles,
    even one that both of them touch."""
    tu, tv = _corners(t, u), _corners(t, v)
    return not (_separated(tu, tv, True) or _separated(tv, tu, True))


def random_triangle_pair(
    rng: random.Random, span: int = 40
) -> TriangleRepresentation:
    """Two random triangles with distinct apexes and endpoints in 1..span.

    Each coordinate is uniform over its range, which is all that correctness
    needs; ``span`` < 2 raises ValueError.
    """
    a1 = rng.randint(1, span)
    a2 = rng.randint(1, span - 1)
    if a2 >= a1:
        a2 += 1
    bases = []
    for _ in range(2):
        lo = rng.randint(1, span - 1)
        bases.append((lo, rng.randint(lo + 1, span)))
    return TriangleRepresentation((a1, a2), tuple(bases))
