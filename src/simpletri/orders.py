"""Finite strict partial orders, linear extensions, and interval representations.

An order is held as one successor bitmask per element, the form that the
ordering search, the 2-SAT relaxation and the peeling below all read; its
predecessor masks and its related pairs are derived from them.

The central construction takes a partial order P together with a linear
extension L and peels elements off in rounds, assigning integer interval
endpoints as it goes; an element waits on its highest-labelled remaining
predecessor.  When it succeeds, the produced intervals induce an
interval order P_I with ``linear_order(L) ∩ P_I == P``.  When the peeling
stalls, the extension contains a 4-anticycle (the 2+2 rule), and the first
along L, named by the p1/p2 kernels of :mod:`simpletri.patterns`, is
returned as a certificate that no such interval order exists for this
extension.  Linear extensions are enumerated by the search engine of
:mod:`simpletri.patterns` that also recognizes simple-triangle graphs.  Linear-interval orders are recognized by that
engine too, pruned by the 2-SAT relaxation of :mod:`simpletri.twosat`,
which rejects in polynomial time when unsatisfiable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from ._bits import iter_bits
from .errors import CycleError, NotAnExtension, SizeMismatch
from .patterns import PATTERN_P1, PATTERN_P2, PatternRule, search_orderings
from .twosat import IntervalFormula

__all__ = [
    "PartialOrder",
    "IntervalRepresentation",
    "Anticycle",
    "make_partial_order",
    "linear_order",
    "is_linear_extension",
    "enumerate_linear_extensions",
    "find_alternating_anticycle",
    "is_valid_anticycle",
    "build_interval_representation",
    "intersect_orders",
    "recognize_linear_interval_order",
]


@dataclass(frozen=True)
class PartialOrder:
    """Strict partial order on elements ``0..n-1``.

    ``succ[u]`` masks the elements that u precedes and must already be
    transitively closed; use :func:`make_partial_order` to build one from
    arbitrary generating relations.  ``pred[v]`` masks the elements that
    precede v, and ``pairs`` lists every related pair ``(u, v)``; both are
    derived from ``succ``, which alone is compared and hashed.
    """

    n: int
    succ: tuple[int, ...]
    pred: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, succ = self.n, tuple(self.succ)
        if len(succ) != n:
            raise ValueError(f"{len(succ)} successor masks for n={n}")
        for u, s in enumerate(succ):
            if s < 0 or s >> n:
                raise ValueError(f"successor mask of {u} out of range for n={n}")
            if s >> u & 1:
                raise ValueError(f"irreflexivity violated at element {u}")
        pred = [0] * n
        for u, s in enumerate(succ):
            for v in iter_bits(s):
                if succ[v] & ~s:
                    raise ValueError(f"relation is not transitively closed at ({u}, {v})")
                pred[v] |= 1 << u
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "pred", tuple(pred))

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """Every related pair ``(u, v)``, u preceding v."""
        return frozenset((u, v) for u, s in enumerate(self.succ) for v in iter_bits(s))

    def less(self, u: int, v: int) -> bool:
        """True iff u strictly precedes v."""
        return self.succ[u] >> v & 1 == 1


@dataclass(frozen=True)
class IntervalRepresentation:
    """Closed integer interval ``[l(v), r(v)]`` per element, with l(v) < r(v)."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for v, (lo, hi) in enumerate(self.intervals):
            if lo >= hi:
                raise ValueError(f"interval of {v} is degenerate: [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return len(self.intervals)

    def induced_order(self) -> PartialOrder:
        """Interval order with u before v iff u's interval ends before v's starts."""
        iv = self.intervals
        succ = tuple(sum(1 << v for v, (lo, _) in enumerate(iv) if hi < lo) for _, hi in iv)
        return PartialOrder(len(iv), succ)


@dataclass(frozen=True)
class Anticycle:
    """4-anticycle of a pair (P, L), that is, a violation of the 2+2 rule.

    Two pairs of four distinct elements, ``a == (a0, a1)`` and
    ``b == (b0, b1)``: a0 below b0 and a1 below b1 in P, while a1 precedes
    b0 and a0 precedes b1 in L only.  By the 2+2 rule no longer anticycle
    needs a certificate (:func:`find_alternating_anticycle`).
    """

    a: tuple[int, int]
    b: tuple[int, int]

    def __post_init__(self):
        if len(self.a) != 2 or len(self.b) != 2 or len({*self.a, *self.b}) != 4:
            raise ValueError("anticycle needs two pairs of four distinct elements")

    def elements(self) -> tuple[int, int, int, int]:
        return self.a[0], self.b[0], self.a[1], self.b[1]


def make_partial_order(n: int, relations: Iterable[tuple[int, int]]) -> PartialOrder:
    """Transitive closure of ``relations`` as a :class:`PartialOrder`.

    >>> sorted(make_partial_order(3, [(0, 1), (1, 2)]).pairs)
    [(0, 1), (0, 2), (1, 2)]

    Raises :class:`CycleError` when the closure would relate an element to
    itself, i.e. the input is not acyclic.
    """
    succ = [0] * n
    for u, v in relations:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"pair ({u}, {v}) out of range for n={n}")
        if u == v:
            raise CycleError(f"element {u} would precede itself")
        succ[u] |= 1 << v
    for k in range(n):
        if not succ[k]:
            continue  # closing through a maximal element changes nothing
        bit = 1 << k
        for u in range(n):
            if succ[u] & bit:
                succ[u] |= succ[k]
    for v in range(n):
        if succ[v] >> v & 1:
            raise CycleError(f"closure relates element {v} to itself")
    return PartialOrder(n, tuple(succ))


def linear_order(order: Sequence[int]) -> PartialOrder:
    """The permutation ``order`` viewed as a linear order on its elements."""
    seq = tuple(order)
    _check_permutation(seq, len(seq))
    return PartialOrder(len(seq), tuple(_later_masks(seq)))


def _check_permutation(order: Sequence[int], n: int) -> None:
    if len(order) != n:
        raise SizeMismatch(f"ordering has {len(order)} elements, expected {n}")
    if sorted(order) != list(range(n)):
        raise ValueError(f"{order!r} is not a permutation of 0..{n - 1}")


def _later_masks(order: Sequence[int]) -> list[int]:
    """later[v] = elements after v in the permutation ``order``."""
    later = [0] * len(order)
    seen = 0
    for v in reversed(order):
        later[v] = seen
        seen |= 1 << v
    return later


def _positions(order: Sequence[int]) -> list[int]:
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def is_linear_extension(p: PartialOrder, order: Sequence[int]) -> bool:
    """True iff every element of ``order`` comes after all its predecessors in ``p``."""
    _check_permutation(order, p.n)
    placed = 0
    for v in order:
        if p.pred[v] & ~placed:
            return False
        placed |= 1 << v
    return True


def enumerate_linear_extensions(p: PartialOrder) -> Iterator[tuple[int, ...]]:
    """Yield every linear extension exactly once, lexicographically smallest first."""
    return (ext for ext, _ in search_orderings(p.pred))


def _dashed_masks(p: PartialOrder, order: Sequence[int]) -> list[int]:
    """dashed[u] = elements after u in the extension that u does not precede in P."""
    return [later & ~s for later, s in zip(_later_masks(order), p.succ)]


def _first_anticycle(p: PartialOrder, order: Sequence[int]) -> Anticycle:
    """First 4-anticycle along the extension ``order``: the first p1 or p2
    instance (x0, x1, y0, y1) on P's comparability graph that a
    ``PatternRule`` placed along ``order``, on P's own labels, hits.  In P,
    p1 puts x0 below y0 and x1 below y1, and p2 x0 below y1 and x1 below
    y0, with the other two pairs incomparable."""
    comparable = [s | q for s, q in zip(p.succ, p.pred)]
    rule = PatternRule(comparable, (("p1", PATTERN_P1), ("p2", PATTERN_P2)))
    for name, (x0, x1, y0, y1) in rule.hits(order):
        return Anticycle((x0, x1), (y0, y1) if name == "p1" else (y1, y0))
    raise RuntimeError("peeling stalled without a 4-anticycle")


def find_alternating_anticycle(
    p: PartialOrder, order: Sequence[int], k_max: Optional[int] = None
) -> Optional[Anticycle]:
    """The 4-anticycle of the extension ``order`` that
    :func:`build_interval_representation` returns, or None when it builds
    intervals or ``k_max``, kept for ``bench/run.py``, which passes 2, is below 2.

    No longer alternating anticycle needs a search, by the 2+2 rule: an
    extension L without a 4-anticycle has intervals whose interval order I
    satisfies L ∩ I = P, and such intervals admit no anticycle of any
    length.  There a[i] below b[i] in P gives r(a[i]) < l(b[i]), while
    a[i+1] before b[i] in L but not below it in P gives
    r(a[i+1]) >= l(b[i]), so r(a0) < r(a1) < ... < r(a0).
    Raises :class:`NotAnExtension` when ``order`` does not extend ``p``.
    """
    out = build_interval_representation(p, order)
    if isinstance(out, Anticycle) and (k_max is None or k_max >= 2):
        return out
    return None


def is_valid_anticycle(p: PartialOrder, order: Sequence[int], ac: Anticycle) -> bool:
    """Check an anticycle certificate against the pair (p, order): the 2+2
    relations, a0 below b0 and a1 below b1 in p, while a1 precedes b0 and a0
    precedes b1 in ``order`` without preceding them in p, all four in
    0..n-1.  Raises :class:`NotAnExtension` when ``order`` does not extend p."""
    if not is_linear_extension(p, order):
        raise NotAnExtension(f"{tuple(order)!r} does not extend the order")
    pos = _positions(order)
    (a0, a1), (b0, b1) = ac.a, ac.b
    return (
        all(0 <= v < p.n for v in ac.elements())
        and p.less(a0, b0) and p.less(a1, b1)
        and pos[a1] < pos[b0] and not p.less(a1, b0)
        and pos[a0] < pos[b1] and not p.less(a0, b1)
    )


def build_interval_representation(
    p: PartialOrder, order: Sequence[int]
) -> Union[IntervalRepresentation, Anticycle]:
    """Peel minimal elements off (p, order), assigning interval endpoints.

    Rounds are counted by a tick ``i`` that advances once before left
    endpoints are assigned and once before right endpoints are assigned, so
    every endpoint lands in ``1..2n``.  An element receives its left endpoint
    when it becomes minimal among the remaining elements, and is retired with
    a right endpoint once no remaining non-minimal element follows it in the
    extension without being above it in the order.  Until minimal it waits
    on its highest-labelled remaining predecessor; any one would serve.

    Returns the interval representation on success.  If a round retires
    nothing, the extension has a 4-anticycle, and the first one along the
    extension, a p1 or p2 instance on the comparability graph that the
    pattern kernels name, is returned instead.  Raises RuntimeError should
    the 2+2 rule fail and no 4-anticycle exist.
    """
    if not is_linear_extension(p, order):
        raise NotAnExtension(f"{tuple(order)!r} does not extend the order")
    n = p.n
    dashed = _dashed_masks(p, order)
    left = [0] * n
    right = [0] * n
    waiting = [0] * n  # waiting[u]: elements to check again for minimality once u retires
    remaining = fresh = (1 << n) - 1
    in_s = 0
    tick = 0
    while remaining:
        tick += 1
        for v in iter_bits(fresh):
            if below := p.pred[v] & remaining:
                waiting[below.bit_length() - 1] |= 1 << v
            else:
                in_s |= 1 << v
                left[v] = tick
        tick += 1
        outside = remaining & ~in_s
        retired = fresh = 0
        for v in iter_bits(in_s):
            if dashed[v] & outside == 0:
                retired |= 1 << v
                right[v] = tick
                fresh |= waiting[v]
        if not retired:
            return _first_anticycle(p, order)
        remaining &= ~retired
        in_s &= ~retired
    return IntervalRepresentation(tuple(zip(left, right)))


def intersect_orders(p1: PartialOrder, p2: PartialOrder) -> PartialOrder:
    """Order with exactly the relations common to ``p1`` and ``p2``."""
    if p1.n != p2.n:
        raise SizeMismatch(f"ground sets differ: {p1.n} vs {p2.n}")
    return PartialOrder(p1.n, tuple(a & b for a, b in zip(p1.succ, p2.succ)))


def _first_interval_extension(p: PartialOrder) -> Optional[tuple[int, ...]]:
    """First linear extension (lexicographic) without a 4-anticycle, or None.

    The search runs with the 2-SAT relaxation of :mod:`simpletri.twosat` as
    its rule (module doc there) and returns its first complete ordering; at
    the first refused branch an unsatisfiable relaxation rejects.
    """
    formula = IntervalFormula(p)
    search = search_orderings(p.pred, formula)
    first, hit = next(search)
    if hit is None:
        return first
    if not formula.satisfiable():
        return None
    return next((o for o, hit in search if hit is None), None)


def recognize_linear_interval_order(
    p: PartialOrder,
) -> Optional[tuple[tuple[int, ...], IntervalRepresentation]]:
    """First extension (lexicographic) admitting an interval representation.

    Returns ``(extension, representation)`` or None when every linear
    extension of ``p`` contains a 4-anticycle.
    """
    ext = _first_interval_extension(p)
    if ext is None:
        return None
    rep = build_interval_representation(p, ext)
    assert isinstance(rep, IntervalRepresentation)
    return ext, rep
