"""Linear extensions without a 4-anticycle, decided by 2-SAT.

A linear extension L of a strict order P is fixed by one Boolean variable
per incomparable pair {u, v}: does u come before v in L?  Literal (u, v)
reads "u before v"; its negation is (v, u).  L is a linear order exactly
when no three elements form a cycle in it, and it has no 4-anticycle (the
2+2 rule) exactly when no two relations of P interleave in it.  Two clause
families encode this, each as implications between literals:

- *Transitivity with one relation.*  For a <_P b and c incomparable to
  both, b, c, a must not appear in that order: "c before b, or a before c".
  So x before y puts every q <_P x that is incomparable to y before y, and
  x before every s >_P y that is incomparable to x.
- *The 2+2 rule.*  For a0 <_P b0 and a1 <_P b1 with a1 ∥ b0 and a0 ∥ b1,
  "a1 before b0 and a0 before b1" is a 4-anticycle.  So x before y puts
  every s >_P x before every q <_P y that is incomparable to s.

A triangle with two or three relations of P is never cyclic in an
extension, so the only constraint left out is that three pairwise
incomparable elements must not form a cycle, the one that is not a
2-clause.

No clause is stored: each family is a mask expression over the
``succ``/``pred`` bitmasks of P.  An assignment is two mask lists,
``bef[x]`` holding each y with x before y and ``aft[y]`` each such x.
Propagation sets rows, x before each y of a mask, and a row implies rows:
x before the s >_P y, each s >_P x before the q <_P y, and, as rows of the
dual order read with ``aft`` and ``bef`` swapped, each q <_P x before y
(reversing L and P maps each family onto a family).

Soundness.  Every linear extension without a 4-anticycle satisfies both
families, so the formula is a relaxation: when it is unsatisfiable, P has
no such extension and is not a linear-interval order.
:meth:`IntervalFormula.satisfiable` decides it by unit propagation alone
(Even, Itai and Shamir, "On the complexity of timetable and multicommodity
flow problems", SIAM J. Comput. 5, 1976).  It takes each literal still
open and sets its closure under the implications, or the closure of its
negation when the first one holds a literal and its negation; when both
do, it stops.  Both closures conflict only when the formula, with what is
already set, forces the literal and also its negation, so it is
unsatisfiable.  A closure without a conflict satisfies every clause it
touches, so setting it keeps a satisfiable formula satisfiable.

Cost.  Propagation is a worklist of elements, not of rows.  Each element
has two waiting rows, one for ``bef`` and one for ``aft``; every row
implied for it is OR-ed into one of them less the literals already set,
and it is queued when that row turns nonzero.  A pop sets its whole row,
so a literal waits at most once in each list, and a propagation that sets k
literals pops at most 2k elements, each in O(n) operations on n-bit
masks.  The 2+2 rows of a pop are OR-ed into the rows of the s >_P x or,
when those are more, into the dual rows of the q <_P y; the literals are
the same.  A propagation stops at the first pop that sets, or makes wait,
the negation of a literal already set.  The propagations that
:meth:`~IntervalFormula.satisfiable` keeps close at most L literals in
all, and each variable costs at most two, so with L literals the decision
takes O(L·n) operations plus O(L·n) per conflicting propagation, O(L²·n)
in the worst case.

Search.  ``orders._first_interval_extension`` runs the engine of
:mod:`simpletri.patterns` with the same propagation as its rule: placing x
sets "x before every unplaced element incomparable to x" and the closure
(:meth:`IntervalFormula.place`), refusing x on a conflict, and leaving the
branch clears those rows (:meth:`IntervalFormula.undo`).  A refused branch
is dead, since an extension without a 4-anticycle starting with it would
satisfy those literals, and a complete ordering has set every literal,
closed and without conflict, so it satisfies every clause.  The first one
is thus the lexicographically least extension without a 4-anticycle, even
if the search backtracks.

Completeness, that a satisfiable formula means P is linear-interval and
the search never leaves a branch it accepted, is checked, not proved: on
every naturally ordered relation with n ≤ 8 and on seeded random orders
with n = 7–16 (``scripts/check_linear_interval_2sat.py``).  Mertzios, "The
recognition of simple-triangle graphs and of linear-interval orders is
polynomial" (SIAM J. Discrete Math., 2015) is cited from memory for a
polynomial algorithm; this module does not follow it.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ._bits import clear_rows

if TYPE_CHECKING:
    from .orders import PartialOrder

__all__ = ["IntervalFormula"]


class IntervalFormula:
    """The 2-SAT relaxation for the order ``p``, read from its bitmasks; as a
    rule it keeps the search prefix's assignment in ``bef``/``aft``.

    :meth:`_assume` propagates by a worklist (module doc, Cost):
    ``bef_due[x]`` holds the literals "x before y" implied and not yet set,
    ``aft_due[y]`` those "x before y" implied as rows of the dual, and x
    or y is queued when its row there turns nonzero.  Both lists are zero
    between calls, a conflict included.
    """

    def __init__(self, p: PartialOrder):
        n, succ, pred = p.n, p.succ, p.pred
        full = (1 << n) - 1
        inc = [full & ~(succ[v] | pred[v] | 1 << v) for v in range(n)]
        self.n, self.succ, self.pred, self.inc = n, succ, pred, inc
        self.bef, self.aft = [0] * n, [0] * n
        self.bef_due, self.aft_due = [0] * n, [0] * n

    def satisfiable(self) -> bool:
        """True iff the formula is satisfiable, decided by propagation (module doc)."""
        n, inc = self.n, self.inc
        bef, aft = [0] * n, [0] * n
        for x in range(n):
            while open_ := inc[x] & ~(bef[x] | aft[x]):
                low = open_ & -open_
                if self._assume(bef, aft, x, low) is None:
                    if self._assume(bef, aft, low.bit_length() - 1, 1 << x) is None:
                        return False
        return True

    def place(self, x: int, unplaced: int) -> Optional[list]:
        """The search rule (module doc): the rows set, or None on a conflict."""
        return self._assume(self.bef, self.aft, x, self.inc[x] & unplaced)

    def undo(self, added: list) -> None:
        """Clear the rows that :meth:`place` or :meth:`_assume` set."""
        clear_rows(added)

    def _assume(self, bef: list[int], aft: list[int], x: int, row: int) -> Optional[list]:
        """Set "x before y" for each y in ``row`` and the closure (rows of the
        dual: module doc) in ``bef``/``aft``; return the rows set, or None and
        leave them unchanged when the closure sets a literal and its negation."""
        if not (row := row & ~bef[x]):
            return []
        inc, bef_due, aft_due = self.inc, self.bef_due, self.aft_due
        sides = (
            (self.succ, self.pred, bef, aft, bef_due, aft_due),
            (self.pred, self.succ, aft, bef, aft_due, bef_due),
        )
        added = []
        bef_due[x] = row
        queue = [(0, x)]
        while queue:
            dual, x = queue.pop()
            up, down, first, second, due, other = sides[dual]
            row = due[x] & ~first[x]
            due[x] = 0
            if not row:
                continue
            if row & second[x]:
                return self._refuse(added, queue)
            first[x] |= row
            added.append((first, second, x, row))
            bit, before = 1 << x, down[x]
            later = below = clash = 0
            while row:
                low = row & -row
                row ^= low
                y = low.bit_length() - 1
                second[y] |= bit
                later |= up[y]
                below |= down[y]
                if new := before & inc[y] & ~(second[y] | other[y]):
                    if not other[y]:
                        queue.append((not dual, y))
                    other[y] |= new
                    clash |= new & first[y]
            if new := later & inc[x] & ~first[x]:
                queue.append((dual, x))
                due[x] = new
                clash |= new & second[x]
            # each s >_P x before each q in below incomparable to s, as rows
            # of the s or, when the q are fewer, as dual rows of the q: the
            # literals are the same, and the loop runs once per end
            side, ends, mask = dual, up[x], below
            if ends.bit_count() > below.bit_count():
                side, ends, mask = not dual, below, up[x]
                first, second, due = second, first, other
            while ends:
                low = ends & -ends
                ends ^= low
                s = low.bit_length() - 1
                if new := mask & inc[s] & ~(first[s] | due[s]):
                    if not due[s]:
                        queue.append((side, s))
                    due[s] |= new
                    clash |= new & second[s]
            if clash:
                return self._refuse(added, queue)
        return added

    def _refuse(self, added: list, queue: list) -> None:
        """Clear the rows set and the rows waiting after a conflict."""
        for dual, x in queue:
            (self.aft_due if dual else self.bef_due)[x] = 0
        self.undo(added)
