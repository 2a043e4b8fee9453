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
touches, so setting it keeps a satisfiable formula satisfiable.  A
propagation that sets k rows costs O(k·n) operations on n-bit masks, and
each variable costs at most two, so with L literals the decision takes
O(L²·n) of them in the worst case.  The construction below needs the same
propagation, and one procedure serves both.

Construction.  :meth:`IntervalFormula.least_extension` places elements one
at a time, each time the least minimal element x for which the formula
stays satisfiable under the unit clauses "x before every remaining element
incomparable to x" (the placed prefix carries its own from earlier steps).
For a satisfiable 2-SAT formula, added literals keep it satisfiable exactly
when their closure under the implications holds no complementary pair
(Even, Itai and Shamir, above), so each candidate costs one propagation,
undone when it conflicts.  A skipped candidate starts no extension without
a 4-anticycle, and a completed ordering satisfies every 2+2 clause; so when
the construction completes, it returns exactly the lexicographically least
linear extension without a 4-anticycle.

Completeness, that a satisfiable formula means P is linear-interval and
the construction never gets stuck, is checked, not proved: on every
naturally ordered relation with n ≤ 7 and on seeded random orders with
n = 7–16 (``scripts/check_linear_interval_2sat.py``).  When the
construction does get stuck it returns None, and the caller falls back to
the exact search.  Mertzios, "The recognition of simple-triangle graphs and
of linear-interval orders is polynomial" (SIAM J. Discrete Math., 2015) is
cited from memory for a polynomial algorithm; this module does not follow
it.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ._bits import iter_bits

if TYPE_CHECKING:
    from .orders import PartialOrder

__all__ = ["IntervalFormula"]


class IntervalFormula:
    """The 2-SAT relaxation for the order ``p``, read from its bitmasks."""

    def __init__(self, p: PartialOrder):
        n, succ, pred = p.n, p.succ, p.pred
        full = (1 << n) - 1
        inc = [full & ~(succ[v] | pred[v] | 1 << v) for v in range(n)]
        self.n, self.succ, self.pred, self.inc = n, succ, pred, inc
        # the elements incomparable to some element; no other s has a 2+2 clause
        self.loose = sum(1 << v for v in range(n) if inc[v])

    def satisfiable(self) -> bool:
        """True iff the formula is satisfiable, decided by propagation (module doc)."""
        n, inc = self.n, self.inc
        bef, aft = [0] * n, [0] * n
        for x in range(n):
            for y in iter_bits(inc[x]):
                if not ((bef[x] | aft[x]) >> y & 1 or self._assume(bef, aft, x, 1 << y)
                        or self._assume(bef, aft, y, 1 << x)):
                    return False
        return True

    def least_extension(self) -> Optional[tuple[int, ...]]:
        """The greedy construction of the module doc, or None if it gets stuck.

        A completed construction is a satisfying assignment: it is total,
        closed under the implications and free of conflicts.  Satisfiability
        (:meth:`satisfiable`) is needed only for it never to get stuck.
        """
        n, pred, inc = self.n, self.pred, self.inc
        bef, aft = [0] * n, [0] * n
        remaining = (1 << n) - 1
        order = []
        while remaining:
            for x in iter_bits(remaining):
                if not pred[x] & remaining and self._assume(bef, aft, x, inc[x] & remaining):
                    break
            else:
                return None
            order.append(x)
            remaining &= ~(1 << x)
        return tuple(order)

    def _assume(self, bef: list[int], aft: list[int], x: int, row: int) -> bool:
        """Set "x before y" for each y in the mask ``row``, and the closure, in
        ``bef``/``aft``, or leave them as they were and return False when the
        closure sets a literal and its negation (rows of the dual: module doc)."""
        inc, loose = self.inc, self.loose
        sides = ((self.succ, self.pred, bef, aft), (self.pred, self.succ, aft, bef))
        added = []
        tasks = [(False, x, row)]
        while tasks:
            dual, x, row = tasks.pop()
            up, down, first, second = sides[dual]
            row &= ~first[x]
            if not row:
                continue
            if row & second[x]:
                for first, second, x, row in added:
                    first[x] ^= row
                    for y in iter_bits(row):
                        second[y] ^= 1 << x
                return False
            first[x] |= row
            added.append((first, second, x, row))
            later = below = 0
            for y in iter_bits(row):
                second[y] |= 1 << x
                later |= up[y]
                below |= down[y]
                tasks.append((not dual, y, down[x] & inc[y]))
            tasks.append((dual, x, later & inc[x]))
            for s in iter_bits(up[x] & loose):
                tasks.append((dual, s, below & inc[s]))
        return True
