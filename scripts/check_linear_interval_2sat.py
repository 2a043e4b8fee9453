"""Compare the 2-SAT decision of linear-interval orders with the plain search.

For every naturally ordered relation on at most ``--max-n`` elements, and for
``--random`` orders with n = 7-16 drawn from ``random.Random(1)``, this
checks that ``orders._first_interval_extension``, the search with the 2-SAT
relaxation as its rule, returns the first linear extension without a
4-anticycle that the plain pattern search (``patterns.search_orderings``
with a ``PatternRule`` on p1 and p2) finds (or None with it), that
``IntervalFormula.satisfiable`` agrees on whether one exists, and counts
the rule search's backtracks: refused branches off the path to its answer,
or off the root when it has none.  The plain search and the backtrack count
are those of ``tests/references.py``, as tier-1 uses them.  On the naturally
ordered relations it also checks the 2+2 rule on the identity extension:
the interval construction stalls exactly when the reference tuple scan
finds p1 or p2 on the comparability graph, its certificate then passes
``is_valid_anticycle``, and its intervals otherwise intersect with the
extension to the order.  It prints the number of mismatches and of
backtracks and exits 1 if either is nonzero.  The default run takes about
62 s (25 s for the n <= 7 pass, about 13 s of it the tuple scan, and 37 s
for the random orders, on a 2-vCPU x86-64 VM, CPython 3.11).  With
``--max-n 8`` the pass over the 2,902,132 relations with n <= 8 took
about 890 s there, of which about 32 s generates the 2,800,472 with
n = 8, before the 2-SAT propagated by an element worklist and before the
2+2 check ran the tuple scan.

    PYTHONPATH=src python scripts/check_linear_interval_2sat.py [--max-n 7] [--random 600]
"""
from __future__ import annotations

import argparse
import os
import random
import sys
import time

from simpletri import orders
from simpletri.exhaustive import naturally_ordered_relations, random_partial_order
from simpletri.graphs import Graph
from simpletri.orders import (
    Anticycle,
    IntervalRepresentation,
    PartialOrder,
    build_interval_representation,
    intersect_orders,
    is_valid_anticycle,
    linear_order,
    make_partial_order,
)
from simpletri.twosat import IntervalFormula

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from references import (  # noqa: E402
    INTERVAL_PATTERNS, counting_backtracks, engine_extension, scan_pattern,
)

SEED = 1


def crown_in_random_order(rng: random.Random, n: int) -> PartialOrder:
    """A 3-crown on six random elements among random relations, redrawn
    until the crown stays induced, so rejected (the class is hereditary)."""
    while True:
        labels = rng.sample(range(n), n)
        a, b = labels[:3], labels[3:6]
        arrangement = a + b
        for x in labels[6:]:
            arrangement.insert(rng.randint(0, len(arrangement)), x)
        relations = [(a[i], b[j]) for i in range(3) for j in range(3) if i != j]
        density = rng.uniform(0.2, 0.6)
        for i, u in enumerate(arrangement):
            for v in arrangement[i + 1:]:
                if not (u in a + b and v in a + b) and rng.random() < density:
                    relations.append((u, v))
        p = make_partial_order(n, relations)
        crown = a + b
        if all(p.less(x, y) == (x in a and y in b and a.index(x) != b.index(y))
               for x in crown for y in crown):
            return p


def random_linear_interval_order(rng: random.Random, n: int) -> PartialOrder:
    """Intersection of a random linear order with a random interval order,
    plus one random relation, which may break the class."""
    line = rng.sample(range(n), n)
    points = rng.sample(range(2 * n), 2 * n)
    iv = [sorted(points[2 * v: 2 * v + 2]) for v in range(n)]
    relations = [
        (u, v) for u in range(n) for v in range(n)
        if line.index(u) < line.index(v) and iv[u][1] < iv[v][0]
    ]
    u, v = sorted(rng.sample(range(n), 2), key=line.index)
    return make_partial_order(n, relations + [(u, v)])


def compare(p: PartialOrder, tally: dict) -> None:
    expected = engine_extension(p)
    got = orders._first_interval_extension(p)
    sat = IntervalFormula(p).satisfiable()
    tally["orders"] += 1
    tally["rejected"] += expected is None
    if got != expected or sat != (expected is not None):
        tally["mismatches"] += 1
        print(f"mismatch on n={p.n} pairs={sorted(p.pairs)}: search {expected}, "
              f"rule search {got}, satisfiable {sat}")


def check_identity_extension(p: PartialOrder, tally: dict) -> None:
    """The 2+2 rule on (p, identity), against code that shares nothing with
    the construction: a valid 4-anticycle exactly when the tuple scan finds
    p1 or p2 on the comparability graph, and otherwise intervals that give
    back p."""
    ext = tuple(range(p.n))
    comparability = Graph(p.n, p.pairs)
    blocked = any(scan_pattern(comparability, ext, pat) for _, pat in INTERVAL_PATTERNS)
    out = build_interval_representation(p, ext)
    tally["blocked"] += blocked
    if blocked:
        held = isinstance(out, Anticycle) and is_valid_anticycle(p, ext, out)
    else:
        held = (isinstance(out, IntervalRepresentation)
                and intersect_orders(linear_order(ext), out.induced_order()) == p)
    if not held:
        tally["mismatches"] += 1
        print(f"2+2 rule mismatch on n={p.n} pairs={sorted(p.pairs)}: "
              f"construction {out}, p1 or p2 found: {blocked}")


def report(label: str, tally: dict, counts: dict, seconds: float) -> None:
    print(f"{label}: {tally['orders']} orders, {tally['rejected']} rejected, "
          f"{tally['mismatches']} mismatches, {counts['backtracks']} backtracks, "
          f"{seconds:.1f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--random", type=int, default=600)
    args = parser.parse_args(argv)
    bad = 0
    t0 = time.perf_counter()
    tally = dict.fromkeys(("orders", "rejected", "mismatches", "blocked"), 0)
    with counting_backtracks(orders) as counts:
        for n in range(args.max_n + 1):
            for p in naturally_ordered_relations(n):
                compare(p, tally)
                check_identity_extension(p, tally)
    report(f"naturally ordered relations, n <= {args.max_n}", tally, counts,
           time.perf_counter() - t0)
    print(f"  identity extensions with a 4-anticycle: {tally['blocked']}")
    bad += tally["mismatches"] + counts["backtracks"]
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    makers = (random_partial_order, crown_in_random_order, random_linear_interval_order)
    tally.update(dict.fromkeys(tally, 0))
    with counting_backtracks(orders) as counts:
        for i in range(args.random):
            compare(makers[i % 3](rng, rng.randint(7, 16)), tally)
    report(f"seeded random orders, n = 7-16, seed {SEED}", tally, counts,
           time.perf_counter() - t0)
    bad += tally["mismatches"] + counts["backtracks"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
