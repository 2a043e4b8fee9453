"""Cross-check the recognizer against the brute-force oracles on every graph
with six vertices, on seeded samples with seven to ten, and on the prism
plus isolated or universal vertices.

The graphs are all 32,768 labeled graphs with n = 6; G(n, p) draws seeded
by n, with p cycling through 0.3, 0.5 and 0.7: 2,000 each for n = 7 and 8,
300 for n = 9 and 100 for n = 10; and the prism plus 1-4 isolated and plus
1-4 universal vertices, rejections whose complement is a comparability
graph.  On each, ``recognize``, ``geometric_search_realization`` and
``has_alternating_transitive_pair`` must agree on acceptance, and on every
accepted graph ``all_transitive_complements_extend`` must hold and
``apex_ordering`` must give an ordering whose ``realize`` passes
``verify_representation``.  It prints the counts and the wall time of
each part, with the time spent in each oracle (geometric, pair, extend) and
in the recognizer, and exits 1 on any mismatch.

Every part reports 0 mismatches.  Accepted and rejected: 30,104 and 2,664
at n = 6; 1,654 and 346, 1,234 and 766, 101 and 199, 21 and 79 in the
samples with n = 7 to 10; all 8 of the prism family rejected.  A run takes
about 20 s on a 2-vCPU x86-64 VM with CPython 3.11, whose speed drifts by
a third: 10-14 s for n = 6, 0.8, 1.4, 0.9 and 2.5 s for the samples with
n = 7 to 10, and 1.0-2.1 s for the prism family.  The geometric search
takes 2.2-3.0, 0.2, 0.6, 0.6, 1.3 and 1.0-2.1 s of those.  That is too
slow for the test suite.

    PYTHONPATH=src python scripts/check_oracles.py
"""
from __future__ import annotations

import random
import sys
import time
from itertools import combinations

from simpletri.exhaustive import all_graphs
from simpletri.graphs import Graph
from simpletri.oracles import (
    all_transitive_complements_extend,
    geometric_search_realization,
    has_alternating_transitive_pair,
)
from simpletri.recognition import apex_ordering, realize, recognize
from simpletri.triangles import verify_representation

N = 6
SAMPLES = ((7, 2000), (8, 2000), (9, 300), (10, 100))  # (n, draws)
PRISM = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]


def sample_graphs(n: int, size: int):
    """``size`` G(n, p) draws, seeded by n."""
    rng = random.Random(n)
    pairs = list(combinations(range(n), 2))
    for i in range(size):
        p = (0.3, 0.5, 0.7)[i % 3]
        yield Graph.from_edges(n, [e for e in pairs if rng.random() < p])


def prism_family():
    """The prism plus 1-4 isolated vertices, then plus 1-4 universal ones:
    rejected, with a transitively orientable complement."""
    for k in range(1, 5):
        yield Graph.from_edges(6 + k, PRISM)
    for k in range(1, 5):
        yield Graph.from_edges(6 + k, PRISM + [(u, v) for v in range(6, 6 + k) for u in range(v)])


def check(label: str, graphs) -> int:
    """Cross-check each graph, print the counts and the time of each
    oracle and of the recognizer, and return the mismatches."""
    start = time.perf_counter()
    times = dict.fromkeys(("recognizer", "geometric", "pair", "extend"), 0.0)

    def timed(part, f, *args):
        t = time.perf_counter()
        out = f(*args)
        times[part] += time.perf_counter() - t
        return out

    count = accepted = mismatches = 0
    for g in graphs:
        count += 1
        verdict = timed("recognizer", recognize, g) is not None
        answers = (
            verdict,
            timed("geometric", geometric_search_realization, g, g.n) is not None,
            timed("pair", has_alternating_transitive_pair, g, g.n),
        )
        accepted += verdict
        ok = len(set(answers)) == 1
        if ok and verdict:
            # called only once the pair oracle accepts, else it raises
            ok = timed("extend", all_transitive_complements_extend, g, g.n)
            rep = timed("recognizer", lambda: realize(g, apex_ordering(g)))
            ok = ok and verify_representation(g, rep)
        if not ok:
            mismatches += 1
            print(f"mismatch: n={g.n} edges={sorted(g.edges)} answers={answers}")
    print(
        f"{label}: {count} graphs, {accepted} accepted, "
        f"{count - accepted} rejected, {mismatches} mismatches, "
        f"{time.perf_counter() - start:.1f} s ("
        + ", ".join(f"{part} {t:.2f} s" for part, t in times.items())
        + ")"
    )
    return mismatches


def main() -> int:
    mismatches = check(f"n={N}", all_graphs(N))
    for n, size in SAMPLES:
        mismatches += check(f"n={n} sample (seed {n})", sample_graphs(n, size))
    mismatches += check("prism plus isolated or universal vertices", prism_family())
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
