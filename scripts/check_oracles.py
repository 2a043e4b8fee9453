"""Cross-check the recognizer against the brute-force oracles on every graph
with six vertices and on seeded samples with seven and eight.

On all 32,768 labeled graphs with n = 6, and on 2,000 G(n, p) draws each
for n = 7 and n = 8 (seeded by n) with p cycling through 0.3, 0.5 and 0.7,
``recognize``, ``geometric_search_realization`` and
``has_alternating_transitive_pair`` must agree on acceptance, and on every
accepted graph ``all_transitive_complements_extend`` must hold and
``apex_ordering`` must give an ordering whose ``realize`` passes
``verify_representation``.  It prints the counts and the wall time of
each part, with the time spent in each oracle (geometric, pair, extend) and
in the recognizer, and exits 1 on any mismatch.  A run takes about 12 s on a
2-vCPU x86-64 VM with CPython 3.11: 10 s for n = 6, 0.7–0.8 s for the n = 7
sample and 1.3 s for the n = 8 one.  The recognizer takes 5.8–6.1, 0.4 and
0.4 s of that and the geometric search 2.1–2.2, 0.2 and 0.6 s (11, 1.3 and
4.7 s for the three parts when the search rebuilt each ordering's system
whole and solved it by Bellman-Ford, and the extend oracle read the
ordering table).  That is too slow for the test suite.

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
SAMPLE_NS, SAMPLE_SIZE = (7, 8), 2000


def sample_graphs(n: int):
    """``SAMPLE_SIZE`` G(n, p) draws, seeded by n."""
    rng = random.Random(n)
    pairs = list(combinations(range(n), 2))
    for i in range(SAMPLE_SIZE):
        p = (0.3, 0.5, 0.7)[i % 3]
        yield Graph.from_edges(n, [e for e in pairs if rng.random() < p])


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
    for n in SAMPLE_NS:
        mismatches += check(f"n={n} sample (seed {n})", sample_graphs(n))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
