"""Cross-check the recognizer against the brute-force oracles on every graph
with six vertices and on a seeded sample with seven.

On all 32,768 labeled graphs with n = 6, and on 2,000 seeded G(7, p) draws
with p cycling through 0.3, 0.5 and 0.7, ``recognize``,
``geometric_search_realization`` and ``has_alternating_transitive_pair``
must agree on acceptance, and on every accepted graph
``all_transitive_complements_extend`` must hold and ``apex_ordering`` must
give an ordering whose ``realize`` passes ``verify_representation``.  It
prints the counts and the wall time of each part and exits 1 on any
mismatch.  A run takes about 40 s on a 2-vCPU x86-64 VM with CPython 3.11:
28–31 s for n = 6 (36–39 s when each oracle scanned the orderings on its
own) and 7–9 s for the n = 7 sample.  That is too slow for the test suite.

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
SAMPLE_N, SAMPLE_SIZE, SAMPLE_SEED = 7, 2000, 7


def sample_graphs():
    rng = random.Random(SAMPLE_SEED)
    pairs = list(combinations(range(SAMPLE_N), 2))
    for i in range(SAMPLE_SIZE):
        p = (0.3, 0.5, 0.7)[i % 3]
        yield Graph.from_edges(SAMPLE_N, [e for e in pairs if rng.random() < p])


def check(label: str, graphs) -> int:
    """Cross-check each graph, print the counts, and return the mismatches."""
    start = time.perf_counter()
    count = accepted = mismatches = 0
    for g in graphs:
        count += 1
        verdict = recognize(g) is not None
        answers = (
            verdict,
            geometric_search_realization(g, limit=g.n) is not None,
            has_alternating_transitive_pair(g, limit=g.n),
        )
        accepted += verdict
        ok = len(set(answers)) == 1
        if ok and verdict:
            # called only once the pair oracle accepts, else it raises
            ok = all_transitive_complements_extend(g, limit=g.n)
            ok = ok and verify_representation(g, realize(g, apex_ordering(g)))
        if not ok:
            mismatches += 1
            print(f"mismatch: n={g.n} edges={sorted(g.edges)} answers={answers}")
    print(
        f"{label}: {count} graphs, {accepted} accepted, "
        f"{count - accepted} rejected, {mismatches} mismatches, "
        f"{time.perf_counter() - start:.1f} s"
    )
    return mismatches


def main() -> int:
    mismatches = check(f"n={N}", all_graphs(N))
    mismatches += check(f"n={SAMPLE_N} sample (seed {SAMPLE_SEED})", sample_graphs())
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
