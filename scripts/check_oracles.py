"""Cross-check the recognizer against the brute-force oracles on every graph
with six vertices.

On all 32,768 labeled graphs with n = 6, ``recognize``,
``geometric_search_realization`` and ``has_alternating_transitive_pair``
must agree on acceptance, and on every accepted graph
``all_transitive_complements_extend`` must hold and ``apex_ordering`` must
give an ordering whose ``realize`` passes ``verify_representation``.  It
prints the counts and the wall time and exits 1 on any mismatch.  A run
takes about 35 s (34 s on a 2-vCPU x86-64 VM, CPython 3.11), too slow for
the test suite.

    PYTHONPATH=src python scripts/check_oracles.py
"""
from __future__ import annotations

import sys
import time

from simpletri.exhaustive import all_graphs
from simpletri.oracles import (
    all_transitive_complements_extend,
    geometric_search_realization,
    has_alternating_transitive_pair,
)
from simpletri.recognition import apex_ordering, realize, recognize
from simpletri.triangles import verify_representation

N = 6


def main() -> int:
    start = time.perf_counter()
    graphs = accepted = mismatches = 0
    for g in all_graphs(N):
        graphs += 1
        verdict = recognize(g) is not None
        answers = (
            verdict,
            geometric_search_realization(g) is not None,
            has_alternating_transitive_pair(g),
        )
        accepted += verdict
        ok = len(set(answers)) == 1
        if ok and verdict:
            # called only once the pair oracle accepts, else it raises
            ok = all_transitive_complements_extend(g) and verify_representation(
                g, realize(g, apex_ordering(g))
            )
        if not ok:
            mismatches += 1
            print(f"mismatch: edges={sorted(g.edges)} answers={answers}")
    print(
        f"n={N}: {graphs} graphs, {accepted} accepted, "
        f"{graphs - accepted} rejected, {mismatches} mismatches, "
        f"{time.perf_counter() - start:.1f} s"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
