"""Record the verdicts of the fixed G(n, p) pool that ``graph-reject`` runs.

    python3 bench/record.py        # rewrites bench/recorded.json

The verdict is the recognizer's at the time of recording, so a later change
that flips one is caught.  A rejection is also backed, where possible, by
the first induced subgraph on 5 or then 6 vertices (vertex sets in
lexicographic order) that the geometric oracle rejects: both classes are
hereditary, so such a subgraph proves the rejection without the recognizer.
An accepted draw needs no backing, because every run verifies the returned
realization with exact geometry.
"""
from __future__ import annotations

import json
import os
import sys
import time
from itertools import combinations

from corpora import GNP_DENSITIES, GNP_SIZES, RECORDED_PATH, gnp_pool_draws

PER_STRATUM = 4


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from simpletri.graphs import Graph
    from simpletri.oracles import geometric_search_realization
    from simpletri.recognition import recognize

    rejected_by_oracle: dict[tuple, bool] = {}

    def obstruction(n, edges):
        adjacent = set(edges)
        for k in (5, 6):
            for verts in combinations(range(n), k):
                key = tuple(
                    (i, j)
                    for i, j in combinations(range(k), 2)
                    if (verts[i], verts[j]) in adjacent
                )
                if key not in rejected_by_oracle:
                    small = Graph(k, frozenset(key))
                    rejected_by_oracle[key] = geometric_search_realization(small) is None
                if rejected_by_oracle[key]:
                    return list(verts)
        return None

    graphs = []
    for n, p, edges in gnp_pool_draws(PER_STRATUM):
        start = time.perf_counter()
        accepted = recognize(Graph(n, frozenset(edges))) is not None
        elapsed = time.perf_counter() - start
        entry = {
            "n": n,
            "p": p,
            "edges": [list(e) for e in edges],
            "verdict": "accept" if accepted else "reject",
            "obstruction": None if accepted else obstruction(n, edges),
        }
        graphs.append(entry)
        print(f"n={n} p={p} {entry['verdict']} in {elapsed:.3f} s, "
              f"obstruction {entry['obstruction']}", flush=True)
    doc = {
        "note": "G(n, p) draws of graph-reject; regenerate with bench/record.py",
        "sizes": list(GNP_SIZES),
        "densities": list(GNP_DENSITIES),
        "per_stratum": PER_STRATUM,
    }
    # one graph per line keeps the file short and its diffs readable
    body = ",\n".join(json.dumps(entry) for entry in graphs)
    with open(RECORDED_PATH, "w", encoding="utf-8") as handle:
        handle.write(f'{json.dumps(doc)[:-1]}, "graphs": [\n{body}\n]}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
