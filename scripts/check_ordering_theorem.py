"""Check the paper's theorem ordering by ordering: an ordering avoids cpc, p1 and p2 iff it orients the graph alternately and its complement transitively.

The paper states the existential form: G is a simple-triangle graph iff some
ordering orients G alternately and the complement Ḡ transitively, and the
library accepts G iff some ordering avoids cpc, p1 and p2 (an apex
ordering).  This script checks the per-ordering form, both sides asked of
the same ordering σ:

- every ordering of every labeled graph with at most ``--max-n`` vertices
  (124,470 orderings with n <= 5);
- ``--random`` graphs with n = 7-60 drawn from ``random.Random(1)``, in
  turn the intersection graph of random triangles
  (``bench/corpora.triangle_graph``), the inversion graph of a random
  permutation (``permutation_graph``), the incomparability graph of
  ``exhaustive.random_partial_order``, and that of a random order holding a 3-crown (``crown_in_random_order``), which is
  rejected; that draw redraws until the crown stays induced, which takes
  seconds per draw past n = 40, so it stops there.  Each is asked under
  ``apex_ordering``, ``least_apex_ordering`` (when there is one),
  ``EXTENSIONS`` = 3 random linear extensions of ``transitive_orientation``
  of Ḡ, and each of these with one random pair of neighbours swapped;
- the triangle draws ``triangle_graph(random.Random(n), n)`` with n = 100,
  300 and 1,000, under ``apex_ordering`` and under it with one random pair
  of vertices swapped.

Up to n = 60 the left side is the paper's definition, the three
``find_pattern`` scans for cpc, p1 and p2, and ``check_apex_ordering``,
which decides by building a realization, must give the same answer.  The
scans cost O(n³) mask steps, so the large draws take their left side from
``check_apex_ordering`` alone.  The right side is
``is_alternating_orientation`` and ``is_transitive_orientation`` on the
orientations of G and Ḡ along σ.  Per group it prints the orderings
checked, how many satisfy both sides, and the time, and it prints each
disagreement with its graph and ordering and exits 1.  Each group's line
ends with the peak RSS of the process so far.

The default run takes about 15 s on a 2-vCPU x86-64 VM (CPython 3.11):
6 s each for the orderings with n <= 5 and the seeded graphs, and 0.6 s
to judge the two orderings of the n = 1,000 draw, after which the process
has peaked at about 91 MB.

    PYTHONPATH=src python scripts/check_ordering_theorem.py [--max-n 5] [--random 400]
"""
from __future__ import annotations

import argparse
import os
import random
import resource
import sys
import time
from itertools import permutations

from simpletri.exhaustive import all_graphs, random_linear_extension, random_partial_order
from simpletri.graphs import (
    Graph,
    complement,
    find_pattern,
    is_alternating_orientation,
    is_transitive_orientation,
    orientation_from_ordering,
    transitive_orientation,
)
from simpletri.patterns import APEX_PATTERNS
from simpletri.recognition import apex_ordering, check_apex_ordering, least_apex_ordering

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))
from corpora import (  # noqa: E402
    crown_in_random_order,
    incomparability_graph,
    permutation_graph,
    triangle_graph,
)

EXTENSIONS = 3
SEED = 1


def scanned_and_built(g: Graph, sigma) -> dict[str, bool]:
    """Whether σ avoids cpc, p1 and p2, by the three scans and by building."""
    return {
        "scans": all(find_pattern(g, sigma, pat) is None for _, pat in APEX_PATTERNS),
        "built": check_apex_ordering(g, sigma),
    }


def built(g: Graph, sigma) -> dict[str, bool]:
    """Whether σ avoids cpc, p1 and p2, by building alone."""
    return {"built": check_apex_ordering(g, sigma)}


def orients(g: Graph, gc: Graph, sigma) -> bool:
    """Whether σ orients g alternately and gc transitively."""
    return is_alternating_orientation(g, orientation_from_ordering(g, sigma)) and (
        is_transitive_orientation(gc, orientation_from_ordering(gc, sigma))
    )


def check(label: str, cases, avoids=scanned_and_built) -> int:
    """Ask both sides of every (graph, ordering) in ``cases``, the left one by
    ``avoids``; the number of orderings on which the answers disagree."""
    checked = both = bad = 0
    t0 = time.perf_counter()
    for g, orderings in cases:
        gc = complement(g)
        for sigma in orderings:
            answers = {**avoids(g, sigma), "orients": orients(g, gc, sigma)}
            checked += 1
            both += all(answers.values())
            if len(set(answers.values())) > 1:
                bad += 1
                print(f"DISAGREE n={g.n} edges={sorted(g.edges)} ordering={sigma}: {answers}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{label}: {checked} orderings, {both} on both sides, {bad} disagreements, "
          f"{time.perf_counter() - t0:.1f} s, peak RSS so far {peak:.0f} MB")
    return bad


def seeded_graph(rng: random.Random, i: int, n: int) -> Graph:
    if i % 4 == 0:
        return Graph(n, triangle_graph(rng, n).items)
    if i % 4 == 1:
        return Graph(n, permutation_graph(rng, n).items)
    if i % 4 == 2:
        return complement(Graph.from_edges(n, random_partial_order(rng, n).pairs))
    return Graph(n, incomparability_graph(crown_in_random_order(rng, n), "").items)


def swapped(rng: random.Random, sigma) -> tuple[int, ...]:
    k = rng.randrange(len(sigma) - 1)
    return (*sigma[:k], sigma[k + 1], sigma[k], *sigma[k + 2:])


def pair_swapped(rng: random.Random, sigma) -> tuple[int, ...]:
    i, j = rng.sample(range(len(sigma)), 2)
    out = list(sigma)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--random", type=int, default=400)
    args = parser.parse_args(argv)
    bad = check(
        f"every ordering of every graph, n <= {args.max_n}",
        ((g, permutations(range(n))) for n in range(args.max_n + 1) for g in all_graphs(n)),
    )
    rng = random.Random(SEED)

    def seeded():
        for i in range(args.random):
            g = seeded_graph(rng, i, rng.randint(7, 40 if i % 4 == 3 else 60))
            orderings = [sigma for sigma in (apex_ordering(g), least_apex_ordering(g)) if sigma]
            orientation = transitive_orientation(complement(g))
            orderings += [random_linear_extension(rng, orientation) for _ in range(EXTENSIONS)]
            yield g, orderings + [swapped(rng, sigma) for sigma in orderings]

    bad += check(f"seeded graphs, n = 7-60, seed {SEED}", seeded())
    for n in (100, 300, 1000):
        g = Graph(n, triangle_graph(random.Random(n), n).items)
        sigma = apex_ordering(g)
        bad += check(f"triangle draw, n = {n}, apex ordering and a swap",
                     [(g, [sigma, pair_swapped(rng, sigma)])], avoids=built)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
