"""Compare recognize's least apex ordering with the unpruned search, and count its walk.

``recognize`` decides each component first, then walks the transitive
orientations of its complement and runs step 2 at each leaf of the walk but
the decision's own orientation T (``recognition`` module doc).  This script
checks that its answer is the first complete ordering of the unpruned
search ``search_orderings((0,) * n, PatternRule(g.adj, APEX_PATTERNS))``,
or None with it (``ungated_search`` of ``tests/references.py``, whose
``counting_backtracks`` counts the backtracks below, as in tier-1):

- on every labeled graph with at most ``--max-n`` vertices (33,868 with
  n <= 6);
- on ``--random`` graphs with n = 7-10 drawn from ``random.Random(1)``,
  alternately the intersection graph of random triangles
  (``bench/corpora.triangle_graph``) and the incomparability graph of
  ``exhaustive.random_partial_order``.

The unpruned side stops after ``CAP`` = 10 seconds per graph; such a graph
is counted as capped, not compared, and the cap is printed.  Over the graphs
above it prints how many leaves other than T the walks reached, how many
of those ran step 2 (the others are not transitive), and how many accepted
graphs had a step-2 run that backtracks, with the most backtracks of one
graph: refused branches off the path to a run's answer.  The step 2 of the
decisions (``recognition._decide``), which runs in ``orders``, is not
counted.  The counts are printed per graph for the draws
``triangle_graph(random.Random(1000·n + s), n)`` with n = 12, 16, 20 and
s = 0-2.  Then it prints what ``recognize`` costs over ``apex_ordering``
(the decision alone) on ``triangle_graph`` and ``permutation_graph`` drawn
with ``random.Random(n)``, n = 100, 300 and 1,000: the ratio of the median
times of five rounds that call the two in turn; and both totals, with ``recognize``'s
worst graph, over ``RELABELLED`` = 400 draws: with ``rng = random.Random(7)``,
each has n = ``rng.randint(10, 40)``, is a ``triangle_graph`` if its index
is odd and a ``permutation_graph`` if even, and is relabelled at random
(``corpora.relabel``).  Then it checks the component split against the
whole graph: that ``least_apex_ordering`` returns what the walk over the
whole of G returns (``recognition._walk`` from ``recognition._decide`` of
G), that ``apex_ordering`` rejects exactly when the decision of the whole of
G (``recognition._decide(g) is None``) does, and that each of its orderings
passes ``check_apex_ordering``.  It does so on the seeded graphs above, on
the perfect matchings with n = 20, 40, ..., 200 relabelled by
``random.Random(n)`` and on 100 disjoint unions of 2-5 ``triangle_graph``
draws with n = 6-12 each, relabelled, drawn from ``random.Random(11)``; it
prints the four times.  It exits 1 on any mismatch.  The default run takes
about 48 s on a 2-vCPU x86-64 VM (CPython 3.11), about 30 s of it the ten
rounds at n = 1,000 and 5 s the whole walks on the matchings and the
unions.  There it reported 0 mismatches; 2,544 leaves on the graphs with
n <= 6 and 90 on the seeded graphs, none on the nine draws with n = 12-20;
``recognize`` at 1.79, 1.83 and 1.80 times ``apex_ordering`` on the
triangle draws with n = 100, 300 and 1,000, and 1.14-1.20 times on the
permutation draws; 0.53 s against 0.30 s on the relabelled draws; the
split walk 0.011 and 0.046 s against the whole walk's 1.50 and 3.78 s on
the matchings and the unions, and the split decision 0.009 and 0.035 s
against the whole decision's 0.132 and 0.096 s.

    PYTHONPATH=src python scripts/check_least_ordering.py [--max-n 6] [--random 1000]
"""
from __future__ import annotations

import argparse
import os
import random
import sys
import time
from contextlib import contextmanager

from simpletri import recognition
from simpletri.exhaustive import all_graphs, random_partial_order
from simpletri.graphs import Graph

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from corpora import permutation_graph, relabel, triangle_graph  # noqa: E402
from references import CAPPED, counting_backtracks, ungated_search  # noqa: E402

CAP = 10.0  # seconds of the unpruned search per graph
SEED = 1
RELABELLED = 400


@contextmanager
def counting_walk():
    """Count the step-2 searches at the walk's leaves (``searches``) and their
    backtracks with ``references.counting_backtracks``, and the leaves
    themselves (``leaves``), in the counts it yields; the decisions
    (``recognition._decide``) run step 2 in ``orders`` and are not counted.
    Undoes its patches of ``recognition`` on exit."""
    partial_order = recognition.PartialOrder
    with counting_backtracks(recognition) as counts:
        counts["leaves"] = 0

        def leaf(n, succ):
            counts["leaves"] += 1
            return partial_order(n, succ)

        recognition.PartialOrder = leaf
        try:
            yield counts
        finally:
            recognition.PartialOrder = partial_order


def compare(g: Graph, cap: float, tally: dict, counts: dict) -> None:
    tally["graphs"] += 1
    before = counts["backtracks"]
    got = recognition.recognize(g)
    got = None if got is None else got[0]
    tally["accepted"] += got is not None
    if got is not None:
        last = counts["backtracks"] - before
        tally["backtracking"] += last > 0
        tally["max_backtracks"] = max(tally["max_backtracks"], last)
    expected = ungated_search(g, time.perf_counter() + cap)
    if expected is CAPPED:
        tally["capped"] += 1
    elif got != expected:
        tally["mismatches"] += 1
        print(f"mismatch on n={g.n} edges={sorted(g.edges)}: unpruned {expected}, recognize {got}")


def incomparability_graph(rng: random.Random, n: int) -> Graph:
    p = random_partial_order(rng, n)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if not (p.less(u, v) or p.less(v, u))])


def report(label: str, tally: dict, counts: dict, seconds: float) -> None:
    print(f"{label}: {tally['graphs']} graphs, {tally['accepted']} accepted, "
          f"{tally['mismatches']} mismatches, {tally['capped']} capped, "
          f"{counts['leaves']} leaves, {counts['searches']} leaf step-2 runs, "
          f"{tally['backtracking']} accepted backtracking, at most "
          f"{tally['max_backtracks']} backtracks, {seconds:.1f} s")


def relabelled():
    """The ``RELABELLED`` draws of the module doc."""
    rng = random.Random(7)
    for i in range(RELABELLED):
        n = rng.randint(10, 40)
        inst = triangle_graph(rng, n) if i % 2 else permutation_graph(rng, n)
        yield Graph.from_edges(n, relabel(inst, rng).items)


def relabelled_graph(rng: random.Random, n: int, edges) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def matchings():
    """Perfect matchings with n = 20, 40, ..., 200, relabelled by
    ``random.Random(n)``."""
    for n in range(20, 201, 20):
        yield relabelled_graph(random.Random(n), n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


def triangle_unions():
    """100 disjoint unions of 2-5 ``triangle_graph`` draws with n = 6-12
    each, relabelled, all drawn from ``random.Random(11)``."""
    rng = random.Random(11)
    for _ in range(100):
        n, edges = 0, []
        for _ in range(rng.randint(2, 5)):
            m = rng.randint(6, 12)
            edges += [(n + u, n + v) for u, v in triangle_graph(rng, m).items]
            n += m
        yield relabelled_graph(rng, n, edges)


def split_against_whole(label: str, graphs) -> int:
    """Compare ``least_apex_ordering`` and ``apex_ordering``, which split G
    into its components, with the walk and the decision over the whole of G:
    the least orderings must be equal, the verdicts equal, and each
    ``apex_ordering`` answer an apex ordering (``check_apex_ordering``).
    Prints the number of mismatches, which it returns, and the four times."""
    count = mismatches = 0
    spent = [0.0] * 4  # split and whole walk, split and whole decision
    for g in graphs:
        t = [time.perf_counter()]
        least = recognition.least_apex_ordering(g)
        t.append(time.perf_counter())
        decided = recognition._decide(g)
        whole = None if decided is None else recognition._walk(g, *decided)
        t.append(time.perf_counter())
        apex = recognition.apex_ordering(g)
        t.append(time.perf_counter())
        rejected = recognition._decide(g) is None
        t.append(time.perf_counter())
        count += 1
        spent = [s + b - a for s, a, b in zip(spent, t, t[1:])]
        if least != whole or (apex is None) != rejected or not (
                apex is None or recognition.check_apex_ordering(g, apex)):
            mismatches += 1
            print(f"mismatch on n={g.n} edges={sorted(g.edges)}: whole walk {whole}, "
                  f"split {least}; whole decision rejects: {rejected}, split {apex}")
    print(f"{label}: {count} graphs, {mismatches} mismatches between the split and the whole; "
          f"walk split {spent[0]:.3f} s, whole {spent[1]:.3f} s; "
          f"decision split {spent[2]:.3f} s, whole {spent[3]:.3f} s")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--random", type=int, default=1000)
    args = parser.parse_args(argv)
    print(f"unpruned search capped at {CAP:g} s per graph")
    bad = 0

    def run(label, graphs):
        nonlocal bad
        tally = dict.fromkeys(("graphs", "accepted", "mismatches", "capped", "backtracking",
                               "max_backtracks"), 0)
        t0 = time.perf_counter()
        with counting_walk() as counts:
            for g in graphs:
                compare(g, CAP, tally, counts)
        report(label, tally, counts, time.perf_counter() - t0)
        bad += tally["mismatches"]

    run(f"all graphs, n <= {args.max_n}",
        (g for n in range(args.max_n + 1) for g in all_graphs(n)))
    def seeded():
        rng = random.Random(SEED)
        for i in range(args.random):
            n = rng.randint(7, 10)
            if i % 2:
                yield incomparability_graph(rng, n)
            else:
                yield Graph.from_edges(n, triangle_graph(rng, n).items)

    run(f"seeded triangle and cocomparability graphs, n = 7-10, seed {SEED}", seeded())
    for n in (12, 16, 20):
        for s in range(3):
            g = Graph.from_edges(n, triangle_graph(random.Random(1000 * n + s), n).items)
            with counting_walk() as counts:
                t0 = time.perf_counter()
                got = recognition.recognize(g)
                spent = time.perf_counter() - t0
            print(f"triangle_graph(random.Random({1000 * n + s}), {n}): "
                  f"{'accepted' if got else 'REJECTED'}, {counts['leaves']} leaves, "
                  f"{counts['searches']} leaf step-2 runs, {counts['backtracks']} backtracks, "
                  f"{spent * 1000:.1f} ms")
            bad += got is None
    # the times below are taken without the counts
    for make in (triangle_graph, permutation_graph):
        for n in (100, 300, 1000):
            g = Graph.from_edges(n, make(random.Random(n), n).items)
            times = {recognition.recognize: [], recognition.apex_ordering: []}
            for _ in range(5):
                for call, spent in times.items():
                    t0 = time.perf_counter()
                    call(g)
                    spent.append(time.perf_counter() - t0)
            least, decision = (sorted(spent)[2] for spent in times.values())
            print(f"{make.__name__}(random.Random({n}), {n}): recognize {least:.3f} s, "
                  f"apex_ordering {decision:.3f} s, ratio {least / decision:.2f}")
    least = decision = worst = 0.0
    for g in relabelled():
        t0 = time.perf_counter()
        recognition.recognize(g)
        t1 = time.perf_counter()
        recognition.apex_ordering(g)
        t2 = time.perf_counter()
        least, decision, worst = least + t1 - t0, decision + t2 - t1, max(worst, t1 - t0)
    print(f"{RELABELLED} relabelled draws, n = 10-40: recognize {least:.2f} s "
          f"(worst graph {worst * 1000:.1f} ms), apex_ordering {decision:.2f} s")
    bad += split_against_whole(f"seeded graphs, n = 7-10, seed {SEED}", seeded())
    bad += split_against_whole("relabelled perfect matchings, n = 20-200", matchings())
    bad += split_against_whole("relabelled unions of 2-5 triangle draws, n = 6-12 each",
                               triangle_unions())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
