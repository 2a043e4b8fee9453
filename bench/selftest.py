"""Self-test of the benchmark itself, not of simpletri.

    python3 bench/selftest.py

1. Every generated instance with n <= 6 has the verdict its generator
   states, according to the geometric oracles (which share no code with the
   recognizer), and every stated or recorded obstruction is rejected.
2. Two traced runs of the same workload and seed report identical
   ``recognition.*`` and ``orders.extensions_enumerated`` counts.

Exits 0 when both hold, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import combinations

import corpora

ROOT = os.path.dirname(corpora.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from simpletri.graphs import Graph  # noqa: E402
from simpletri.oracles import (  # noqa: E402
    geometric_search_order_realization,
    geometric_search_realization,
)
from simpletri.orders import make_partial_order  # noqa: E402

SEEDS = range(3)


def oracle_verdict(inst: corpora.Instance) -> str:
    if inst.kind == "graph":
        found = geometric_search_realization(Graph(inst.n, frozenset(inst.items)))
    else:
        found = geometric_search_order_realization(make_partial_order(inst.n, inst.items))
    return "reject" if found is None else "accept"


def induced(inst: corpora.Instance, verts) -> corpora.Instance:
    edges = set(inst.items)
    items = [
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if (min(verts[i], verts[j]), max(verts[i], verts[j])) in edges
    ]
    return corpora.Instance("obstruction", "graph", len(verts), tuple(items), "reject")


def small_instances():
    """Every generator, at every size it is used with that is at most 6."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for n in range(1, 7):
            yield corpora.triangle_graph(rng, n)
            yield corpora.permutation_graph(rng, n)
            yield corpora.linear_interval_order(rng, n)
        yield corpora.c5_plus_vertex(rng)
        yield corpora.relabel(corpora.prism_graph(), rng)
        yield corpora.relabel(corpora.crown_order(), rng)
        yield corpora.crown_in_random_order(rng, 6)
        yield corpora.cycle(5)
        yield corpora.cycle(6)
        for inst in corpora.crosscheck_stream(seed, corpora.Timer(), _exhaustive()):
            if inst.expect is not None:
                yield inst
    for inst in corpora.load_recorded():
        if inst.obstruction is not None:
            yield induced(inst, inst.obstruction)


def _exhaustive():
    import simpletri.exhaustive

    return simpletri.exhaustive


def check_verdicts() -> int:
    bad = 0
    checked = 0
    for inst in small_instances():
        checked += 1
        verdict = oracle_verdict(inst)
        if verdict != inst.expect:
            bad += 1
            print(f"FAIL {inst.family} n={inst.n}: generator says {inst.expect}, "
                  f"oracle says {verdict}: {inst.items}")
        elif inst.obstruction is not None:
            if oracle_verdict(induced(inst, inst.obstruction)) != "reject":
                bad += 1
                print(f"FAIL {inst.family}: obstruction {inst.obstruction} is realizable")
    print(f"verdicts: {checked} instances with n <= 6 checked, {bad} wrong")
    return bad


def traced_counters(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(corpora.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: m["value"]
        for name, m in metrics.items()
        if (name.startswith("recognition.") and m["unit"] != "ms")
        or name == "orders.extensions_enumerated"
    }


def check_counters() -> int:
    bad = 0
    for workload in ("graph-reject", "order-recognize"):
        first = traced_counters(workload, 7)
        second = traced_counters(workload, 7)
        if first != second:
            bad += 1
            print(f"FAIL {workload}: counters differ between runs: {first} vs {second}")
        else:
            print(f"counters: {workload} repeats exactly over two traced runs")
    return bad


def main() -> int:
    return 1 if check_verdicts() + check_counters() else 0


if __name__ == "__main__":
    sys.exit(main())
