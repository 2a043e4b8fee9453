"""Seeded instance generators and the four workload streams.

Everything here is the benchmark's own code: the program under test only
ever sees the files written by :func:`write_stream`.  Each instance carries
the answer the benchmark expects, so that no verdict is checked against the
recognizer it came from:

* ``source="construction"``: ``expect`` is known by construction (a triangle
  representation, a permutation, an intersection of a linear and an interval
  order; or an induced prism, C5, 3-crown, or a chordless cycle of length at
  least 5, none of which the two hereditary classes contain);
* ``source="recorded"``: a random G(n, p) draw whose verdict was recorded in
  ``recorded.json`` by ``record.py``; a rejection may be backed by an induced
  obstruction of at most six vertices that the geometric oracle rejects;
* ``source="oracle"``: a crosscheck graph small enough (n <= 6) for the CLI's
  own geometric-oracle line to serve as the answer (``expect`` is None).

Relabeling rule.  A rejected graph or order makes the search visit every
ordering prefix that avoids the forbidden patterns, and that set is mapped
onto itself by any relabeling, so its cost does not depend on the labels.
Rejected instances are therefore drawn once from a fixed corpus seed and
relabeled by the workload seed.  An accepted instance stops at the
lexicographically least solution, whose cost moves up to 100x with the labels
(one n = 11 triangle graph took 19 ms to 3.4 s over six labelings), so
accepted instances whose search backtracks keep their corpus-seed labels.
Permutation graphs (no backtracking) and the n <= 6 crosscheck graphs have a
narrow cost spread and are drawn from the workload seed directly.
"""
from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

# Fixed seed of the instances that every workload seed shares (see above).
# Chosen once, before any timing; never tuned.
CORPUS_SEED = 1611_09003

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDED_PATH = os.path.join(HERE, "recorded.json")

GNP_SIZES = (9, 10)
GNP_DENSITIES = (0.3, 0.5, 0.7)


@dataclass(frozen=True)
class Instance:
    """One input file's content and the answer the benchmark expects.

    ``kind`` is ``"graph"`` (``items`` are edges ``(u, v)``, u < v) or
    ``"order"`` (``items`` are relations ``u < v``, not necessarily closed).
    ``obstruction`` lists vertices whose induced subgraph is not a
    simple-triangle graph; ``crown`` lists the minima a0..a2 and maxima
    b0..b2 of an induced 3-crown (a_i < b_j iff i != j).
    """

    family: str
    kind: str
    n: int
    items: tuple[tuple[int, int], ...]
    expect: Optional[str]
    source: str = "construction"
    obstruction: Optional[tuple[int, ...]] = None
    crown: Optional[tuple[int, ...]] = None


def _graph(family, n, edges, expect, source="construction", obstruction=None):
    norm = tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))
    return Instance(family, "graph", n, norm, expect, source, obstruction)


# --- graph generators --------------------------------------------------------


def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [e for e in combinations(range(n), 2) if rng.random() < p]


def triangle_graph(rng: random.Random, n: int) -> Instance:
    """Intersection graph of n random triangles: apexes a random permutation
    of the top line, bases a random pairing of 2n distinct bottom points.

    Two triangles are disjoint exactly when one lies left of the other on
    both lines, so the graph is a simple-triangle graph by construction.
    """
    apex = list(range(n))
    rng.shuffle(apex)
    points = list(range(2 * n))
    rng.shuffle(points)
    base = [sorted(points[2 * v : 2 * v + 2]) for v in range(n)]
    edges = []
    for u, v in combinations(range(n), 2):
        left, right = (u, v) if apex[u] < apex[v] else (v, u)
        if not base[left][1] < base[right][0]:
            edges.append((u, v))
    return _graph(f"triangles-n{n}", n, edges, "accept")


def permutation_graph(rng: random.Random, n: int) -> Instance:
    """Inversion graph of a random permutation; segments between two lines
    are degenerate triangles, so it is accepted by construction."""
    pi = list(range(n))
    rng.shuffle(pi)
    edges = [(u, v) for u, v in combinations(range(n), 2) if pi[u] > pi[v]]
    return _graph(f"permutation-n{n}", n, edges, "accept")


PRISM_EDGES = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5))


def prism_graph(extra: int = 0, mode: str = "isolated") -> Instance:
    """Triangular prism plus ``extra`` isolated or universal vertices.

    The prism is the incomparability graph of the 3-crown and the smallest
    graph that is rejected while being a cocomparability graph.
    """
    n = 6 + extra
    edges = list(PRISM_EDGES)
    if mode == "universal":
        edges += [(u, v) for v in range(6, n) for u in range(v)]
    name = "prism" if not extra else f"prism+{extra}{mode[0]}"
    return _graph(name, n, edges, "reject", obstruction=tuple(range(6)))


def cycle(n: int) -> Instance:
    """Chordless cycle C_n; for n >= 5 not even a cocomparability graph."""
    return _graph(f"C{n}", n, [(i, (i + 1) % n) for i in range(n)], "reject")


def c5_plus_vertex(rng: random.Random) -> Instance:
    """Induced C5 plus one vertex joined at random: rejected by heredity."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(v, 5) for v in range(5) if rng.random() < 0.5]
    return _graph("C5+v", 6, edges, "reject", obstruction=tuple(range(5)))


def incomparability_graph(order: Instance, family: str) -> Instance:
    """Graph of the pairs an order leaves incomparable (closure taken here)."""
    less = closure(order.n, order.items)
    edges = [
        (u, v)
        for u, v in combinations(range(order.n), 2)
        if not less[u] >> v & 1 and not less[v] >> u & 1
    ]
    return _graph(family, order.n, edges, None, source="oracle")


# --- order generators --------------------------------------------------------


def closure(n: int, relations) -> list[int]:
    succ = [0] * n
    for u, v in relations:
        succ[u] |= 1 << v
    for k in range(n):
        for u in range(n):
            if succ[u] >> k & 1:
                succ[u] |= succ[k]
    return succ


def crown_order(free: int = 0) -> Instance:
    """3-crown (a_i < b_j iff i != j) on 0..5 plus ``free`` isolated elements."""
    relations = [(i, 3 + j) for i in range(3) for j in range(3) if i != j]
    return Instance(
        f"crown+{free}", "order", 6 + free, tuple(relations), "reject",
        crown=(0, 1, 2, 3, 4, 5),
    )


def crown_in_random_order(rng: random.Random, n: int) -> Instance:
    """Random order on n elements holding an induced 3-crown.

    Relations are drawn along a random arrangement (crown minima before crown
    maxima) between pairs that are not both crown elements; draws whose
    closure adds a relation inside the crown are redrawn.  Rejected by
    heredity, since linear-interval orders are closed under suborders.
    """
    while True:
        labels = list(range(n))
        rng.shuffle(labels)
        a, b, rest = labels[:3], labels[3:6], labels[6:]
        arrangement = a + b
        for x in rest:
            arrangement.insert(rng.randint(0, len(arrangement)), x)
        crown = set(a + b)
        density = rng.uniform(0.2, 0.6)
        relations = [(a[i], b[j]) for i in range(3) for j in range(3) if i != j]
        for i, j in combinations(range(n), 2):
            u, v = arrangement[i], arrangement[j]
            if not (u in crown and v in crown) and rng.random() < density:
                relations.append((u, v))
        less = closure(n, relations)
        intact = all(
            (less[x] >> y & 1) == (x in a and y in b and a.index(x) != b.index(y))
            for x in crown
            for y in crown
        )
        if intact:
            return Instance(
                f"crown-in-n{n}", "order", n, tuple(relations), "reject",
                crown=tuple(a + b),
            )


def linear_interval_order(rng: random.Random, n: int) -> Instance:
    """Intersection of a random linear order with the interval order of n
    random intervals (a random pairing of 2n distinct points): a
    linear-interval order by definition."""
    line = list(range(n))
    rng.shuffle(line)
    pos = {v: i for i, v in enumerate(line)}
    points = list(range(2 * n))
    rng.shuffle(points)
    iv = [sorted(points[2 * v : 2 * v + 2]) for v in range(n)]
    relations = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and pos[u] < pos[v] and iv[u][1] < iv[v][0]
    ]
    return Instance(f"lin-int-n{n}", "order", n, tuple(relations), "accept")


def relabel(inst: Instance, rng: random.Random) -> Instance:
    """The same instance under a uniformly random vertex relabeling."""
    perm = list(range(inst.n))
    rng.shuffle(perm)
    items = tuple((perm[u], perm[v]) for u, v in inst.items)
    if inst.kind == "graph":
        items = tuple(sorted((min(u, v), max(u, v)) for u, v in items))
    else:
        items = tuple(sorted(items))

    def mapped(vs):
        return None if vs is None else tuple(perm[v] for v in vs)

    return Instance(
        inst.family, inst.kind, inst.n, items, inst.expect, inst.source,
        mapped(inst.obstruction), mapped(inst.crown),
    )


# --- recorded random-graph pool ---------------------------------------------


def gnp_pool_draws(per_stratum: int) -> list[tuple[int, float, list[tuple[int, int]]]]:
    """The fixed G(n, p) draws of ``graph-reject``, round-robin over strata."""
    rng = random.Random(CORPUS_SEED)
    draws = []
    for _ in range(per_stratum):
        for n in GNP_SIZES:
            for p in GNP_DENSITIES:
                draws.append((n, p, gnp_edges(rng, n, p)))
    return draws


def load_recorded() -> list[Instance]:
    """The G(n, p) pool with the verdicts ``record.py`` wrote."""
    with open(RECORDED_PATH, encoding="utf-8") as handle:
        doc = json.load(handle)
    out = []
    for entry in doc["graphs"]:
        obstruction = entry["obstruction"]
        out.append(
            _graph(
                f"gnp-n{entry['n']}-p{entry['p']}",
                entry["n"],
                [tuple(e) for e in entry["edges"]],
                entry["verdict"],
                source="recorded",
                obstruction=tuple(obstruction) if obstruction else None,
            )
        )
    return out


# --- workload streams --------------------------------------------------------


class Timer:
    """Busy time and call count of one library layer used during set-up."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def call(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1


def _relabel_rejected(base: list[Instance], seed: int) -> list[Instance]:
    """Rejected instances get labels from the workload seed; accepted ones
    keep theirs (see the relabeling rule above)."""
    rng = random.Random(seed)
    return [relabel(inst, rng) if inst.expect == "reject" else inst for inst in base]


def _interleave(main: list[Instance], extra: list[Instance], every: int) -> list[Instance]:
    """``main`` with the next ``extra`` instance (cycling) after every
    ``every`` entries, so that any prefix of the stream mixes both."""
    out = []
    k = 0
    for i, inst in enumerate(main):
        out.append(inst)
        if extra and i % every == every - 1:
            out.append(extra[k % len(extra)])
            k += 1
    return out


def graph_reject_stream(seed: int, exhaustive_timer: Timer, exhaustive) -> list[Instance]:
    families = [prism_graph(k) for k in range(4)]
    families += [prism_graph(k, "universal") for k in range(1, 4)]
    families += [cycle(n) for n in (7, 8, 9)]
    return _relabel_rejected(_interleave(load_recorded(), families, 2), seed)


def graph_accept_stream(seed: int, exhaustive_timer: Timer, exhaustive) -> list[Instance]:
    fixed = random.Random(CORPUS_SEED + 1)
    seeded = random.Random(seed)
    out = []
    for i in range(GRAPH_ACCEPT_PAIRS):
        out.append(triangle_graph(fixed, 8 + i % 4))
        out.append(permutation_graph(seeded, 16 + i % 9))
    return out


def order_recognize_stream(seed: int, exhaustive_timer: Timer, exhaustive) -> list[Instance]:
    fixed = random.Random(CORPUS_SEED + 2)
    base = []
    for i in range(ORDER_PAIRS):
        base.append(crown_in_random_order(fixed, 8 + i % 3))
        base.append(linear_interval_order(fixed, 8 + i % 3))
    crowns = [crown_order(k) for k in range(4)]
    return _relabel_rejected(_interleave(base, crowns, 12), seed)


def crosscheck_stream(seed: int, exhaustive_timer: Timer, exhaustive) -> list[Instance]:
    rng = random.Random(seed)
    out = []
    for i in range(CROSSCHECK_ROUNDS):
        po = exhaustive_timer.call(exhaustive.random_partial_order, rng, 6)
        order = Instance("order", "order", po.n, tuple(sorted(po.pairs)), None)
        out.append(incomparability_graph(order, "cocomparability-n6"))
        out.append(triangle_graph(rng, 6))
        out.append(_graph("gnp-n6", 6, gnp_edges(rng, 6, (0.3, 0.5, 0.7)[i % 3]), None, "oracle"))
        out.append(permutation_graph(rng, 6))
        out.append(c5_plus_vertex(rng) if i % 2 else relabel(prism_graph(), rng))
    return out


# Stream lengths: when they were set, one pass took 10-20 s (2-vCPU x86-64
# VM, CPython 3.11); graph-accept's took 30-45 s, 22 s of it one n = 11
# triangle graph.
GRAPH_ACCEPT_PAIRS = 40
ORDER_PAIRS = 130
CROSSCHECK_ROUNDS = 50

STREAMS = {
    "graph-reject": graph_reject_stream,
    "graph-accept": graph_accept_stream,
    "order-recognize": order_recognize_stream,
    "crosscheck": crosscheck_stream,
}


def instance_text(inst: Instance) -> str:
    """The file format the CLI reads: a count line, then one pair per line."""
    sep = " " if inst.kind == "graph" else " < "
    lines = [str(inst.n)] + [f"{u}{sep}{v}" for u, v in inst.items]
    return "\n".join(lines) + "\n"


def write_stream(stream: list[Instance], directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, inst in enumerate(stream):
        path = os.path.join(directory, f"{i:05d}.{inst.kind}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(instance_text(inst))
        paths.append(path)
    return paths
