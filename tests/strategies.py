"""Hypothesis strategies shared by the property tests, and a seeded draw of
triangle graphs."""
from itertools import combinations

import hypothesis.strategies as st

from simpletri.graphs import Graph
from simpletri.orders import make_partial_order


@st.composite
def edge_sets(draw, max_n=6, min_n=0):
    """A vertex count n and a set of normalized pairs on ``0..n-1``."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, frozenset(pairs[i] for i in range(m) if mask >> i & 1)


def graphs(max_n=6, min_n=0):
    return edge_sets(max_n=max_n, min_n=min_n).map(lambda case: Graph(*case))


@st.composite
def partial_orders(draw, max_n=7, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    arrangement = draw(st.permutations(range(n)))
    m = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    relations = [
        (arrangement[i], arrangement[j])
        for idx, (i, j) in enumerate(slots)
        if mask >> idx & 1
    ]
    return make_partial_order(n, relations)


@st.composite
def orders_with_extension(draw, max_n=7, min_n=0):
    """A partial order plus one of its linear extensions."""
    p = draw(partial_orders(max_n=max_n, min_n=min_n))
    priority = draw(st.permutations(range(p.n))) if p.n else ()
    out = []
    used = 0
    for _ in range(p.n):
        best = None
        for v in range(p.n):
            if used >> v & 1 or p.pred[v] & ~used:
                continue
            if best is None or priority[v] < priority[best]:
                best = v
        out.append(best)
        used |= 1 << best
    return p, tuple(out)


@st.composite
def orderings(draw, n):
    return tuple(draw(st.permutations(range(n))))


def triangle_graph(rng, n):
    """Intersection graph of n random triangles between two lines: apexes a
    random permutation of the top line, bases a random pairing of 2n bottom
    points.  Two are disjoint when one lies left of the other on both lines."""
    apex = rng.sample(range(n), n)
    points = rng.sample(range(2 * n), 2 * n)
    base = [sorted(points[2 * v:2 * v + 2]) for v in range(n)]
    edges = []
    for u, v in combinations(range(n), 2):
        left, right = (u, v) if apex[u] < apex[v] else (v, u)
        if not base[left][1] < base[right][0]:
            edges.append((u, v))
    return Graph.from_edges(n, edges)
