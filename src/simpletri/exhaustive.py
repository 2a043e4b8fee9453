"""Exhaustive and randomized corpora of small graphs and orders.

Everything here is test plumbing at desk scale: deterministic generation
order, no attempt at isomorphism rejection unless stated.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Iterator

from ._bits import relabel
from .graphs import Graph
from .orders import PartialOrder, _positions, make_partial_order

__all__ = [
    "all_graphs",
    "naturally_ordered_relations",
    "all_partial_orders",
    "relabel_order",
    "random_partial_order",
    "random_linear_extension",
]


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, in edge-mask order."""
    pair_list = list(combinations(range(n), 2))
    for mask in range(1 << len(pair_list)):
        edges = frozenset(
            pair_list[i] for i in range(len(pair_list)) if mask >> i & 1
        )
        yield Graph(n, edges)


def naturally_ordered_relations(n: int) -> Iterator[PartialOrder]:
    """Every partial order on 0..n-1 having the identity as linear extension.

    Builds each one from such an order on 0..n-2 by putting n-1 above one of
    its down-sets (sets closed under predecessors): the predecessors of n-1
    form a down-set, and any down-set below n-1 keeps the relation
    transitive, so each order arises exactly once.
    """
    if n == 0:
        yield PartialOrder(0, ())
        return
    top = 1 << (n - 1)
    for p in naturally_ordered_relations(n - 1):
        downs = [0]
        for v, below in enumerate(p.pred):
            # below lies in 0..v-1, where every set in downs is closed already
            downs += [d | 1 << v for d in downs if not below & ~d]
        for d in downs:
            succ = tuple(s | top if d >> u & 1 else s for u, s in enumerate(p.succ))
            yield PartialOrder(n, succ + (0,))


def relabel_order(p: PartialOrder, perm: tuple[int, ...]) -> PartialOrder:
    """Image of p under the element relabeling v -> perm[v]."""
    return PartialOrder(p.n, tuple(relabel(p.succ, _positions(perm))))


def all_partial_orders(n: int) -> list[PartialOrder]:
    """Every labeled partial order on n elements.

    Relabels the naturally ordered ones in every possible way and drops
    duplicates; each labeled order arises from at least one of its linear
    extensions this way.
    """
    seen: dict[tuple[int, ...], PartialOrder] = {}
    for base in naturally_ordered_relations(n):
        for perm in permutations(range(n)):
            q = relabel_order(base, perm)
            seen.setdefault(q.succ, q)
    return list(seen.values())


def random_partial_order(rng: random.Random, n: int) -> PartialOrder:
    """Random order: random pairs over a random linear arrangement, closed."""
    arrangement = list(range(n))
    rng.shuffle(arrangement)
    density = rng.uniform(0.1, 0.9)
    relations = [
        (arrangement[i], arrangement[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return make_partial_order(n, relations)


def random_linear_extension(rng: random.Random, p: PartialOrder) -> tuple[int, ...]:
    """Uniformly greedy extension: pick a random minimal element each step."""
    out = []
    used = 0
    for _ in range(p.n):
        available = [
            v
            for v in range(p.n)
            if not used >> v & 1 and p.pred[v] & ~used == 0
        ]
        v = rng.choice(available)
        out.append(v)
        used |= 1 << v
    return tuple(out)
