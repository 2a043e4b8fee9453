"""Plain reference definitions that the library's pattern matcher is pinned to.

The library checks a given ordering with the search engine's bitmask kernels
(``graphs.find_pattern``, ``graphs.fulfills_c4_rule``).  These references
share no code with them: a scan of every tuple of positions, and the C4 rule
read off the list of induced 4-cycles, as the rule is defined.
"""
from itertools import combinations


def scan_pattern(g, ordering, pattern):
    """First tuple of vertices, in lexicographic order of their positions in
    ``ordering``, on which ``g`` has the edges and non-edges of ``pattern``."""
    for positions in combinations(range(g.n), pattern.size):
        verts = tuple(ordering[p] for p in positions)
        if all(g.adjacent(verts[i], verts[j]) for i, j in pattern.required_edges) and not any(
            g.adjacent(verts[i], verts[j]) for i, j in pattern.required_non_edges
        ):
            return verts
    return None


def induced_four_cycles(g):
    """Induced 4-cycles as tuples (u, v, w, x) with edges uv, vw, wx, xu,
    u the least vertex and w opposite it."""
    out = []
    for quad in combinations(range(g.n), 4):
        if any(sum(g.adjacent(q, r) for r in quad) != 2 for q in quad):
            continue
        u, rest = quad[0], quad[1:]
        opposite = [q for q in rest if not g.adjacent(u, q)]
        if len(opposite) == 1:
            w = opposite[0]
            v, x = [q for q in rest if q != w]
            out.append((u, v, w, x))
    return out


def c4_rule_by_cycles(g, ordering):
    """The C4 rule as defined: around every induced 4-cycle (u, v, w, x) the
    comparisons u<v, w<v, w<x and u<x along ``ordering`` all agree."""
    pos = {v: i for i, v in enumerate(ordering)}
    return all(
        len({pos[u] < pos[v], pos[w] < pos[v], pos[w] < pos[x], pos[u] < pos[x]}) == 1
        for u, v, w, x in induced_four_cycles(g)
    )
