"""Plain reference definitions that the library is pinned to.

The library checks a given ordering by building from it
(``recognition.check_apex_ordering``), and names witnesses with the search
engine's bitmask kernels (``graphs.find_pattern``,
``graphs.fulfills_c4_rule``).  These references share no code with either: a
scan of every tuple of positions, and the C4 rule read off the list of
induced 4-cycles, as the rule is defined.  The helpers below them are the
brute-force definitions that only tests and the check scripts under
``scripts/`` use: orientations built from and
read as arc sets, an acyclic union of two orientations, interval orders by
their predecessor sets, and realizations found on the endpoint grid.

The engine's plain searches are references too: the ungated search for
apex orderings, whose first answer is the least apex ordering, and step 2's
search with a ``PatternRule`` on p1 and p2, whose first answer is the first
extension without a 4-anticycle.  ``counting_backtracks`` counts what a
search backtracks, and the prism and the 3-crown are a rejected graph and
a rejected order that tests and scripts build on.  The scripts import this
module too, so nothing here may import hypothesis.
"""
import time
from contextlib import contextmanager
from itertools import combinations, permutations

from simpletri._bits import iter_bits
from simpletri.errors import LimitExceeded
from simpletri.graphs import Orientation, _check_orients, complement
from simpletri.patterns import APEX_PATTERNS, PATTERN_P1, PATTERN_P2, PatternRule, search_orderings
from simpletri.triangles import TriangleRepresentation, verify_representation

# The triangular prism, the incomparability graph of the 3-crown below.
PRISM_EDGES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
# The relations of the 3-crown: each of 0, 1, 2 below two of 3, 4, 5.
CROWN_RELATIONS = [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]
INTERVAL_PATTERNS = (("p1", PATTERN_P1), ("p2", PATTERN_P2))
CAPPED = "capped"


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


def avoids_apex_patterns(g, sigma):
    """The definition of an apex ordering, by the tuple scan."""
    return all(scan_pattern(g, sigma, pat) is None for _, pat in APEX_PATTERNS)


def ungated_search(g, deadline=None):
    """First ordering the engine search clears of cpc, p1 and p2, without
    the decision step, or None; ``CAPPED`` once ``time.perf_counter()``
    passes ``deadline``, which is read every 1,024 steps."""
    search = search_orderings((0,) * g.n, PatternRule(g.adj, APEX_PATTERNS))
    for i, (ordering, hit) in enumerate(search):
        if hit is None:
            return ordering
        if deadline is not None and not i % 1024 and time.perf_counter() > deadline:
            return CAPPED
    return None


def engine_extension(p):
    """First extension of ``p`` without a 4-anticycle by the plain pattern
    search, or None."""
    comparable = tuple(s | q for s, q in zip(p.succ, p.pred))
    search = search_orderings(p.pred, PatternRule(comparable, INTERVAL_PATTERNS))
    return next((o for o, hit in search if hit is None), None)


@contextmanager
def counting_backtracks(module):
    """Replace ``module.search_orderings`` by itself counting, from its yield
    stream, the searches, the branches they refuse and their backtracks;
    yields the counts and puts the search back on exit.  A backtrack is a
    refused branch that leaves the path to the next complete ordering, or
    to the root when the search ends without one."""
    counts = {"searches": 0, "refused": 0, "backtracks": 0}
    search = module.search_orderings

    def tally(refused, path):
        counts["refused"] += len(refused)
        counts["backtracks"] += sum(b[:-1] != path[:len(b) - 1] for b in refused)

    def counted(*args):
        counts["searches"] += 1
        refused = []
        for ordering, hit in search(*args):
            if hit is None:
                tally(refused, ordering)
                refused = []
            else:
                refused.append(ordering)
            yield ordering, hit
        tally(refused, ())

    module.search_orderings = counted
    try:
        yield counts
    finally:
        module.search_orderings = search


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


def from_arcs(n, arcs):
    """The ``Orientation`` on n vertices with the arcs (tail, head) given."""
    out = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
    return Orientation(n, tuple(out))


def arcs_of(o):
    """The arcs (tail, head) of the orientation ``o``, as a frozenset."""
    return frozenset((u, v) for u, heads in enumerate(o.out) for v in iter_bits(heads))


def union_is_acyclic(g, o_g, o_gc):
    """No directed cycle in the union of the two orientations.

    ``o_g`` must orient exactly the edges of g and ``o_gc`` exactly the edges
    of its complement, so the union orients the complete graph.
    """
    _check_orients(g, o_g)
    _check_orients(complement(g), o_gc)
    indeg = [0] * g.n
    out = {v: [] for v in range(g.n)}
    for u, v in arcs_of(o_g) | arcs_of(o_gc):
        out[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(g.n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == g.n


def is_interval_order(p):
    """True iff the predecessor sets of ``p`` form a chain under inclusion.

    Two relations a < b and c < d with neither a < d nor c < b, an induced
    2+2 on {a, b, c, d} and the one obstruction to interval orders, are
    exactly a in pred(b) but not pred(d) and c in pred(d) but not pred(b).
    Sorted by size, the sets form a chain iff each lies in the next.
    """
    pred = sorted(p.pred, key=int.bit_count)
    return all(not a & ~b for a, b in zip(pred, pred[1:]))


def grid_search_realization(g, limit=4):
    """Assumption-free exhaustive search over the endpoint grid 1..2n.

    Enumerates apex orderings times all base assignments with endpoints on
    the grid, pruning a partial assignment as soon as two placed triangles
    contradict the required adjacency.  Far slower than the constraint
    solver of ``oracles.geometric_search_realization``; used to
    cross-validate it on tiny instances.
    """
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds grid search limit {limit}")
    n = g.n
    if n == 0:
        return TriangleRepresentation((), ())
    pool = [
        (lo, hi) for lo in range(1, 2 * n + 1) for hi in range(lo + 1, 2 * n + 1)
    ]
    adj = g.adj
    for sigma in permutations(range(n)):
        bases = []

        def dfs():
            idx = len(bases)
            if idx == n:
                return True
            v = sigma[idx]
            for cand in pool:
                ok = True
                for jdx in range(idx):
                    u = sigma[jdx]
                    disjoint = bases[jdx][1] < cand[0]
                    if disjoint == (adj[u] >> v & 1 == 1):
                        ok = False
                        break
                if ok:
                    bases.append(cand)
                    if dfs():
                        return True
                    bases.pop()
            return False

        if dfs():
            apex, base = [0] * n, [(0, 0)] * n
            for i, v in enumerate(sigma):
                apex[v], base[v] = i + 1, bases[i]
            t = TriangleRepresentation(tuple(apex), tuple(base))
            assert verify_representation(g, t)
            return t
    return None
