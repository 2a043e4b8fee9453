from collections import namedtuple
from itertools import permutations

import pytest

from simpletri import orders, recognition
from simpletri.exhaustive import all_graphs, all_partial_orders
from simpletri.graphs import (_components, complement, is_cocomparability_ordering,
                              is_comparability_ordering, transitive_orientation)
from simpletri.recognition import recognize

from references import counting_backtracks

Facts = namedtuple("Facts", "g complement t decided components apex")


@pytest.fixture(scope="session")
def small_graphs():
    """Every labeled graph with at most 5 vertices, keyed by vertex count."""
    return {n: list(all_graphs(n)) for n in range(6)}


@pytest.fixture(scope="session")
def graphs_up_to_six():
    """Every labeled graph g with at most 6 vertices (33,868), in the order
    of ``all_graphs`` by vertex count, as ``Facts(g, complement(g), T,
    recognition._decide(g), components, recognition.apex_ordering(g))``,
    computed once: T is ``transitive_orientation`` of the complement and the
    components are the masks of ``graphs._components``.  A test that spies
    on library calls must still make them itself, under its spy, and a
    reference computes its own answer."""
    facts = []
    for n in range(7):
        for g in all_graphs(n):
            gc = complement(g)
            facts.append(Facts(g, gc, transitive_orientation(gc), recognition._decide(g),
                               tuple(comp for comp, _ in _components(g.adj, (1 << n) - 1)),
                               recognition.apex_ordering(g)))
    return facts


@pytest.fixture(scope="session")
def ordering_predicates(small_graphs):
    """For every graph g with at most 5 vertices, keyed by g, the pair
    ``(is_cocomparability_ordering(g, σ), is_comparability_ordering(g, σ))``
    per σ of ``permutations(range(n))``, in that order, computed once: 124,470
    pairs.  A test that spies on these predicates must call them itself."""
    return {g: tuple((is_cocomparability_ordering(g, sigma), is_comparability_ordering(g, sigma))
                     for sigma in permutations(range(g.n)))
            for graphs in small_graphs.values() for g in graphs}


@pytest.fixture(scope="session")
def small_orders():
    """Every labeled partial order with at most 5 elements."""
    return {n: all_partial_orders(n) for n in range(6)}


@pytest.fixture(scope="session")
def recognition_results(small_graphs):
    """recognize() outcome for every graph in the small corpus."""
    return {
        n: [recognize(g) for g in graphs] for n, graphs in small_graphs.items()
    }


@pytest.fixture
def backtracks():
    """:func:`references.counting_backtracks` for the 2-SAT rule searches of
    ``orders``."""
    with counting_backtracks(orders) as counts:
        yield counts


@pytest.fixture
def least_backtracks():
    """:func:`references.counting_backtracks` for the step-2 searches that
    ``recognition.recognize`` runs at the leaves of its walk.  The step 2 of
    its decisions (``recognition._decide``) runs in ``orders`` and is not
    counted, so ``searches`` is the number of leaves that reach step 2."""
    with counting_backtracks(recognition) as counts:
        yield counts
