import pytest

from simpletri import orders, recognition
from simpletri.exhaustive import all_graphs, all_partial_orders
from simpletri.patterns import search_orderings
from simpletri.recognition import recognize


@pytest.fixture(scope="session")
def small_graphs():
    """Every labeled graph with at most 5 vertices, keyed by vertex count."""
    return {n: list(all_graphs(n)) for n in range(6)}


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


def count_backtracks(monkeypatch, module):
    """Counts of the searches inside ``module``, of the branches they refuse
    and of their backtracks, read from the yield stream.  A backtrack is a
    refused branch that leaves the path to the first complete ordering, or
    to the root when the search ends without one."""
    counts = {"searches": 0, "refused": 0, "backtracks": 0}

    def tally(refused, path):
        counts["refused"] += len(refused)
        counts["backtracks"] += sum(b[:-1] != path[:len(b) - 1] for b in refused)

    def counted(*args):
        counts["searches"] += 1
        refused = []
        for ordering, hit in search_orderings(*args):
            if hit is None:
                tally(refused, ordering)
                refused = []
            else:
                refused.append(ordering)
            yield ordering, hit
        tally(refused, ())

    monkeypatch.setattr(module, "search_orderings", counted)
    return counts


@pytest.fixture
def backtracks(monkeypatch):
    """:func:`count_backtracks` for the 2-SAT rule searches of ``orders``."""
    return count_backtracks(monkeypatch, orders)


@pytest.fixture
def least_backtracks(monkeypatch):
    """:func:`count_backtracks` for the step-2 searches that
    ``recognition.recognize`` runs at the leaves of its walk.  The step 2 of
    its decisions (``recognition._decide``) is not counted, so ``searches``
    is the number of leaves that reach step 2."""
    counts = count_backtracks(monkeypatch, orders)
    decide = recognition._decide

    def uncounted(g):
        before = dict(counts)
        result = decide(g)
        counts.update(before)
        return result

    monkeypatch.setattr(recognition, "_decide", uncounted)
    return counts
