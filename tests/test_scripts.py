"""Every script under ``scripts/`` imports the library, and the check
scripts also their references from ``tests/references.py`` and their draws
from ``bench/corpora.py``; importing each one keeps those imports in step
with the code they name.  The quick check also runs, and must put back the
search it counts on."""
import importlib.util
import os

import pytest

from simpletri import orders

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")
SCRIPT_NAMES = sorted(name[:-3] for name in os.listdir(SCRIPTS) if name.endswith(".py"))


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", SCRIPT_NAMES)
def test_check_script_imports(name):
    assert callable(load(name).main)


def test_linear_interval_check_runs_and_puts_the_search_back(capsys):
    search = orders.search_orderings
    assert load("check_linear_interval_2sat").main(["--max-n", "4", "--random", "3"]) == 0
    assert orders.search_orderings is search
    out = capsys.readouterr().out
    assert out.count("0 mismatches, 0 backtracks") == 2
