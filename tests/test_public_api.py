"""The package exports only functions that something besides the unit tests
uses, so that helpers kept for tests alone live in ``tests/references.py``,
and each of its modules reads every name it imports.
"""
import ast
import glob
import inspect
import os

import simpletri

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SOURCE = os.path.join(ROOT, "src", "simpletri")

# Exported on purpose though no caller below uses them, each with its reason.
UNUSED_ON_PURPOSE = {
    # the decision as a bool, the README's first example; the CLI and the
    # scripts need the ordering itself, so they call apex_ordering
    "is_simple_triangle",
    # called by orders itself, which raises NotAnExtension on its answer;
    # exported so that a caller can test an extension before building
    "is_linear_extension",
}


def names_referenced(path):
    """Every name a file reads, as a bare name, an attribute or an import."""
    names = set()
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_exported_function_has_a_caller():
    """Callers are the modules of the package other than the function's own
    and ``__init__.py``, ``scripts/``, ``bench/`` and the acceptance suite;
    exception and data classes are exempt."""
    callers = [
        *glob.glob(os.path.join(SOURCE, "*.py")),
        *glob.glob(os.path.join(ROOT, "scripts", "*.py")),
        *glob.glob(os.path.join(ROOT, "bench", "*.py")),
        os.path.join(ROOT, "tests", "test_acceptance.py"),
    ]
    referenced = {path: names_referenced(path) for path in callers}
    exported = {
        name: obj
        for name, obj in vars(simpletri).items()
        if inspect.isfunction(obj) and not name.startswith("_")
    }
    assert UNUSED_ON_PURPOSE <= exported.keys()
    unused = set()
    for name, fn in exported.items():
        home = os.path.realpath(inspect.getsourcefile(fn))
        if not any(
            name in names
            for path, names in referenced.items()
            if os.path.realpath(path) != home and os.path.basename(path) != "__init__.py"
        ):
            unused.add(name)
    assert unused == UNUSED_ON_PURPOSE


def unread_imports(path):
    """The names that the module at ``path`` imports and never reads, less
    those of its ``__all__``, its ``__future__`` imports and the imports
    marked ``# noqa: F401``."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            if not marked and getattr(node, "module", None) != "__future__":
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return imported - read - exported


def test_every_import_is_read():
    """A module of the package other than ``__init__.py`` reads each name it
    imports, so that no re-export hides behind an import."""
    unread = {
        os.path.basename(path): unread_imports(path)
        for path in glob.glob(os.path.join(SOURCE, "*.py"))
        if os.path.basename(path) != "__init__.py"
    }
    assert {name: names for name, names in unread.items() if names} == {}
