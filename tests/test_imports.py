"""Every import binds a name that its module reads.

An unused import hides what a module depends on: a reader of a test's
import list cannot tell what the test exercises.  The scan parses each
module of the package, the scripts and the tests with `ast`, collects the
names its import statements bind, and fails on any name the module never
loads.  A name listed in the module's `__all__` counts as read.

`tests/test_acceptance.py` is left out: it holds the acceptance oracles,
which are never edited, so its import list stays as it is.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXCLUDED = {"tests/test_acceptance.py"}
MODULES = sorted(
    str(path.relative_to(ROOT))
    for pattern in ("src/quivrep/*.py", "scripts/*.py", "tests/*.py")
    for path in ROOT.glob(pattern)
    if str(path.relative_to(ROOT)) not in EXCLUDED)


def _bound_names(tree):
    """(line, name) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _read_names(tree):
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return read


def unused_imports(source: str):
    tree = ast.parse(source)
    read = _read_names(tree)
    return [f"line {line}: {name}" for line, name in _bound_names(tree) if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((ROOT / module).read_text()) == []


def test_scan_flags_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import dumps, loads as parse\n"
              "__all__ = ['parse']\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: dumps"]
