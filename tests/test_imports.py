"""Every import in the package is used, or marked ``# noqa: F401``, and
every top-level function and class is read by the package itself.

Stdlib ``ast`` passes, so deleting code cannot leave dead imports behind
without a linter installed, and code that only the tests call cannot grow
back into the package: such code belongs in ``tests/oracles.py``."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggtkit"


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, in source order;
    a statement with ``# noqa: F401`` on any of its lines is skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []  # (line, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(bound) if name not in used]


def test_unused_import_is_found_and_noqa_honoured():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from a import (  # noqa: F401\n    b,\n)\n"
        "from c import d, e\n"
        "x = np.zeros(d)\n"
    )
    assert _unused_imports(source) == ["line 1: os", "line 6: e"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


# Top-level names that the package keeps without reading them, each with the
# ROADMAP item that will read it.
UNREAD_ALLOWED = {
    "classify_element",  # ROADMAP item 6: splits the profile fits into hyperbolic and parabolic pairs
}


def _imported(tree: ast.AST) -> set:
    """Names bound by the import statements of ``tree``."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def _reads(tree: ast.AST, imported: set) -> Counter:
    """Names read in ``tree``, as a name or as an attribute of a name in
    ``imported``: ``module.f`` reads f, but ``model.f`` does not."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported
    )


def _unread_top_level(sources: dict) -> list[str]:
    """Top-level functions and classes of the modules in ``sources`` (name ->
    source) that no module reads outside their own body, as a name or an
    attribute of an imported name, and that ``__init__`` does not export;
    in module and source order."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    imported = {name: _imported(tree) for name, tree in trees.items()}
    read = sum((_reads(tree, imported[name]) for name, tree in trees.items()), Counter())
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in exported
        and read[node.name] <= _reads(node, imported[name])[node.name]
    ]


def test_unread_top_level_names_are_found():
    sources = {
        "__init__": "from .a import Exported\n",
        "a": (
            "class Exported: pass\n"
            "class Unread: pass\n"
            "def helper(): return 1\n"
            "def caller(): return helper()\n"
            "def method_name(): pass\n"
            "def only_itself(): return only_itself\n"
            "def inverse(): pass\n"
        ),
        "b": "import a\nx = a.method_name\ndef g(model): return model.inverse()\n",
    }
    # a read in the definition's own body does not count, nor does an
    # attribute of a name that no import binds
    assert _unread_top_level(sources) == ["a.Unread", "a.caller", "a.only_itself", "a.inverse", "b.g"]


def test_package_reads_every_top_level_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unread = {entry.split(".", 1)[1] for entry in _unread_top_level(sources)}
    assert unread - UNREAD_ALLOWED == set()
    assert UNREAD_ALLOWED <= unread  # an entry that is read again leaves the list
