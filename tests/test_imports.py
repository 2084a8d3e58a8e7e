"""Every import in the package is used, or marked ``# noqa: F401``.

A stdlib ``ast`` pass, so deleting code cannot leave dead imports behind
without a linter installed."""

from __future__ import annotations

import ast
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
