"""Every module-level import of the package is used: a dead import is a
dependency that no code needs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of ``source`` that nothing
    in it reads, leaving out ``__future__`` imports and names on a line
    marked ``# noqa: F401`` (a deliberate re-export)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_package_has_no_dead_imports():
    files = sorted((ROOT / "src" / "bigraded").glob("*.py"))
    assert files
    for path in files:
        assert _unused_imports(path.read_text()) == [], path.name


def test_dead_import_check_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from collections import defaultdict, deque\n"
        "from heapq import heappush as push\n"
        "from .freealg import Letter  # noqa: F401\n"
        "x = deque(os.path.sep)\n"
    )
    assert _unused_imports(source) == ["defaultdict (line 3)", "push (line 4)"]
