"""Every module-level import of the package and of its tests is used: a
dead import is a dependency that no code needs."""

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


def _dead_imports(folder: str) -> dict[str, list[str]]:
    """The dead imports of each module in ``folder``, by file name."""
    files = sorted((ROOT / folder).glob("*.py"))
    assert files
    return {p.name: dead for p in files if (dead := _unused_imports(p.read_text()))}


def test_package_has_no_dead_imports():
    assert _dead_imports("src/bigraded") == {}


def test_tests_have_no_dead_imports():
    assert _dead_imports("tests") == {}


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
