"""Being stdlib-only is a feature: `bigraded` installs with no dependency."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_package_imports_only_the_standard_library():
    files = sorted((ROOT / "src" / "bigraded").glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays inside the package
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_pyproject_declares_no_dependencies():
    assert "dependencies = []" in (ROOT / "pyproject.toml").read_text().splitlines()
