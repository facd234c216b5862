"""Every definition of the package is used: a module-level function, class
or constant, or a method or class attribute of a module-level class, that
nothing in src/, tests/ or bench/ refers to is dead code, and one that only
tests/ refers to belongs there."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _names_defined(body, fields=True):
    """``(name, line)`` for each function, class and assigned name that the
    statements ``body`` define; annotated names only if ``fields``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign) or fields and isinstance(node, ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


def _definitions(tree, fields=True) -> dict[str, tuple[str, int]]:
    """The module-level functions, classes and constants of ``tree``, and
    the methods and class attributes of its module-level classes (labelled
    ``Class.name``), each with the name it is used by and its line; dunder
    names are left out, and annotated class attributes unless ``fields``."""
    out = {}
    for name, line in _names_defined(tree.body):
        out[name] = name, line
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for name, line in _names_defined(node.body, fields):
                out[f"{node.name}.{name}"] = name, line
    return {label: (name, line) for label, (name, line) in out.items() if not name.startswith("__")}


def _references(tree) -> set[str]:
    """Every name ``tree`` refers to: a loaded name, an attribute, an
    imported name, or an identifier inside a string constant (handlers
    bound by name, wrap targets listed as strings).  A bare string
    statement, a docstring among them, only describes: it refers to
    nothing."""
    bare = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in bare:
            out.update(_IDENTIFIER.findall(n.value))
    return out


def _dead_definitions(source: str, used=frozenset(), fields=True) -> list[str]:
    """The module-level definitions of ``source`` that it does not refer to
    and that are not in ``used``; dataclass fields only if ``fields``."""
    tree = ast.parse(source)
    used = _references(tree) | used
    return sorted(
        f"{label} (line {line})" for label, (name, line) in _definitions(tree, fields).items() if name not in used
    )


def _unreferenced(tops, fields=True) -> dict[str, list[str]]:
    """Per package module, the definitions that nothing under ``tops`` refers to."""
    package = sorted((ROOT / "src" / "bigraded").glob("*.py"))
    assert package
    used = set().union(
        *(_references(ast.parse(path.read_text())) for top in tops for path in (ROOT / top).rglob("*.py"))
    )
    return {path.name: dead for path in package if (dead := _dead_definitions(path.read_text(), used, fields))}


def test_package_has_no_dead_definitions():
    assert _unreferenced(("src", "tests", "bench")) == {}


def test_package_has_no_test_only_definitions():
    """What only tests call, an oracle or a fixture, lives in tests/.  A
    dataclass field needs no reader: reports serialise every field.  The rule
    goes by name, so it cannot see a definition whose name is also used for
    something else, such as a local variable."""
    assert _unreferenced(("src", "bench"), fields=False) == {}


def test_cli_defines_no_size_cap():
    """Every size cap lives with the library routine whose work it bounds,
    so that a library caller meets it too: the command line defines no
    module-level MAX_* name."""
    tree = ast.parse((ROOT / "src" / "bigraded" / "cli.py").read_text())
    assert [name for name, _ in _names_defined(tree.body) if name.startswith("MAX_")] == []


# the presets' names, as `cdga.build_paper_complex` reads them
_PRESET_NAMES = ("vanishA", "vanishB", "intstab-f2", "intstab-fl", "A-algebra-fl")


def _preset_logic(source: str) -> list[tuple[str, str]]:
    """``(handler, literal)`` for each preset name (``NAME`` or
    ``NAME(ELL)``) and each slope (a string ``p/q``, or a number given to
    ``Fraction`` or ``VanishingLine``) written inside a ``cmd_*`` function
    of ``source``."""
    found = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.partition("(")[0] in _PRESET_NAMES or re.fullmatch(r"[+-]?\d+/\d+", node.value):
                    found.append((fn.name, node.value))
            elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("Fraction", "VanishingLine"):
                found += [(fn.name, ast.unparse(a)) for a in node.args if isinstance(a, ast.Constant)]
    return found


def test_cli_handlers_hold_no_preset_logic():
    """Which line a preset is checked against, like anything else that
    depends on the preset named, is the library's: no handler of the command
    line names a preset or writes a slope.  The check finds the preset
    logic the command line once had."""
    from bigraded import cdga

    for name in _PRESET_NAMES:  # each is a preset
        cdga.default_line(name + ("(3)" if name.endswith("-fl") else ""))
    assert _preset_logic((ROOT / "src" / "bigraded" / "cli.py").read_text()) == []
    planted = (
        "def cmd_vanish_check(args):\n"
        "    slope = args.slope if args.slope is not None else {'vanishB': '4/5'}.get(args.preset, '3/4')\n"
        "    if args.preset == 'intstab-fl(3)':\n"
        "        return grading.VanishingLine(Fraction(3, 4))\n"
        "def _helper(args):\n"
        "    return '3/4'\n"
    )
    assert sorted(literal for _, literal in _preset_logic(planted)) == [
        "3", "3/4", "4", "4/5", "intstab-fl(3)", "vanishB"]


def test_dead_definition_check_sees_what_it_should():
    source = (
        "import os\n"
        "LIMIT, SPARE = 3, 4\n"
        "def used(x):\n"
        "    return x + LIMIT\n"
        "def dead():\n"
        "    return used(os.sep)\n"
        "class Named:\n"
        "    KIND = 'named'\n"
        "    def __len__(self):\n"
        "        return self.size()\n"
        "    def size(self):\n"
        "        return 0\n"
        "    def unread(self):\n"
        "        return 1\n"
        "def by_attribute():\n"
        "    pass\n"
        "def by_import():\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    pass\n"
        "def by_docstring():\n"
        "    \"\"\"Only `documented` names documented.\"\"\"\n"
        "def documented():\n"
        "    pass\n"
        "class Result:\n"
        "    found: bool\n"
        "    def oracle(self):\n"
        "        pass\n"
    )
    # a docstring names by_docstring and documented, but refers to neither
    other = (
        '"""Calls by_docstring, in words only."""\n'
        "from pkg import by_import\nimport pkg\npkg.by_attribute()\nHANDLERS = ('Named',)\n"
    )
    assert _dead_definitions(source, _references(ast.parse(other + "Result().oracle()\n"))) == [
        "Named.KIND (line 8)", "Named.unread (line 13)", "Result.found (line 26)", "SPARE (line 2)",
        "by_docstring (line 21)", "dead (line 5)", "documented (line 23)",
    ]
    # without the last line's references, what only it calls shows; the field does not
    assert _dead_definitions(source, _references(ast.parse(other)), fields=False) == [
        "Named.KIND (line 8)", "Named.unread (line 13)", "Result (line 25)", "Result.oracle (line 27)",
        "SPARE (line 2)", "by_docstring (line 21)", "dead (line 5)", "documented (line 23)",
    ]
    assert _dead_definitions(source) == [
        "Named (line 7)", "Named.KIND (line 8)", "Named.unread (line 13)", "Result (line 25)",
        "Result.found (line 26)", "Result.oracle (line 27)", "SPARE (line 2)",
        "by_attribute (line 15)", "by_docstring (line 21)", "by_import (line 17)", "dead (line 5)",
        "documented (line 23)",
    ]
