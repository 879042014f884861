"""Every name a module of the package imports is used by that module, and
every private name the package defines is read somewhere in it. The test
oracles import no engine, and no test module imports another.

No linter runs on this repository, so this is the check that keeps unused
imports and unread private helpers out. ``__init__.py`` is skipped for
imports: it imports names to re-export them, and ``__all__`` lists exactly
those names.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import boolsynth

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "boolsynth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations and
    ``__all__``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_an_unused_import_is_caught():
    tree = ast.parse(
        "from typing import Optional, Sequence\n"
        "import os.path\n"
        "def f(x: 'Sequence[int]') -> None: ...\n"
    )
    assert imported_names(tree) - used_names(tree) == {"Optional", "os"}


def private_definitions(tree: ast.Module) -> set[str]:
    """The private names (``_x``; not ``_``, dunders or sunders) a module
    defines: functions, methods, classes and assigned names."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return {name for name in names if name[0] == "_" and name[-1] != "_"}


def read_names(tree: ast.Module) -> set[str]:
    """Names and attribute names read anywhere, including inside string
    annotations."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(read_names(inner))
    return names


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text()) for path in ALL_MODULES}
    read = set().union(*map(read_names, trees.values()))
    unread = [
        f"{name}: {private}"
        for name, tree in trees.items()
        for private in sorted(private_definitions(tree) - read)
    ]
    assert unread == []


def test_an_unread_private_helper_is_caught():
    tree = ast.parse(
        "_TABLE = (1, 2)\n"
        "_SPARE = (3, 4)\n"
        "def _used(row: '_Row') -> int:\n"
        "    return _TABLE[row.size()]\n"
        "def _unread() -> None: ...\n"
        "class _Row:\n"
        "    def size(self): return self._size()\n"
        "    def _size(self): return 0\n"
        "    def _spare(self): return 1\n"
        "    def __len__(self): return 0\n"
        "print(_used(_Row()))\n"
    )
    assert private_definitions(tree) - read_names(tree) == {
        "_SPARE", "_unread", "_spare"
    }


def test_all_lists_exactly_what_the_package_imports():
    # ``__init__.py`` imports names only to re-export them, so a name it
    # imports and ``__all__`` leaves out, or the other way round, is stale.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(boolsynth.__all__) == sorted(imported_names(tree))


#: What ``oracles.py`` may import besides the standard library: the data
#: types, so that no oracle shares code with an engine.
DATA_TYPE_MODULES = {"boolsynth.interactions", "boolsynth.ts", "boolsynth.regions"}


def imported_modules(tree: ast.Module) -> set[str]:
    """The absolute names of the modules a module imports."""
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    return modules


def test_imported_modules_reads_every_import_form():
    tree = ast.parse(
        "import os.path\n"
        "from boolsynth import solving\n"
        "from . import helpers\n"
        "from test_sat import brute_force\n"
    )
    assert imported_modules(tree) == {"os.path", "boolsynth", ".", "test_sat"}


def test_the_oracles_import_only_the_standard_library_and_data_types():
    modules = imported_modules(ast.parse((TESTS / "oracles.py").read_text()))
    foreign = {
        module
        for module in modules - DATA_TYPE_MODULES
        if module.split(".")[0] not in sys.stdlib_module_names
    }
    assert modules & DATA_TYPE_MODULES and sorted(foreign) == []


def test_no_test_module_imports_another():
    importing = [
        f"{path.name}: {module}"
        for path in sorted(TESTS.glob("test_*.py"))
        for module in sorted(imported_modules(ast.parse(path.read_text())))
        if module.split(".")[0].startswith("test_")
    ]
    assert importing == []
