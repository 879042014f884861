"""Every name a module of the package imports is used by that module, and
every private name the package defines is read somewhere in it.

No linter runs on this repository, so this is the check that keeps unused
imports and unread private helpers out. ``__init__.py`` is skipped for
imports: it imports names to re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boolsynth"
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
