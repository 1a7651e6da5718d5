"""Every name a module imports is read somewhere in that module.

The project runs no linter, so this scan is the gate: a name imported and
never read misleads a reader about what the module uses.  A name listed in
the module's ``__all__`` counts as read, as a package re-exports it.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/kpx/*.py"), *ROOT.glob("tests/*.py")])


def unread_imports(source):
    """(line, name) for each name the source imports and never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [(node.lineno, alias.asname or alias.name.partition(".")[0])
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.partition(".")[0]) not in read]


def test_the_scan_finds_an_unread_import():
    source = ("import os, sys\nimport a.b\nfrom x import y as z, w\n"
              "from __future__ import annotations\n__all__ = ['w']\nprint(sys, a.b.c)\n")
    assert unread_imports(source) == [(1, "os"), (3, "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []
