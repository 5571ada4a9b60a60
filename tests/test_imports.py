"""Every name a package module imports is used in that module."""

import ast
import pathlib

import thermoseg

PACKAGE = pathlib.Path(thermoseg.__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    unused = {p.name: _unused_imports(p) for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}
