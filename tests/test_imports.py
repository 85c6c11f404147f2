"""Every name a package module imports is used in that module, and every
private module-level function or class is referenced somewhere in the
package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "perigraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\n"
              "from math import gcd, lcm\n"
              "def f(x: gcd) -> int:\n    return osp.join(x)\n")
    assert unused_imports(source) == [(2, "os"), (4, "lcm")]


def unreferenced_private(sources):
    """(module, name) of each private module-level function or class that
    no source references outside its own definition."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    used = set()
    for tree in trees.values():
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                ref = (node.id if isinstance(node, ast.Name) else
                       node.attr if isinstance(node, ast.Attribute) else
                       node.name if isinstance(node, ast.alias) else None)
                if ref is not None and ref != own:
                    used.add(ref)
    return sorted((mod, top.name) for mod, tree in trees.items()
                  for top in tree.body
                  if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                  and top.name.startswith("_") and top.name not in used)


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private(sources) == []


def test_scan_sees_unreferenced_private_definitions():
    sources = {"a.py": ("def _used(x):\n    return x\n"
                        "def _recursive(x):\n    return _recursive(x)\n"
                        "class _Dead:\n    pass\n"
                        "def public():\n    return _used(1)\n"),
               "b.py": ("from .a import _imported\n"
                        "def _imported():\n    pass\n"
                        "def _called_as_attribute():\n    pass\n"
                        "x = mod._called_as_attribute\n")}
    assert unreferenced_private(sources) == [("a.py", "_Dead"),
                                             ("a.py", "_recursive")]
