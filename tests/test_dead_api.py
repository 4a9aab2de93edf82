"""Dead-API lint: every function, class and method defined in a module of
``src/grpdconn`` must be referenced by name somewhere in ``src/``, ``tests/``
or ``perfbench/`` outside its own definition.

References are names, attribute names and imported names read from the
syntax tree of every Python file there. Dunder names and the console entry
point ``cli.main`` are exempt.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "grpdconn"
MODULES = sorted(SRC.glob("*.py"))
EXEMPT = {("cli.py", "main")}


def _trees():
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Every name a file reads, with the file and line of each reading."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


REFERENCES = _references()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = []
    for node in _definitions(tree):
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or (path.name, name) in EXEMPT:
            continue
        outside = [(where, line) for where, line in REFERENCES.get(name, ())
                   if where != path or not node.lineno <= line <= node.end_lineno]
        if not outside:
            dead.append(f"{name} (line {node.lineno})")
    assert not dead, f"{path.name} defines but never references: {', '.join(dead)}"
