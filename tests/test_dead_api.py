"""Dead-API lint: every function, class and method defined in a module of
``src/grpdconn`` must be referenced by name somewhere in ``src/``, ``tests/``
or ``perfbench/`` outside its own definition. A module-level function or
class that only tests reference (nothing in ``src/`` outside its own
definition, the package's exports apart, and nothing in ``perfbench/``) must
be exported by ``grpdconn/__init__.py``.

References are names, attribute names and imported names read from the
syntax tree of every Python file there. Inside a file, a name bound by
importing a module of the package (``from grpdconn import tangent``,
``from . import catalog``) names that module, so neither the import nor a
use of the bound name counts as a reference to a definition of that name.
Dunder names and the console entry point ``cli.main`` are exempt.

Metadata keys get the same lint. A key of a metadata literal in ``src/`` (a
dict passed as ``metadata=``, or as a Connection's fourth argument) must
appear as a string somewhere else in ``src/``, ``tests/`` or ``perfbench/``;
and every key that ``src/`` reads from a ``metadata`` attribute (by
subscript, ``get`` or ``in``) must be written by such a literal.
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


TREES = list(_trees())


PACKAGE_MODULES = {path.stem for path in MODULES}


def _imports_package_module(node: ast.ImportFrom, alias: ast.alias) -> bool:
    from_package = node.module == "grpdconn" or (node.level > 0 and node.module is None)
    return from_package and alias.name in PACKAGE_MODULES


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names a file binds to modules of the package by ``from ... import``."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if _imports_package_module(node, alias)}


def _references(trees) -> dict[str, list[tuple[Path, int]]]:
    """Every name a file reads, with the file and line of each reading."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees:
        modules = _module_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id] if node.id not in modules else []
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names
                         if not _imports_package_module(node, alias)]
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


REFERENCES = _references(TREES)


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


INIT = SRC / "__init__.py"
# what the library and the benchmark read, the package's exports apart
LIBRARY_REFERENCES = _references(
    (path, tree) for path, tree in TREES
    if path != INIT and (SRC in path.parents or ROOT / "perfbench" in path.parents))
EXPORTED = {alias.asname or alias.name for node in ast.parse(INIT.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_only_tests_reach_is_exported(path):
    # API that no scenario, library code or benchmark runs stays only as
    # exported API, where the package docstring names the statement it serves
    tree = ast.parse(path.read_text(encoding="utf-8"))
    test_only = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or (path.name, name) in EXEMPT:
            continue
        outside = [(where, line) for where, line in LIBRARY_REFERENCES.get(name, ())
                   if where != path or not node.lineno <= line <= node.end_lineno]
        if not outside and name not in EXPORTED:
            test_only.append(f"{name} (line {node.lineno})")
    assert not test_only, (f"{path.name} defines, for tests only and unexported: "
                           f"{', '.join(test_only)}")


def _metadata_literals(tree: ast.Module):
    """Dict literals passed as ``metadata=`` or as a Connection's fourth argument."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        found = [kw.value for kw in node.keywords if kw.arg == "metadata"]
        if isinstance(node.func, ast.Name) and node.func.id == "Connection" and len(node.args) > 3:
            found.append(node.args[3])
        yield from (d for d in found if isinstance(d, ast.Dict))


def _string(node) -> str | None:
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _is_metadata(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "metadata"


def _metadata_reads(tree: ast.Module):
    """(key, line) of every constant key read from a ``metadata`` attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_metadata(node.value):
            key = _string(node.slice)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and _is_metadata(node.func.value) and node.args):
            key = _string(node.args[0])
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In)
              and _is_metadata(node.comparators[0])):
            key = _string(node.left)
        else:
            continue
        if key is not None:
            yield key, node.lineno


SRC_TREES = [(path, tree) for path, tree in TREES if SRC in path.parents]
WRITTEN = {id(k): (path, k) for path, tree in SRC_TREES
           for d in _metadata_literals(tree) for k in d.keys if _string(k) is not None}


def test_every_metadata_key_is_read():
    elsewhere = {node.value for _, tree in TREES for node in ast.walk(tree)
                 if _string(node) is not None and id(node) not in WRITTEN}
    dead = sorted(f"{path.name}:{k.lineno} {k.value!r}" for path, k in WRITTEN.values()
                  if k.value not in elsewhere)
    assert not dead, f"metadata keys written but never read: {', '.join(dead)}"


def test_every_metadata_key_read_is_written():
    written = {k.value for _, k in WRITTEN.values()}
    unwritten = sorted(f"{path.name}:{line} {key!r}" for path, tree in SRC_TREES
                       for key, line in _metadata_reads(tree) if key not in written)
    assert not unwritten, f"metadata keys read but never written: {', '.join(unwritten)}"
