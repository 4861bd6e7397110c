"""Source hygiene: every module-level import in spinenav's modules is used,
every module-level private name is read somewhere in the package, and every
wire reader leaves value checks to the constructors."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spinenav"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE_SOURCES = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]


def _unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that no expression in
    the module reads (a docstring mention does not count)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_the_check_finds_an_unused_import():
    assert _unused_imports("import json\nfrom pathlib import Path\nPath('x')\n") \
        == ["line 1: json"]
    assert _unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_level_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _private_names(source: str) -> dict:
    """Private (single leading underscore) names the module's top level
    binds by def, class or assignment, with their lines."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in found for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update({name: node.lineno for name in targets
                      if name.startswith("_") and not name.startswith("__")})
    return names


def _unread_private_names(source: str, package_sources) -> list:
    """Module-level private names of source that no expression in any of
    package_sources reads, as a bare name or as an attribute."""
    reads = set()
    for text in package_sources:
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            elif isinstance(n, ast.Attribute):
                reads.add(n.attr)
    return sorted(f"line {line}: {name}" for name, line in _private_names(source).items()
                  if name not in reads)


def test_the_check_finds_an_unread_private_name():
    module = ("_EYE = 1\n_USED = 2\n_SEEN = 3\n__all__ = []\n"
              "def _dead():\n    return _USED\n"
              "class _Gone:\n    pass\n")
    other = "from . import m\nx = m._SEEN\n"
    assert _unread_private_names(module, [module, other]) == [
        "line 1: _EYE", "line 5: _dead", "line 7: _Gone"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_private_name_is_read(path):
    assert _unread_private_names(path.read_text(encoding="utf-8"), PACKAGE_SOURCES) == []


_READERS = ("from_dict", "_event_from_dict")


def _checking_readers(source: str) -> list:
    """The wire readers (from_dict, _event_from_dict) of source that hold a
    raise or an isinstance call: a value rule there is one the constructor
    does not own, so the same value built in process would pass."""
    readers = [f for f in ast.walk(ast.parse(source))
               if isinstance(f, ast.FunctionDef) and f.name in _READERS]
    return [f"line {n.lineno}: {f.name}" for f in readers
            for n in sorted(ast.walk(f), key=lambda n: getattr(n, "lineno", 0))
            if isinstance(n, ast.Raise)
            or (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "isinstance")]


def test_the_check_finds_a_reader_that_checks():
    module = ("class A:\n    def from_dict(d):\n        if not isinstance(d, dict):\n"
              "            raise ValueError\n        return A()\n"
              "def _event_from_dict(d):\n    return A.from_dict(d)\n")
    assert _checking_readers(module) == ["line 3: from_dict", "line 4: from_dict"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_readers_leave_value_checks_to_the_constructors(path):
    assert _checking_readers(path.read_text(encoding="utf-8")) == []
