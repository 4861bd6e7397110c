"""Source hygiene: every module-level import in spinenav's modules is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spinenav"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
