"""Every name a module of the package imports is referenced in it, so a
deletion leaves no import behind."""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hydroham"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name imported in ``source`` and never referenced,
    leaving out ``from __future__`` imports and imports marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in referenced:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_referenced(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def test_an_unreferenced_import_is_found():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from math import pi as tau, e\nfrom json import dumps  # noqa: F401\n"
              "print(sys.argv, e)\n")
    assert unused_imports(source) == [(2, "os"), (3, "tau")]
