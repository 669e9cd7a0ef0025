"""Packaging: every third-party module the library imports is declared.

``pyproject.toml``'s ``[project].dependencies`` is what an install
pulls in, so a module imported anywhere under ``src/repro`` (at module
level or inside a function) but missing there breaks ``import repro``
or one of its solvers on a fresh install.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _declared() -> set:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = (
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        for requirement in project["dependencies"]
    )
    return {name.lower().replace("-", "_") for name in names}


def _imported() -> "dict[str, str]":
    """Top-level third-party module name → one place importing it."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    found.setdefault(top, where)
    return found


def test_every_third_party_import_is_declared():
    imported = _imported()
    assert imported, "the scan found no third-party import at all"
    declared = _declared()
    undeclared = {
        name: where
        for name, where in imported.items()
        if name.lower() not in declared
    }
    assert not undeclared, (
        f"imported but not in [project].dependencies: {undeclared}"
    )
