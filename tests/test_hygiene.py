"""Source hygiene: every name a package or test module imports is used there."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = (
    sorted((ROOT / "src" / "semnav").glob("*.py"))
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "missionbench").glob("*.py"))
)


def source_id(path: Path) -> str:
    """The file name, prefixed by its folder for the benchmark harness,
    whose oracles.py shares a name with the tests' own."""
    return f"missionbench/{path.name}" if path.parent.name == "missionbench" else path.name


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded in the module."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.partition(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_detector_flags_only_unused_names():
    source = "import os, sys\nfrom a.b import c as d, e\nimport x.y\nprint(sys, e, x)\n"
    assert unused_imports(source) == ["os", "d"]


@pytest.mark.parametrize("path", SOURCES, ids=source_id)
def test_module_imports_are_all_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
