"""Source hygiene: every name a package or test module imports is used
there, and every engine name the benchmark harness hooks still exists."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import semnav.mission

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


def benchmark_hooks() -> tuple[tuple[str, ...], list[tuple[type, tuple[str, ...]]]]:
    """ENGINE_NAMES and CLASS_METHODS as missionbench/bench.py declares them,
    read with ast: importing bench would shadow the tests' own oracles
    module with the harness's. Each class is resolved through the module
    bench.py imports it from."""
    tree = ast.parse((ROOT / "missionbench" / "bench.py").read_text(encoding="utf-8"))
    origin = {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    values = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    classes = [
        (getattr(importlib.import_module(origin[cls.id]), cls.id), ast.literal_eval(methods))
        for cls, methods in (pair.elts for pair in values["CLASS_METHODS"].elts)
    ]
    return ast.literal_eval(values["ENGINE_NAMES"]), classes


def test_benchmark_hooks_bind_to_the_engine():
    # The harness replaces these names in semnav.mission and these methods
    # in their classes' __dict__; a rename would only show in a benchmark run.
    names, classes = benchmark_hooks()
    assert names and classes
    assert [name for name in names if not hasattr(semnav.mission, name)] == []
    for cls, methods in classes:
        assert [method for method in methods if method not in cls.__dict__] == [], cls.__name__
