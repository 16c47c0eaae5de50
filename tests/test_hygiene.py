"""Source hygiene: every name a package or test module imports is used
there, every function, method and class the package defines is used inside
it, and every engine name the benchmark harness hooks still exists."""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semnav.mission
from semnav.geometry import Point2
from semnav.mapgen import FREE, MetricLayer
from semnav.navigation import DrivingMap

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


# Definitions that nothing inside src/semnav references, each kept for a
# caller outside the package.
UNREFERENCED_BY_DESIGN = {
    "execute_mission": "the library entry point that README's \"Library use\" names",
    "entries": "missionbench/bench.py reads TierStore.entries",
}


def read_name(node: ast.AST) -> str | None:
    """The name a Name node or an attribute access reads, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unreferenced_definitions(sources: list[str]) -> set[str]:
    """Names of the functions, methods and classes (dunders excluded)
    defined in sources that nothing in sources reads, outside the
    definitions of that name themselves."""
    trees = [ast.parse(source) for source in sources]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    inside: dict[str, set[int]] = {}  # name -> ids of the nodes in its definitions
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__")):
                inside.setdefault(node.name, set()).update(map(id, ast.walk(node)))
    referenced = {
        read_name(node)
        for tree in trees
        for node in ast.walk(tree)
        if read_name(node) in inside and id(node) not in inside[read_name(node)]
    }
    return set(inside) - referenced


def test_unreferenced_detector():
    source = (
        "class Kept:\n"
        "    def called(self): return 1\n"
        "    def only_self(self): return self.only_self()\n"
        "    def __repr__(self): return ''\n"
        "class Dropped: pass\n"
        "print(Kept().called())\n"
    )
    assert unreferenced_definitions([source]) == {"only_self", "Dropped"}


def test_package_definitions_are_referenced_in_the_package():
    """Code that only tests reach is not part of the pipeline. The check goes
    by name, so it misses a method that shares its name with a used one: a
    TierStore.snapshot that only tests called would pass, because the engine
    calls DrivingMap.snapshot."""
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "semnav").glob("*.py"))]
    assert unreferenced_definitions(sources) == set(UNREFERENCED_BY_DESIGN)


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
    # The traced run's on_replan counts len(args[1]) as changed cells and
    # records args[0].dmap, .start and .goal, the start being the one the
    # call planned from; the search reads no changed cells, so dropping that
    # parameter would break only the traced run.
    params = list(inspect.signature(semnav.mission.replan_incremental).parameters)
    assert params[:3] == ["rs", "changed_cells", "new_start"]
    metric = MetricLayer(resolution=1.0, origin=Point2(0.0, 0.0), width=3, height=2,
                         cells=np.full((2, 3), FREE, dtype=np.uint8))
    dmap = DrivingMap(metric, robot_radius=0.4)
    rs = semnav.mission.ReplanState(dmap, (0, 0), (2, 1))
    assert semnav.mission.replan_incremental(rs, set(), (1, 0)) == [(1, 0), (2, 1)]
    assert (rs.dmap, rs.start, rs.goal) == (dmap, (1, 0), (2, 1))


# The pipeline stages the CLI reaches only through MissionEngine.build_map()
# and plan_task(), so genmap, plan and run share one front half.
ENGINE_STAGES = {
    "generate_map", "ground_actions", "plan", "Mission", "initial_facts", "goal_anchor",
}


def test_the_cli_reaches_pipeline_stages_only_through_the_engine():
    tree = ast.parse((ROOT / "src" / "semnav" / "cli.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {read_name(node) for node in ast.walk(tree)}
    assert (imported | read) & ENGINE_STAGES == set()


def fresh_interpreter_modules(code: str) -> frozenset[str]:
    """The modules a fresh interpreter holds after it runs code with this
    checkout's package on its path."""
    code += "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return frozenset(proc.stdout.splitlines()[-1].split())


def test_the_world_model_does_not_import_the_planning_stack():
    # the simulator is the world the robot acts in: it holds the robot's
    # pose, takes commands and owns its sensors' output types, and loads none
    # of the robot's learning, navigation or plans, directly or through
    # another module
    stack = {"learning", "navigation", "planner", "mission"}
    tree = ast.parse((ROOT / "src" / "semnav" / "simulator.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert {name.rpartition(".")[2] for name in names} & stack == set()
    loaded = fresh_interpreter_modules("import semnav.simulator")
    assert "semnav.simulator" in loaded
    assert loaded & {f"semnav.{name}" for name in stack} == set()


@functools.lru_cache(maxsize=1)
def demo_run_modules() -> frozenset[str]:
    """The modules a fresh interpreter holds after it imports the CLI and
    runs the demo mission in process."""
    return fresh_interpreter_modules(
        "from semnav.cli import main\n"
        "from semnav.mission import data_dir\n"
        "assert main(['run', str(data_dir() / 'demo.scenario')]) == 0"
    )


def test_the_demo_runs_without_scipy():
    # numpy is the one dependency: the demo run loads no scipy module
    assert {name for name in demo_run_modules() if name.partition(".")[0] == "scipy"} == set()
    assert "scipy" not in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def test_the_demo_runs_without_numpy_random():
    # the noise generator is built only for a noisy lidar, and the demo's is
    # noise-free: numpy.random and its extension modules stay unloaded
    assert "numpy" in demo_run_modules()
    assert {name for name in demo_run_modules() if name.startswith("numpy.random")} == set()
