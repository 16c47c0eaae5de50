"""Command-line surface: parse worlds, export maps, plan, run missions,
and benchmark the hot paths.

Exit codes are a contract: 0 success, 1 domain failure (bad world content,
unknown goal, unsolvable task, failed mission), 2 usage or I/O error
(missing files, malformed scenario, unwritable output, bad arguments).
Command-line flags override scenario values, which override built-in
defaults. All file outputs use canonical formatting, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from .mapgen import (
    MapError,
    episodic_log,
    generate_map,
    layers_to_text,
    metric_sidecar,
    metric_to_pgm,
)
from .memory import OversizeEntryError, UnknownSymbolError
from .mission import (
    MissionEngine,
    Scenario,
    ScenarioError,
    goal_anchor,
    initial_facts,
    load_scenario,
    report_to_json,
)
from .navigation import DrivingMap, ReplanState, plan_global, replan_incremental
from .planner import Mission, ground_actions, plan
from .simulator import lidar_scan, make_world_state, trace_to_csv
from .world import WorldError, parse_world, validate_world

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# --- commands ---

def cmd_parse(args: argparse.Namespace) -> int:
    path = Path(args.world)
    if not path.exists():
        _fail(f"world file not found: {path}")
        return EXIT_USAGE
    try:
        world = parse_world(path.read_text(encoding="utf-8"))
    except WorldError as exc:
        print(f"[error] {exc}")
        return EXIT_DOMAIN
    diagnostics = validate_world(world)
    for diag in diagnostics:
        print(diag)
    print(
        f"world '{world.name}': {len(world.spaces)} spaces, "
        f"{len(world.elements)} elements, {len(world.actors)} actors"
    )
    return EXIT_DOMAIN if any(d.severity == "error" for d in diagnostics) else EXIT_OK


def _prepared_engine(args: argparse.Namespace) -> tuple[Scenario, MissionEngine]:
    scenario = load_scenario(Path(args.scenario))
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    if getattr(args, "noise_sigma", None) is not None:
        scenario = replace(scenario, noise_sigma=args.noise_sigma)
    return scenario, MissionEngine(scenario)


def cmd_genmap(args: argparse.Namespace) -> int:
    scenario, engine = _prepared_engine(args)
    emap = generate_map(
        engine.store,
        scenario.sensor_spec,
        goal_anchor(scenario.goal),
        scenario.resolution,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "map.pgm").write_bytes(metric_to_pgm(emap.metric))
    (out_dir / "map.meta").write_text(metric_sidecar(emap.metric), encoding="utf-8")
    (out_dir / "layers.txt").write_text(layers_to_text(emap), encoding="utf-8")
    print(
        f"map {emap.metric.width}x{emap.metric.height} at {emap.metric.resolution} m/cell, "
        f"{len(emap.semantic.annotations)} annotations -> {out_dir}"
    )
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    scenario, engine = _prepared_engine(args)
    emap = generate_map(
        engine.store,
        scenario.sensor_spec,
        goal_anchor(scenario.goal),
        scenario.resolution,
    )
    facts = initial_facts(engine.store, engine.start_space)
    mission = Mission(goal=frozenset(scenario.goal), start_space=engine.start_space)
    grounded = ground_actions(engine.templates, emap)
    result = plan(facts, mission, grounded)
    if result is None:
        print("unsolvable: no action sequence reaches the goal")
        return EXIT_DOMAIN
    print(f"plan ({len(result.actions)} actions, cost {result.total_cost:.3f}):")
    for i, action in enumerate(result.actions, 1):
        print(f"  {i}. {action.name}  cost {action.cost:.3f}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    scenario, engine = _prepared_engine(args)
    run = engine.run()
    report = run.report
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(report_to_json(report), encoding="utf-8")
        if run.world_state is not None:
            (out_dir / "trace.csv").write_text(
                trace_to_csv(run.world_state.trace), encoding="utf-8"
            )
        if run.emap is not None:
            (out_dir / "episodes.txt").write_text(episodic_log(run.emap), encoding="utf-8")
        print(f"report written to {out_dir / 'report.json'}")
    status = "success" if report.success else f"failure ({report.failure_code})"
    print(
        f"mission {status}: {report.ticks_used} ticks, {report.distance_m:.2f} m, "
        f"{report.replan_count} replans, {report.learned_count} learned, "
        f"{report.collisions_static} static / {report.collisions_actor} actor collisions"
    )
    return EXIT_OK if report.success else EXIT_DOMAIN


def _percentile_99(samples: list[float]) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, -(-99 * len(ordered) // 100) - 1))
    return ordered[index]


def cmd_bench(args: argparse.Namespace) -> int:
    if args.repetitions < 1:
        _fail("bench needs at least one repetition")
        return EXIT_USAGE
    scenario, engine = _prepared_engine(args)
    if scenario.sensor_spec.lidar2d is None:
        raise ScenarioError("bench needs a scenario with a lidar sensor")
    emap = generate_map(
        engine.store,
        scenario.sensor_spec,
        goal_anchor(scenario.goal),
        scenario.resolution,
    )
    dmap = DrivingMap(emap.metric, engine.world.robot_radius)
    ws = make_world_state(engine.world, scenario.seed, scenario.noise_sigma)
    start = dmap.cell_of(engine.world.robot_spawn.position)
    goal = dmap.cell_of(engine.world.find(goal_anchor(scenario.goal)).position())

    plan_samples: list[float] = []
    for _ in range(args.repetitions):
        t0 = time.perf_counter()
        plan_global(dmap, start, goal)
        plan_samples.append(time.perf_counter() - t0)

    rs = ReplanState(dmap, start, goal)
    toggle = next(
        (start[0] + dx, start[1] + dy)
        for dx in range(dmap.width)
        for dy in range(dmap.height)
        if dmap.in_bounds(start[0] + dx, start[1] + dy)
        and dmap.traversable(start[0] + dx, start[1] + dy)
        and (dx, dy) != (0, 0)
    )
    replan_samples: list[float] = []
    for _ in range(args.repetitions):
        dmap.dynamic[toggle] = 10**9
        t0 = time.perf_counter()
        replan_incremental(rs, {toggle})
        replan_samples.append(time.perf_counter() - t0)
        del dmap.dynamic[toggle]
        t0 = time.perf_counter()
        replan_incremental(rs, {toggle})
        replan_samples.append(time.perf_counter() - t0)

    scan_samples: list[float] = []
    for _ in range(args.repetitions):
        t0 = time.perf_counter()
        lidar_scan(ws, scenario.sensor_spec)
        scan_samples.append(time.perf_counter() - t0)

    print("operation,samples,mean_s,p99_s")
    for name, samples in (
        ("plan_global", plan_samples),
        ("replan_incremental", replan_samples),
        ("lidar_scan", scan_samples),
    ):
        print(f"{name},{len(samples)},{statistics.fmean(samples):.6f},{_percentile_99(samples):.6f}")
    return EXIT_OK


# --- argument parsing ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semnav",
        description="Tiered-memory semantic navigation: worlds, maps, plans, missions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse and validate a world file")
    p_parse.add_argument("world", help="path to a .world file")
    p_parse.set_defaults(func=cmd_parse)

    p_genmap = sub.add_parser("genmap", help="generate and export the semantic-episodic map")
    p_genmap.add_argument("scenario", help="path to a scenario file")
    p_genmap.add_argument("-o", "--out", required=True, help="output directory")
    p_genmap.set_defaults(func=cmd_genmap)

    p_plan = sub.add_parser("plan", help="ground actions and print the task plan")
    p_plan.add_argument("scenario", help="path to a scenario file")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="run a full mission")
    p_run.add_argument("scenario", help="path to a scenario file")
    p_run.add_argument("-o", "--out", default=None, help="directory for report/trace/episode files")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument(
        "--noise-sigma",
        dest="noise_sigma",
        type=float,
        default=None,
        help="override the lidar noise sigma",
    )
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="time the navigation hot paths")
    p_bench.add_argument("scenario", help="path to a scenario file")
    p_bench.add_argument("-n", "--repetitions", type=int, default=20, help="samples per operation")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, configparser.Error) as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except OSError as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except (WorldError, MapError, UnknownSymbolError, OversizeEntryError, ValueError) as exc:
        _fail(str(exc))
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
