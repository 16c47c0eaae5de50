"""Command-line surface: parse worlds, export maps, plan and run missions.
Timing lives in the `missionbench/` harness, not here.

Exit codes are a contract: 0 success, 1 domain failure (bad world content,
a world too large to map in memory, unknown goal, unsolvable task, failed
mission), 2 usage or I/O error (missing files, malformed scenario,
unwritable output, bad arguments).
Command-line flags override scenario values, which override built-in
defaults. All file outputs use canonical formatting, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import sys
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
    read_utf8,
    report_to_json,
)
from .planner import Mission, ground_actions, plan
from .simulator import trace_to_csv
from .world import WorldError, WorldSyntaxError, parse_world, validate_world

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
        world = parse_world(read_utf8(path, "world file", WorldSyntaxError))
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
    except MemoryError:
        _fail("out of memory: the world is too large to map on this machine")
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
