"""Mission workloads, their untraced timing, and the traced per-layer run.

Every mission goes through the entry points `semnav run` uses:
load_scenario -> MissionEngine(...).run() -> report_to_json. A mission's
wall time runs from the call to load_scenario to the canonical report.

Untraced runs hook two names the engine calls: `step`, to end a lap at the
end of each tick, and `plan_global`, to copy the dynamic cells each leg's
global plan saw (a tuple of a few hundred cells, once per leg) for the
global-plan check. The traced run wraps every layer boundary the engine
crosses.

Every mission and set-up probe is timed in laps, with a timing of the fixed
work in `reference` between laps, and its times are reported in
reference-speed seconds (see that module): wall time scaled by how fast the
machine ran it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import semnav.mission as engine_module
from semnav import simulator
from semnav.memory import TierId, TierStore
from semnav.mission import MissionEngine, data_dir, load_scenario, report_to_json
from semnav.navigation import DrivingMap
from semnav.planner import ground_actions

import oracles
import reference
from oracles import CheckFailed
from tracer import Tracer, clock, patched

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


@dataclasses.dataclass(frozen=True)
class Mission:
    label: str
    path: Path
    completes: bool  # False when the scenario's max_ticks ends it on purpose


# The mission each workload repeats.
WORKLOADS: dict[str, Mission] = {
    "demo": Mission("demo", data_dir() / "demo.scenario", True),
    "tour": Mission("tour", BENCH_DIR / "scenarios" / "tour.scenario", True),
    "noisy": Mission("noisy", BENCH_DIR / "scenarios" / "noisy.scenario", False),
}

SETUP_PROBES = 6  # extra runs to first motion, so set-up has a median on every workload
MIN_REPEATS = 2  # every tick is timed at least twice
SAMPLE_EVERY = 16  # traced run: check one repair (and one noise-free scan) in this many
LIDAR_BEAMS_CHECKED = 24
IMPORT_SAMPLES = 3


class FirstMotion(Exception):
    """Ends a set-up probe at its first simulator step."""


@dataclasses.dataclass
class PlanCapture:
    static: object  # the costmap's static layer (an int16 array, never written after build)
    dynamic: tuple
    start: tuple[int, int]
    goal: tuple[int, int]
    path: list | None
    stated: tuple[int, int] | None


def run_mission(mission: Mission, to_json=report_to_json):
    """One mission as `semnav run` performs it; returns the engine, its
    MissionRun, the canonical report and the start and end times."""
    start = clock()
    engine = MissionEngine(load_scenario(mission.path))
    result = engine.run()
    text = to_json(result.report)
    return engine, result, text, start, clock()


def _plan_capture(dmap, start, goal, result) -> PlanCapture:
    path, stated = (None, None) if result is None else (result[0], (result[1].a, result[1].b))
    return PlanCapture(dmap.static, tuple(dmap.dynamic), start, goal, path, stated)


def _goal_space(goal) -> str:
    return next(f.args[1] for f in goal if f.predicate == "at" and f.args[0] == "robot")


def _actor_disks(ws) -> list[tuple[float, float, float]]:
    return [
        (ws.actor_positions[a.symbol].x, ws.actor_positions[a.symbol].y, a.footprint_radius)
        for a in ws.world.actors
    ]


class Checker:
    """Checks each mission's outputs and keeps the verdicts. The Dijkstra
    checks are deferred to `finish`, after the timed phase, and computed
    once per distinct costmap, start and goal."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.first_report: dict[str, str] = {}
        self.failures: list[tuple[int, str]] = []
        self._static: dict[bytes, object] = {}
        self._pending: dict[tuple, dict[tuple, list[int]]] = {}

    def mission(self, index: int, mission: Mission, engine, run, text: str,
                plans=(), repairs=(), scans=()) -> None:
        try:
            self._check(mission, engine, run, text, scans)
        except CheckFailed as exc:
            self.failures.append((index, f"{mission.label}: {exc}"))
        for capture in list(plans) + list(repairs):
            digest = hashlib.blake2b(capture.static.tobytes(), digest_size=16).digest()
            self._static.setdefault(digest, capture.static)
            key = (digest, frozenset(capture.dynamic), capture.start, capture.goal)
            answer = (None if capture.path is None else tuple(capture.path), capture.stated)
            self._pending.setdefault(key, {}).setdefault(answer, []).append(index)

    def _check(self, mission: Mission, engine, run, text: str, scans) -> None:
        report, scenario, world = run.report, engine.scenario, engine.world
        if mission.completes:
            oracles.require(report.success, f"mission failed: {report.failure_code}")
        else:
            oracles.require(
                report.failure_code == "timeout" and report.ticks_used == scenario.max_ticks,
                f"expected a stop at max_ticks {scenario.max_ticks}, got "
                f"{report.failure_code} after {report.ticks_used} ticks",
            )
        oracles.check_repeat(self.first_report.setdefault(mission.label, text), text)

        polygon = None
        if mission.completes:
            footprint = world.find(_goal_space(scenario.goal)).explicit.model2d
            polygon = [(p.x, p.y) for p in footprint.vertices]
        oracles.check_trace(run.world_state.trace, scenario.dt, report.distance_m, polygon)

        store = run.store
        tiers = {
            tier.name: (
                store.configs[tier].capacity,
                [(e.key, e.version, e.size_units, e.provenance) for e in store.entries(tier)],
            )
            for tier in TierId
        }
        oracles.check_store(tiers, report.written_back)

        oracles.check_plan(
            world, engine.start_space, run.behavior_plan,
            ground_actions(engine.templates, run.emap), scenario.goal,
        )

        lidar = scenario.sensor_spec.lidar2d
        if lidar is not None and scenario.noise_sigma == 0.0:
            segments = oracles.static_segments(world)
            final = run.world_state
            scans = list(scans) + [
                (simulator.lidar_scan(final, scenario.sensor_spec), _actor_disks(final))
            ]
            for scan, disks in scans:
                beams = sorted(self.rng.sample(range(len(scan.ranges)), LIDAR_BEAMS_CHECKED))
                oracles.check_lidar(scan, lidar.fov, beams, segments, disks)

    def finish(self) -> None:
        rows = {digest: static.tolist() for digest, static in self._static.items()}
        for (digest, dynamic, start, goal), answers in self._pending.items():
            grid = oracles.Grid(rows[digest], dynamic)
            optimum = oracles.dijkstra_pair(grid, start, goal)
            for (path, stated), indices in answers.items():
                try:
                    oracles.check_path(
                        grid, start, goal, None if path is None else list(path), stated, optimum
                    )
                except CheckFailed as exc:
                    self.failures.extend((i, f"plan {start}->{goal}: {exc}") for i in indices)
        self._pending.clear()

    def failed_missions(self) -> int:
        return len({index for index, _ in self.failures})


@dataclasses.dataclass
class MissionTiming:
    """One untraced mission, in reference-speed seconds."""

    setup: float  # load_scenario -> end of the first step
    duration: float  # load_scenario -> canonical report
    ticks: list[float]  # end of one step -> end of the next
    sim_s: float  # simulated time after the first tick
    drive_s: float  # end of the first step -> canonical report
    wall: float  # the duration in wall seconds
    references: list[float]  # the mission's reference timings, wall seconds


@dataclasses.dataclass
class Timing:
    """The untraced timings of one run, in reference-speed seconds."""

    probe_setups: list[float] = dataclasses.field(default_factory=list)
    repeats: list[MissionTiming] = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0

    def mission_s(self) -> float:
        return statistics.median(m.duration for m in self.repeats)

    def tick_profile(self) -> list[float]:
        """Each tick of the mission at its median over the repetitions.
        Every repetition is the same deterministic mission, so tick k is the
        same work each time."""
        return [statistics.median(column) for column in zip(*(m.ticks for m in self.repeats))]


def _nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload: str, seconds: float, checker: Checker) -> Timing:
    """Set-up probes, then whole missions until `seconds` have passed and at
    least MIN_REPEATS missions are done. Each is timed by a Stopwatch whose
    laps are its set-up, its ticks and the tail from the last tick to the
    report."""
    mission = WORKLOADS[workload]
    timing = Timing()
    plans: list[PlanCapture] = []
    abort = [True]
    watch = reference.Stopwatch()
    step, plan_global = engine_module.step, engine_module.plan_global

    def timed_step(ws, dt, command):
        result = step(ws, dt, command)
        watch.lap()
        if abort[0]:
            raise FirstMotion
        return result

    def captured_plan_global(dmap, start, goal):
        result = plan_global(dmap, start, goal)
        plans.append(_plan_capture(dmap, start, goal, result))
        return result

    with patched([
        (engine_module, "step", timed_step),
        (engine_module, "plan_global", captured_plan_global),
    ]):
        for _ in range(SETUP_PROBES):
            watch = reference.Stopwatch()
            try:
                with watch:
                    run_mission(mission)
            except FirstMotion:
                timing.probe_setups.append(watch.scaled_laps()[0])
            else:
                raise RuntimeError("a set-up probe ended without moving the robot")
        abort[0] = False

        begin = clock()
        while clock() - begin < seconds or len(timing.repeats) < MIN_REPEATS:
            plans.clear()
            watch = reference.Stopwatch()
            with watch:
                engine, run, text, _, _ = run_mission(mission)
                watch.lap()
            if len(watch.laps) < 2:
                raise RuntimeError(f"{mission.label}: the robot never moved")
            laps = watch.scaled_laps()
            timing.repeats.append(MissionTiming(
                setup=laps[0],
                duration=sum(laps),
                ticks=laps[1:-1],
                sim_s=(len(laps) - 2) * engine.scenario.dt,
                drive_s=sum(laps[1:]),
                wall=sum(watch.laps),
                references=watch.references,
            ))
            checker.mission(len(timing.repeats) - 1, mission, engine, run, text, plans=list(plans))
    timing.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return timing


def end_to_end(timing: Timing) -> dict[str, tuple[float, str]]:
    """Medians over the run's missions; tick percentiles over the tick
    profile."""
    ticks = sorted(timing.tick_profile())
    setups = timing.probe_setups + [m.setup for m in timing.repeats]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "mission_s": (timing.mission_s(), "s"),
        "realtime_factor": (statistics.median(m.sim_s / m.drive_s for m in timing.repeats), "x"),
        "tick_p50_ms": (1000.0 * statistics.median(ticks), "ms"),
        "tick_p95_ms": (1000.0 * _nearest_rank(ticks, 0.95), "ms"),
        "peak_rss_mb": (timing.peak_rss_mb, "MB"),
    }


def wall_notes(timing: Timing) -> list[str]:
    """The untraced run's unscaled figures, for the human reader."""
    walls = [m.wall for m in timing.repeats]
    return [
        f"{len(walls)} missions, wall clock: median {statistics.median(walls):.4f} s, "
        f"range {min(walls):.4f}-{max(walls):.4f} s",
        f"reference work ({1000 * reference.REFERENCE_S} ms at reference speed): median "
        f"{1000 * statistics.median(r for m in timing.repeats for r in m.references):.4f} ms",
    ]


# --- traced run ---

# Layer time metric -> the spans whose self time it sums. Every span the
# traced run opens is listed, so these sum to the traced mission time.
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "world.parse_s": ("parse_world", "validate_world"),
    "memory.store_s": (
        "TierStore.get", "TierStore.put", "TierStore.prefetch_mission", "TierStore.flush_writeback",
    ),
    "mapgen.generate_s": ("generate_map",),
    "planner.ground_s": ("ground_actions",),
    "planner.plan_s": ("plan",),
    "navigation.plan_global_s": ("plan_global",),
    "navigation.replan_init_s": ("ReplanState",),
    "navigation.replan_s": ("replan_incremental",),
    "navigation.costmap_build_s": ("DrivingMap.__init__",),
    "navigation.costmap_update_s": ("DrivingMap.update_dynamic_layer",),
    "navigation.path_check_s": ("path_cost",),
    "navigation.follow_s": ("follow_step",),
    "simulator.lidar_s": ("lidar_scan",),
    "simulator.semantic_s": ("semantic_detect",),
    "simulator.step_s": ("step",),
    "learning.novelty_s": ("detect_novelty",),
    "learning.infer_s": ("infer_facts",),
    "learning.commit_s": ("commit_learned",),
    "mission.report_s": ("report_to_json", "trace_hash"),
    "mission.self_s": ("mission",),
}

ENGINE_NAMES = (
    "parse_world", "validate_world", "generate_map", "ground_actions", "plan", "plan_global",
    "ReplanState", "replan_incremental", "path_cost", "follow_step", "lidar_scan",
    "semantic_detect", "step", "detect_novelty", "infer_facts", "commit_learned", "trace_hash",
)
CLASS_METHODS = (
    (TierStore, ("get", "put", "prefetch_mission", "flush_writeback")),
    (DrivingMap, ("__init__", "update_dynamic_layer")),
)

# Count metrics; each must repeat exactly from one traced mission to the next.
COUNT_METRICS = (
    "memory.get_calls", "memory.put_calls", "memory.stm_hits", "memory.evictions",
    "memory.latency_units", "memory.written_back", "mapgen.grid_cells",
    "planner.grounded_actions", "planner.plan_actions", "navigation.replan_calls",
    "navigation.replan_no_path", "navigation.changed_cells", "navigation.path_swaps",
    "simulator.ticks", "simulator.beams", "learning.passes", "learning.learned",
)


@dataclasses.dataclass
class TracedMission:
    self_time: dict[str, float]
    counts: dict[str, int]
    replan_ms: list[float]
    wall: float

    def scaled(self, k: float) -> "TracedMission":
        """The same mission with every time multiplied by k."""
        return TracedMission(
            {name: t * k for name, t in self.self_time.items()}, self.counts,
            [t * k for t in self.replan_ms], self.wall * k,
        )


def trace_mission(mission: Mission, checker: Checker, index: int) -> TracedMission:
    tracer = Tracer()
    counts: Counter = Counter()
    replan_ms: list[float] = []
    plans: list[PlanCapture] = []
    repairs: list[PlanCapture] = []
    scans: list = []
    offset = checker.rng.randrange(SAMPLE_EVERY)

    def on_get(result, _duration, _args):
        if result is not None and result.served_from is TierId.STM:
            counts["memory.stm_hits"] += 1

    def on_ground(result, _duration, _args):
        counts["planner.grounded_actions"] += len(result)

    def on_plan(result, _duration, _args):
        if result is not None:
            counts["planner.plan_actions"] += len(result.actions)

    def on_plan_global(result, _duration, args):
        plans.append(_plan_capture(*args, result))

    def on_replan(result, duration, args):
        replan_ms.append(1000.0 * duration)
        counts["navigation.changed_cells"] += len(args[1])
        counts["navigation.replan_no_path"] += result is None
        if tracer.calls["replan_incremental"] % SAMPLE_EVERY == offset:
            rs = args[0]
            repairs.append(PlanCapture(rs.dmap.static, tuple(rs.dmap.dynamic), rs.start, rs.goal, result, None))

    def on_scan(result, _duration, args):
        counts["simulator.beams"] += result.beam_count
        ws = args[0]
        if ws.noise_sigma == 0.0 and tracer.calls["lidar_scan"] % SAMPLE_EVERY == offset:
            scans.append((result, _actor_disks(ws)))

    watch = reference.Stopwatch(sampling=False)

    def on_step(_result, _duration, _args):
        watch.lap()

    after = {
        "TierStore.get": on_get, "ground_actions": on_ground, "plan": on_plan,
        "plan_global": on_plan_global, "replan_incremental": on_replan, "lidar_scan": on_scan,
        "step": on_step,
    }
    replacements = [
        (engine_module, name, tracer.span(name, getattr(engine_module, name), after.get(name)))
        for name in ENGINE_NAMES
    ]
    for cls, methods in CLASS_METHODS:
        for method in methods:
            name = f"{cls.__name__}.{method}"
            replacements.append((cls, method, tracer.span(name, cls.__dict__[method], after.get(name))))
    to_json = tracer.span("report_to_json", report_to_json)

    with patched(replacements), watch:
        tracer.enter("mission")
        try:
            engine, run, text, _, _ = run_mission(mission, to_json)
        finally:
            tracer.exit()
        watch.lap()

    report = run.report
    counts["memory.evictions"] = sum(t["evictions"] for t in report.tier_stats.values())
    counts["memory.latency_units"] = sum(t["latency"] for t in report.tier_stats.values())
    counts["memory.written_back"] = report.written_back
    counts["mapgen.grid_cells"] = run.emap.metric.width * run.emap.metric.height
    counts["navigation.path_swaps"] = report.replan_count
    counts["learning.learned"] = report.learned_count
    checker.mission(index, mission, engine, run, text, plans=plans, repairs=repairs, scans=scans)

    counts["memory.get_calls"] = tracer.calls["TierStore.get"]
    counts["memory.put_calls"] = tracer.calls["TierStore.put"]
    counts["navigation.replan_calls"] = tracer.calls["replan_incremental"]
    counts["simulator.ticks"] = tracer.calls["step"]
    counts["learning.passes"] = tracer.calls["infer_facts"]
    self_time = {
        metric: sum(tracer.self_time.get(span, 0.0) for span in spans)
        for metric, spans in TIME_METRICS.items()
    }
    unlisted = set(tracer.self_time) - {s for spans in TIME_METRICS.values() for s in spans}
    if unlisted:
        raise RuntimeError(f"spans without a metric: {sorted(unlisted)}")
    return TracedMission(
        self_time=self_time,
        counts={name: counts[name] for name in COUNT_METRICS},
        replan_ms=replan_ms,
        wall=tracer.total["mission"] - tracer.excluded,
    ).scaled(watch.scale())


def import_seconds() -> float:
    """Median time for a fresh interpreter to import semnav.cli."""
    code = (
        "import time; t = time.perf_counter(); import semnav.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            capture_output=True, text=True, timeout=120, check=True, cwd=BENCH_DIR.parent,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def per_layer(workload: str, seconds: float, checker: Checker, untraced: Timing,
              first_index: int) -> tuple[dict[str, tuple[float, str]], list[str], int]:
    """Traced missions for `seconds`, timed in reference-speed seconds like
    the untraced ones; returns the layer metrics of the median traced
    mission, any consistency problems and the missions run."""
    mission = WORKLOADS[workload]
    traced: list[TracedMission] = []
    begin = clock()
    while not traced or clock() - begin < seconds:
        traced.append(trace_mission(mission, checker, first_index + len(traced)))
    problems = [
        f"traced mission {i} counts differ: {r.counts} vs {traced[0].counts}"
        for i, r in enumerate(traced[1:], 1) if r.counts != traced[0].counts
    ]
    typical = sorted(traced, key=lambda r: r.wall)[(len(traced) - 1) // 2]
    overhead = typical.wall - untraced.mission_s()
    gap = abs(sum(typical.self_time.values()) - typical.wall)
    if gap > abs(overhead) + 1e-6:
        problems.append(f"self times miss the traced mission time by {gap} s")

    counts = typical.counts
    metrics: dict[str, tuple[float, str]] = {
        name: (typical.self_time[name], "s") for name in TIME_METRICS
    }
    metrics.update(
        (name, (counts[name], "units" if name == "memory.latency_units" else "count"))
        for name in COUNT_METRICS
    )
    metrics["memory.stm_hit_ratio"] = (counts["memory.stm_hits"] / max(1, counts["memory.get_calls"]), "ratio")
    metrics["navigation.swap_ratio"] = (
        counts["navigation.path_swaps"] / max(1, counts["navigation.replan_calls"]), "ratio",
    )
    metrics["navigation.replan_p50_ms"] = (statistics.median(typical.replan_ms), "ms")
    metrics["navigation.replan_max_ms"] = (max(typical.replan_ms), "ms")
    metrics["mission.traced_s"] = (typical.wall, "s")
    metrics["cli.import_s"] = (import_seconds(), "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, problems, len(traced)
