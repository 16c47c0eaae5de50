"""The benchmark's checks pass on the program's real outputs and reject
doctored ones. Run from the repository root:

    python3 -m pytest missionbench
"""

from __future__ import annotations

import dataclasses
import signal
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import semnav.mission as engine_module  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from semnav.mapgen import generate_map  # noqa: E402
from semnav.mission import MissionEngine, goal_anchor, load_scenario  # noqa: E402
from semnav.navigation import DrivingMap, plan_global  # noqa: E402
from semnav.planner import Mission, ground_actions, plan  # noqa: E402
from semnav.simulator import lidar_scan, make_world_state  # noqa: E402
from tracer import Tracer, patched  # noqa: E402

DEMO = bench.WORKLOADS["demo"]


@pytest.fixture(scope="module")
def demo_setup():
    scenario = load_scenario(DEMO.path)
    engine = MissionEngine(scenario)
    emap = generate_map(engine.store, scenario.sensor_spec, goal_anchor(scenario.goal), scenario.resolution)
    return scenario, engine, emap


@pytest.fixture(scope="module")
def demo_run():
    return bench.run_mission(DEMO)


# --- global plan ---


def _grid_and_plan(demo_setup):
    scenario, engine, emap = demo_setup
    dmap = DrivingMap(emap.metric, engine.world.robot_radius)
    start = dmap.cell_of(engine.world.robot_spawn.position)
    goal = dmap.cell_of(engine.world.find("hall_b").position())
    path, cost = plan_global(dmap, start, goal)
    return oracles.Grid(dmap.static.tolist(), ()), start, goal, path, (cost.a, cost.b)


def test_global_plan_matches_dijkstra(demo_setup):
    grid, start, goal, path, stated = _grid_and_plan(demo_setup)
    oracles.check_path(grid, start, goal, path, stated)


def test_wrong_path_cost_is_rejected(demo_setup):
    grid, start, goal, path, (a, b) = _grid_and_plan(demo_setup)
    with pytest.raises(CheckFailed, match="states cost"):
        oracles.check_path(grid, start, goal, path, (a + 1, b))
    with pytest.raises(CheckFailed, match="Dijkstra's optimum"):
        oracles.check_path(grid, start, goal, path, None, (a, b - 1))
    with pytest.raises(CheckFailed, match="no path"):
        oracles.check_path(grid, start, goal, None)


def test_detour_and_broken_path_are_rejected(demo_setup):
    grid, start, goal, path, _ = _grid_and_plan(demo_setup)
    detour = [path[0], (path[0][0], path[0][1] + 1), path[0]] + path[1:]
    with pytest.raises(CheckFailed, match="optimum"):
        oracles.check_path(grid, start, goal, detour)
    with pytest.raises(CheckFailed, match="not allowed"):
        oracles.check_path(grid, start, goal, path[:3] + path[5:])


def test_blocked_cell_raises_the_optimum():
    open_grid = oracles.Grid([[0] * 3 for _ in range(3)], ())
    assert oracles.dijkstra_pair(open_grid, (0, 0), (2, 2)) == (0, 200)
    walled = oracles.Grid([[0] * 3 for _ in range(3)], [(1, 1)])
    # diagonals may not cut past the blocked centre
    assert oracles.dijkstra_pair(walled, (0, 0), (2, 2)) == (400, 0)
    assert oracles.dijkstra_pair(walled, (0, 0), (1, 1)) is None


# --- task plan ---


def _plan(demo_setup):
    scenario, engine, emap = demo_setup
    grounded = ground_actions(engine.templates, emap)
    state = oracles.initial_state(engine.world, engine.start_space)
    result = plan(state, Mission(goal=frozenset(scenario.goal), start_space=engine.start_space), grounded)
    return scenario, engine, grounded, result


def test_plan_replays_and_is_optimal(demo_setup):
    scenario, engine, grounded, result = _plan(demo_setup)
    oracles.check_plan(engine.world, engine.start_space, result, grounded, scenario.goal)


def test_truncated_plan_is_rejected(demo_setup):
    scenario, engine, grounded, result = _plan(demo_setup)
    truncated = dataclasses.replace(result, actions=result.actions[:-1])
    with pytest.raises(CheckFailed, match="without goal facts"):
        oracles.check_plan(engine.world, engine.start_space, truncated, grounded, scenario.goal)


def test_costlier_plan_is_rejected(demo_setup):
    scenario, engine, grounded, result = _plan(demo_setup)
    padded = dataclasses.replace(result, total_cost=result.total_cost + 1.0)
    with pytest.raises(CheckFailed, match="actions sum"):
        oracles.check_plan(engine.world, engine.start_space, padded, grounded, scenario.goal)
    # a wasteful but valid plan: wait in the lobby first
    wait = next(a for a in grounded if a.name == "wait(lobby)")
    longer = dataclasses.replace(
        result, actions=(wait,) + result.actions, total_cost=result.total_cost + wait.cost
    )
    with pytest.raises(CheckFailed, match="cheapest plan"):
        oracles.check_plan(engine.world, engine.start_space, longer, grounded, scenario.goal)


# --- lidar ---


def test_lidar_matches_geometry_and_rejects_a_wrong_beam(demo_setup):
    scenario, engine, _ = demo_setup
    ws = make_world_state(engine.world, 0, 0.0)
    scan = lidar_scan(ws, scenario.sensor_spec)
    segments = oracles.static_segments(engine.world)
    disks = bench._actor_disks(ws)
    beams = range(len(scan.ranges))
    oracles.check_lidar(scan, scenario.sensor_spec.lidar2d.fov, beams, segments, disks)
    ranges = list(scan.ranges)
    ranges[90] += 1e-6
    bent = dataclasses.replace(scan, ranges=tuple(ranges))
    with pytest.raises(CheckFailed, match="beam 90"):
        oracles.check_lidar(bent, scenario.sensor_spec.lidar2d.fov, beams, segments, disks)


# --- trace ---


def _trace(rows):
    return [f"{t} {x:.9f} {y:.9f} {h:.9f} {v:.9f} {w:.9f} 0" for t, x, y, h, v, w in rows]


def test_trace_within_limits_passes():
    lines = _trace([(0, 1.0, 1.0, 0.0, 0.0, 0.0), (1, 1.1, 1.0, 0.15, 1.0, 1.5), (2, 1.15, 1.0, 0.15, 0.5, 0.0)])
    oracles.check_trace(lines, 0.1, 0.15, [(0, 0), (2, 0), (2, 2), (0, 2)])


def test_pose_jump_is_rejected():
    lines = _trace([(0, 1.0, 1.0, 0.0, 0.0, 0.0), (1, 1.3, 1.0, 0.0, 1.0, 0.0)])
    with pytest.raises(CheckFailed, match="more than v_max"):
        oracles.check_trace(lines, 0.1, 0.1)
    spun = _trace([(0, 1.0, 1.0, 0.0, 0.0, 0.0), (1, 1.0, 1.0, 0.5, 0.0, 1.5)])
    with pytest.raises(CheckFailed, match="more than omega_max"):
        oracles.check_trace(spun, 0.1, 0.0)


def test_distance_and_goal_mismatch_are_rejected():
    lines = _trace([(0, 1.0, 1.0, 0.0, 0.0, 0.0), (1, 1.1, 1.0, 0.0, 1.0, 0.0)])
    with pytest.raises(CheckFailed, match="trace sums"):
        oracles.check_trace(lines, 0.1, 0.2)
    with pytest.raises(CheckFailed, match="outside the goal"):
        oracles.check_trace(lines, 0.1, 0.1, [(5, 5), (6, 5), (6, 6), (5, 6)])


# --- store ---


def _tiers(stm_units):
    return {
        "STM": (12, [(f"env/e{i}", 1, 1, "authored") for i in range(stm_units)]),
        "ONDEMAND": (64, [("env/learned_0", 2, 1, "learned")]),
        "NETWORK": (128, []),
        "CLOUD": (None, [("env/learned_0", 2, 1, "learned")]),
    }


def test_over_capacity_tier_is_rejected():
    oracles.check_store(_tiers(12), 1)
    with pytest.raises(CheckFailed, match="capacity 12"):
        oracles.check_store(_tiers(13), 1)


def test_missing_write_back_is_rejected():
    tiers = _tiers(3)
    tiers["CLOUD"] = (None, [])
    with pytest.raises(CheckFailed, match="not in CLOUD"):
        oracles.check_store(tiers, 1)


# --- whole missions ---


def test_real_mission_passes_every_check(demo_run):
    engine, run, text, _, _ = demo_run
    checker = bench.Checker(0)
    checker.mission(0, DEMO, engine, run, text)
    checker.finish()
    assert checker.failures == []


def test_differing_report_is_rejected(demo_run):
    engine, run, text, _, _ = demo_run
    checker = bench.Checker(0)
    checker.mission(0, DEMO, engine, run, text)
    checker.mission(1, DEMO, engine, run, text.replace('"ticks_used": 141', '"ticks_used": 142'))
    assert [index for index, _ in checker.failures] == [1]
    assert "differs" in checker.failures[0][1]


def test_wrong_global_plan_fails_its_mission(demo_setup, demo_run):
    _, engine, emap = demo_setup
    dmap = DrivingMap(emap.metric, engine.world.robot_radius)
    start = dmap.cell_of(engine.world.robot_spawn.position)
    goal = dmap.cell_of(engine.world.find("hall_b").position())
    path, cost = plan_global(dmap, start, goal)
    capture = bench.PlanCapture(dmap.static, (), start, goal, path, (cost.a + 2, cost.b))
    checker = bench.Checker(0)
    checker.mission(7, DEMO, *demo_run[:3], plans=[capture])
    checker.finish()
    assert [index for index, _ in checker.failures] == [7]


def test_patched_names_are_restored_after_an_error():
    original = engine_module.step
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with patched([(engine_module, "step", tracer.span("step", original))]):
            assert engine_module.step is not original
            raise ZeroDivisionError
    assert engine_module.step is original


def test_self_times_sum_to_the_root_span():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    wrapped = tracer.span("leaf", leaf)
    tracer.enter("root")
    wrapped()
    with tracer.untimed():
        sum(range(1000))
    wrapped()
    tracer.exit()
    assert tracer.calls["leaf"] == 2
    covered = tracer.self_time["root"] + tracer.self_time["leaf"] + tracer.excluded
    assert covered == pytest.approx(tracer.total["root"], abs=1e-9)


def test_laps_scale_by_the_reference_around_them():
    watch = reference.Stopwatch()
    ref = reference.REFERENCE_S
    watch.laps = [1.0, 1.0, 1.0]
    watch.references = [ref, ref, 2 * ref, 2 * ref]
    watch.bounds = [0, 1, 2, 3]
    # Each lap takes the median of the two references on each side of it.
    assert watch.scaled_laps() == pytest.approx([1.0, 2 / 3, 0.5])
    assert watch.scale() == pytest.approx((1.0 + 2 / 3 + 0.5) / 3)


def test_a_long_lap_scales_by_the_references_inside_it():
    watch = reference.Stopwatch()
    ref = reference.REFERENCE_S
    watch.laps = [1.0]
    watch.references = [ref, 2 * ref, 2 * ref, 2 * ref, ref]
    watch.bounds = [0, 4]
    assert watch.scaled_laps() == pytest.approx([0.5])


def test_sampling_stops_and_keeps_reference_time_out_of_laps():
    with reference.Stopwatch() as watch:
        begin = bench.clock()
        while bench.clock() - begin < 4 * reference.SAMPLE_INTERVAL:
            pass
        watch.lap()
    assert len(watch.references) > 3  # samples inside the lap
    assert watch.laps[0] < bench.clock() - begin - sum(watch.references[1:-1])
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
