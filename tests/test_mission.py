"""Mission orchestration: scenario files, pipeline order, failure codes,
report invariants, and topology-level replanning."""

from __future__ import annotations

import configparser
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from semnav import navigation
from semnav.geometry import Point2, Pose2
from semnav.mapgen import FREE, OCCUPIED, MetricLayer, episodic_log
from semnav.memory import TierId, TierStore, UnknownSymbolError
from semnav.navigation import (
    DrivingMap,
    ReplanState,
    cells_to_points,
    path_cost,
    path_reads,
    replan_incremental,
)
from semnav.mission import (
    FAIL_TIMEOUT,
    FAIL_UNKNOWN_GOAL,
    FAIL_UNREACHABLE,
    FAIL_UNSOLVABLE,
    MissionEngine,
    Scenario,
    ScenarioError,
    data_dir,
    execute_mission,
    goal_anchor,
    initial_facts,
    load_scenario,
    report_to_json,
    resolve_input,
    seed_store,
)
from semnav.planner import Fact, ground_actions, parse_behavior_db
from semnav.world import parse_world

from identity_matrix import expected_line, matrix_line

DEMO_SCENARIO = data_dir() / "demo.scenario"


def write_scenario(tmp_path: Path, *, world="convention_center.world", goal="at(robot,hall_b)",
                   start="lobby", seed=7, max_ticks=2200, noise="0.0",
                   semantic=True, extra="") -> Path:
    semantic_block = "semantic.range = 5.0\nsemantic.fov = 1.2\n" if semantic else ""
    text = (
        f"[world]\npath = {world}\n\n"
        f"[sensors]\nlidar.range = 6.0\nlidar.fov = 3.141592653589793\nlidar.beams = 181\n"
        f"{semantic_block}\n"
        f"[mission]\ngoal = {goal}\nstart = {start}\n\n"
        f"[sim]\nseed = {seed}\ndt = 0.1\nmax_ticks = {max_ticks}\nnoise_sigma = {noise}\n"
        f"{extra}"
    )
    path = tmp_path / "case.scenario"
    path.write_text(text)
    return path


# --- scenario loading ---

def test_demo_scenario_loads_with_expected_values():
    sc = load_scenario(DEMO_SCENARIO)
    assert sc.world_path.name == "convention_center.world"
    assert sc.sensor_spec.lidar2d.beam_count == 181
    assert sc.sensor_spec.lidar2d.range_m == 6.0
    assert sc.sensor_spec.semantic3d.range_m == 5.0
    assert sc.tier_configs[TierId.STM].capacity == 12
    assert sc.tier_configs[TierId.CLOUD].capacity is None
    assert sc.tier_configs[TierId.NETWORK].capacity == 128
    assert [str(f.predicate) for f in sc.goal] == ["at"]
    assert sc.start_space == "lobby"
    assert (sc.seed, sc.dt, sc.max_ticks, sc.noise_sigma) == (7, 0.1, 2200, 0.0)


def test_missing_scenario_file_raises_filenotfound():
    with pytest.raises(FileNotFoundError):
        load_scenario(Path("/no/such/place.scenario"))


def test_malformed_ini_raises_configparser_error(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("this is not an ini file\n")
    with pytest.raises(configparser.Error):
        load_scenario(bad)


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("[sim]", "[simulate]"),           # unknown section
        lambda t: t.replace("seed = 7", "seed = 7\nwarp_speed = 9"),  # unknown key
        lambda t: t.replace("max_ticks = 2200", "max_ticks = soon"),  # bad int
        lambda t: t.replace("lidar.beams = 181\n", ""),        # incomplete lidar
        lambda t: t.replace("goal = at(robot,hall_b)", "goal ="),  # empty goal
        lambda t: t.replace("at(robot,hall_b)", "at(robot,?x)"),   # non-ground goal
        lambda t: t.replace("[mission]\ngoal = at(robot,hall_b)\n", "[mission]\n"),
    ],
)
def test_bad_scenario_content_raises_scenario_error(tmp_path, mutation):
    text = DEMO_SCENARIO.read_text()
    sick = tmp_path / "sick.scenario"
    sick.write_text(mutation(text))
    with pytest.raises(ScenarioError):
        load_scenario(sick)


def test_scenario_rejects_nonpositive_sim_values(tmp_path):
    for field, value in (("dt", "0"), ("max_ticks", "-3"), ("noise_sigma", "-0.1")):
        text = DEMO_SCENARIO.read_text().replace(
            {"dt": "dt = 0.1", "max_ticks": "max_ticks = 2200", "noise_sigma": "noise_sigma = 0.0"}[field],
            f"{field} = {value}",
        )
        path = tmp_path / f"{field}.scenario"
        path.write_text(text)
        with pytest.raises(ScenarioError):
            load_scenario(path)


def test_tier_overrides_merge_with_defaults(tmp_path):
    path = write_scenario(
        tmp_path, extra="\n[tiers]\nstm.capacity = 3\nnetwork.latency = 9\n"
    )
    sc = load_scenario(path)
    assert sc.tier_configs[TierId.STM].capacity == 3
    assert sc.tier_configs[TierId.STM].latency == 0  # default kept
    assert sc.tier_configs[TierId.NETWORK].latency == 9
    assert sc.tier_configs[TierId.NETWORK].capacity == 256  # default kept


def test_resolve_input_prefers_scenario_directory(tmp_path):
    local = tmp_path / "behaviors.txt"
    local.write_text("action noop(?s:space)\npre:\nadd: done(?s)\ndel:\ncost: 1\n")
    assert resolve_input("behaviors.txt", tmp_path) == local
    # falls back to the bundled data directory when absent locally
    assert resolve_input("behaviors.txt", tmp_path / "elsewhere") == data_dir() / "behaviors.txt"
    with pytest.raises(FileNotFoundError):
        resolve_input("never_written.txt", tmp_path)


def test_data_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SEMNAV_DATA_DIR", str(tmp_path))
    assert data_dir() == tmp_path


# --- store seeding and symbolic state ---

@pytest.fixture(scope="module")
def demo_world():
    return parse_world((data_dir() / "convention_center.world").read_text())


def test_seed_store_holds_world_and_behaviors(demo_world):
    templates = parse_behavior_db((data_dir() / "behaviors.txt").read_text())
    store = seed_store(demo_world, templates)
    cloud_keys = {e.key for e in store.entries(TierId.CLOUD)}
    assert "env/lobby" in cloud_keys and "env/booth_1" in cloud_keys
    assert "behavior/navigate" in cloud_keys
    entry = next(e for e in store.entries(TierId.CLOUD) if e.key == "env/lobby")
    assert entry.provenance == "authored" and entry.version == 1


def test_initial_facts_symmetrize_connectivity(demo_world):
    store = seed_store(demo_world, [])
    facts = initial_facts(store, "lobby")
    assert Fact("at", ("robot", "lobby")) in facts
    assert Fact("connected", ("lobby", "hall_a")) in facts
    assert Fact("connected", ("hall_a", "lobby")) in facts  # symmetrized
    assert Fact("inside", ("booth_1", "hall_a")) in facts
    assert Fact("inside", ("hall_a", "booth_1")) not in facts  # containment stays directed


def test_goal_anchor_picks_last_environment_symbol():
    assert goal_anchor((Fact("at", ("robot", "hall_b")),)) == "hall_b"
    assert goal_anchor((Fact("inspected", ("booth_1",)), Fact("at", ("robot", "hall_a")))) == "hall_a"
    with pytest.raises(UnknownSymbolError):
        goal_anchor((Fact("docked", ("robot",)),))


# --- mission outcomes ---

@pytest.fixture(scope="module")
def demo_run():
    return execute_mission(load_scenario(DEMO_SCENARIO))


def test_demo_mission_succeeds(demo_run):
    r = demo_run.report
    assert r.success and r.failure_code is None
    assert r.collisions_static == 0
    assert r.replan_count >= 1
    assert r.learned_count >= 1
    assert r.written_back >= 1
    assert 0 < r.ticks_used < 2200
    assert r.distance_m > 10.0  # lobby -> hall_a -> hall_b spans the building


def test_demo_learned_entries_reach_cloud(demo_run):
    learned = [
        e for e in demo_run.store.entries(TierId.CLOUD) if e.provenance == "learned"
    ]
    assert any(e.key.startswith("env/learned_") for e in learned)
    new_objects = [
        e["subject"] for e in demo_run.report.episodes if e["kind"] == "NOVEL_OBJECT"
    ]
    assert new_objects  # the visitors were noticed


def test_demo_pipeline_order_in_episodic_layer(demo_run):
    kinds = [e["kind"] for e in demo_run.report.episodes]
    assert kinds[0] == "MISSION_START"
    assert kinds[-1] == "MISSION_COMPLETE"
    waypoints = [e["subject"] for e in demo_run.report.episodes if e["kind"] == "WAYPOINT_REACHED"]
    assert waypoints == ["hall_a", "hall_b"]  # plan order
    ticks = [e["tick"] for e in demo_run.report.episodes]
    assert ticks == sorted(ticks)


def test_demo_distance_matches_trace_integral(demo_run):
    dt = demo_run.scenario.dt
    total = 0.0
    for record in demo_run.world_state.trace:
        tick, _x, _y, _theta, v, _omega, _c = record.split()
        if int(tick) > 0:
            total += abs(float(v)) * dt
    assert abs(total - demo_run.report.distance_m) < 1e-6


def test_demo_report_counters_consistent(demo_run):
    r = demo_run.report
    replans = sum(1 for e in r.episodes if e["kind"] == "REPLAN")
    assert replans == r.replan_count
    assert r.ticks_used == len(demo_run.world_state.trace) - 1  # trace holds tick 0
    assert r.tier_stats["CLOUD"]["hits"] > 0  # prefetch pulled from the cloud


def test_trivial_mission_goal_already_satisfied(tmp_path):
    sc = load_scenario(write_scenario(tmp_path, goal="at(robot,lobby)", start="lobby"))
    run = execute_mission(sc)
    assert run.report.success
    assert run.report.ticks_used == 0
    assert run.behavior_plan.actions == ()
    kinds = [e["kind"] for e in run.report.episodes]
    assert kinds[0] == "MISSION_START" and kinds[-1] == "MISSION_COMPLETE"
    assert run.report.distance_m == 0.0


def test_unknown_goal_symbol_fails_before_any_ticks(tmp_path):
    sc = load_scenario(write_scenario(tmp_path, goal="at(robot,atrium_9)"))
    report = execute_mission(sc).report
    assert not report.success
    assert report.failure_code == FAIL_UNKNOWN_GOAL
    assert report.ticks_used == 0
    assert report.episodes == ()


def test_goal_no_action_can_achieve_is_unsolvable(tmp_path):
    # wall_south exists in the store, but no behavior moves the robot onto it
    sc = load_scenario(write_scenario(tmp_path, goal="at(robot,wall_south)"))
    report = execute_mission(sc).report
    assert not report.success
    assert report.failure_code == FAIL_UNSOLVABLE
    assert report.ticks_used == 0
    kinds = [e["kind"] for e in report.episodes]
    assert kinds == ["MISSION_START"]


def test_multi_fact_goal_navigate_and_inspect(tmp_path):
    sc = load_scenario(
        write_scenario(tmp_path, goal="at(robot,hall_a), inspected(booth_1)", start="lobby")
    )
    run = execute_mission(sc)
    assert run.report.success
    names = [a.name for a in run.behavior_plan.actions]
    assert "navigate(lobby,hall_a)" in names
    assert "inspect(booth_1,hall_a)" in names


DEMO_GROUNDED = [
    "navigate(hall_a,hall_b)", "navigate(hall_a,lobby)", "navigate(hall_b,hall_a)",
    "navigate(hall_b,lobby)", "navigate(lobby,hall_a)", "navigate(lobby,hall_b)",
    "inspect(booth_1,hall_a)", "inspect(booth_1,hall_b)", "inspect(booth_1,lobby)",
    "inspect(booth_2,hall_a)", "inspect(booth_2,hall_b)", "inspect(booth_2,lobby)",
    "inspect(booth_3,hall_a)", "inspect(booth_3,hall_b)", "inspect(booth_3,lobby)",
    "inspect(booth_4,hall_a)", "inspect(booth_4,hall_b)", "inspect(booth_4,lobby)",
    "wait(hall_a)", "wait(hall_b)", "wait(lobby)",
]


def test_demo_grounded_action_names_are_pinned():
    # plan tie-breaks and reports compare action names, so their text and
    # order must not move when actions carry their template and arguments
    engine = MissionEngine(load_scenario(DEMO_SCENARIO))
    engine.build_map()
    grounded = ground_actions(engine.templates, engine.emap)
    assert [a.name for a in grounded] == DEMO_GROUNDED
    assert all(a.name == f"{a.template}({','.join(a.args)})" for a in grounded)



def test_demo_map_reads_each_closure_entry_once(monkeypatch):
    # the map is built from the entries the prefetch fetched: one store read
    # per key of the goal's 17-entry relation closure, in key order, and no
    # second pass over them
    engine = MissionEngine(load_scenario(DEMO_SCENARIO))
    keys: list[str] = []
    get = TierStore.get

    def get_spy(self, key):
        keys.append(key)
        return get(self, key)

    monkeypatch.setattr(TierStore, "get", get_spy)
    engine.build_map()
    assert len(keys) == 17
    assert keys == sorted(set(keys))
    assert all(key.startswith("env/") for key in keys)

def test_one_parameter_navigate_is_applied_without_driving(tmp_path):
    # only navigate(from, to), two arguments, is driven; another navigate
    # template is a symbolic action like inspect or wait
    (tmp_path / "one_param.txt").write_text(
        "action navigate(?to:space)\npre: at(robot,lobby)\nadd: at(robot,?to)\n"
        "del: at(robot,lobby)\ncost: 1\n"
    )
    path = write_scenario(tmp_path, goal="at(robot,hall_b)", start="lobby")
    path.write_text(path.read_text().replace("[world]\n", "[world]\nbehaviors = one_param.txt\n"))
    run = execute_mission(load_scenario(path))
    assert [(a.template, a.args) for a in run.behavior_plan.actions] == [("navigate", ("hall_b",))]
    assert run.report.success
    assert run.report.ticks_used == 0
    assert run.report.distance_m == 0.0
    kinds = [e["kind"] for e in run.report.episodes]
    assert "WAYPOINT_REACHED" not in kinds and "MISSION_COMPLETE" in kinds


def test_start_space_contradicting_spawn_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        MissionEngine(load_scenario(write_scenario(tmp_path, goal="at(robot,hall_b)", start="hall_b")))
    with pytest.raises(ScenarioError):
        MissionEngine(load_scenario(write_scenario(tmp_path, start="wall_south")))


# --- topology-level replanning ---

# room_b is a sealed island between room_a and room_d, yet its declared
# topology edges make the route through it the cheapest plan; corridor
# room_c along the top is the physically drivable alternative.
DETOUR_WORLD = """
<world name="detour">
  <space>
    <symbol name="room_a" class="space"/>
    <explicit2d><footprint>0,0 4,0 4,4 0,4</footprint></explicit2d>
    <relation pred="connected" object="room_b"/>
    <relation pred="connected" object="room_c"/>
    <relation pred="adjacent" object="room_c"/>
  </space>
  <space>
    <symbol name="room_b" class="space"/>
    <explicit2d><footprint>4,0 8,0 8,4 4,4</footprint></explicit2d>
    <relation pred="connected" object="room_d"/>
  </space>
  <space>
    <symbol name="room_d" class="space"/>
    <explicit2d><footprint>8,0 12,0 12,4 8,4</footprint></explicit2d>
  </space>
  <space>
    <symbol name="room_c" class="space"/>
    <explicit2d><footprint>0,4 12,4 12,7 0,7</footprint></explicit2d>
    <relation pred="connected" object="room_d"/>
  </space>
  <element>
    <symbol name="wall_s" class="wall"/>
    <explicit2d><footprint>0,0 12,0 12,0.2 0,0.2</footprint></explicit2d>
    <relation pred="inside" object="room_a"/>
  </element>
  <element>
    <symbol name="wall_n" class="wall"/>
    <explicit2d><footprint>0,6.8 12,6.8 12,7 0,7</footprint></explicit2d>
    <relation pred="inside" object="room_c"/>
  </element>
  <element>
    <symbol name="wall_w" class="wall"/>
    <explicit2d><footprint>0,0.2 0.2,0.2 0.2,6.8 0,6.8</footprint></explicit2d>
    <relation pred="inside" object="room_a"/>
  </element>
  <element>
    <symbol name="wall_e" class="wall"/>
    <explicit2d><footprint>11.8,0.2 12,0.2 12,6.8 11.8,6.8</footprint></explicit2d>
    <relation pred="inside" object="room_d"/>
  </element>
  <element>
    <symbol name="wall_ab" class="wall"/>
    <explicit2d><footprint>3.9,0.2 4.1,0.2 4.1,4.1 3.9,4.1</footprint></explicit2d>
    <relation pred="inside" object="room_a"/>
  </element>
  <element>
    <symbol name="wall_bd" class="wall"/>
    <explicit2d><footprint>7.9,0.2 8.1,0.2 8.1,4.1 7.9,4.1</footprint></explicit2d>
    <relation pred="inside" object="room_d"/>
  </element>
  <element>
    <symbol name="ceiling_b" class="wall"/>
    <explicit2d><footprint>4.1,3.9 7.9,3.9 7.9,4.1 4.1,4.1</footprint></explicit2d>
    <relation pred="inside" object="room_b"/>
  </element>
  <element>
    <symbol name="ceiling_a1" class="wall"/>
    <explicit2d><footprint>0.2,3.9 1.2,3.9 1.2,4.1 0.2,4.1</footprint></explicit2d>
    <relation pred="inside" object="room_a"/>
  </element>
  <element>
    <symbol name="ceiling_a2" class="wall"/>
    <explicit2d><footprint>2.8,3.9 3.9,3.9 3.9,4.1 2.8,4.1</footprint></explicit2d>
    <relation pred="inside" object="room_a"/>
  </element>
  <element>
    <symbol name="ceiling_d1" class="wall"/>
    <explicit2d><footprint>8.1,3.9 9.2,3.9 9.2,4.1 8.1,4.1</footprint></explicit2d>
    <relation pred="inside" object="room_d"/>
  </element>
  <element>
    <symbol name="ceiling_d2" class="wall"/>
    <explicit2d><footprint>10.8,3.9 11.8,3.9 11.8,4.1 10.8,4.1</footprint></explicit2d>
    <relation pred="inside" object="room_d"/>
  </element>
  <robot spawn="2 2 0" radius="0.25"/>
</world>
"""

TWO_ROOM_SEALED = """
<world name="sealed_pair">
  <space>
    <symbol name="room_a" class="space"/>
    <explicit2d><footprint>0,0 4,0 4,4 0,4</footprint></explicit2d>
    <relation pred="connected" object="room_b"/>
  </space>
  <space>
    <symbol name="room_b" class="space"/>
    <explicit2d><footprint>4,0 8,0 8,4 4,4</footprint></explicit2d>
  </space>
  <element>
    <symbol name="wall_mid" class="wall"/>
    <explicit2d><footprint>3.9,0 4.1,0 4.1,4 3.9,4</footprint></explicit2d>
    <relation pred="inside" object="room_a"/>
  </element>
  <robot spawn="2 2 0" radius="0.25"/>
</world>
"""


def _scenario_for(tmp_path: Path, world_text: str, goal: str, max_ticks: int) -> Scenario:
    world_file = tmp_path / "test.world"
    world_file.write_text(world_text)
    return load_scenario(
        write_scenario(
            tmp_path, world=str(world_file), goal=goal, start="room_a",
            max_ticks=max_ticks, semantic=False,
        )
    )


def test_blocked_edge_triggers_task_level_replan_with_detour(tmp_path):
    sc = _scenario_for(tmp_path, DETOUR_WORLD, "at(robot,room_d)", 1200)
    run = execute_mission(sc)
    r = run.report
    assert r.success, r.failure_code
    assert r.replan_count >= 1
    # the first plan takes the cheaper declared route through the island
    assert [a.name for a in run.behavior_plan.actions] == [
        "navigate(room_a,room_b)",
        "navigate(room_b,room_d)",
    ]
    waypoints = [e["subject"] for e in r.episodes if e["kind"] == "WAYPOINT_REACHED"]
    assert waypoints == ["room_c", "room_d"]  # the detour actually driven
    assert any(e["kind"] == "REPLAN" for e in r.episodes)
    assert r.collisions_static == 0


def test_sealed_edge_without_detour_is_unreachable(tmp_path):
    sc = _scenario_for(tmp_path, TWO_ROOM_SEALED, "at(robot,room_b)", 1200)
    report = execute_mission(sc).report
    assert not report.success
    assert report.failure_code == FAIL_UNREACHABLE
    assert report.replan_count == 1  # the one failed task-level replan
    assert report.ticks_used < 1200  # gave up well before the timeout


def test_timeout_reports_distinct_failure_code(tmp_path):
    sc = _scenario_for(tmp_path, TWO_ROOM_SEALED, "at(robot,room_b)", 30)
    report = execute_mission(sc).report
    assert not report.success
    assert report.failure_code == FAIL_TIMEOUT
    assert report.ticks_used == 30


NOISE_TICK_CAP = 240


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("sigma", ["0.05", "0.1", "0.2", "0.5"])
def test_noisy_mission_ends_within_its_tick_cap(tmp_path, sigma, seed):
    # Under any lidar noise a mission returns a report: it arrives, runs out
    # of ticks, or gives the goal up as unreachable; it never raises or spins.
    path = write_scenario(tmp_path, seed=seed, noise=sigma, max_ticks=NOISE_TICK_CAP)
    report = execute_mission(load_scenario(path)).report
    assert report.ticks_used <= NOISE_TICK_CAP
    assert report.failure_code in (None, FAIL_UNREACHABLE, FAIL_TIMEOUT)


# --- report serialization ---

NOISY_SCENARIO = Path(__file__).resolve().parents[1] / "missionbench" / "scenarios" / "noisy.scenario"


def test_semantic_frames_are_taken_only_at_action_boundaries(monkeypatch):
    # The learning pass observes where an action ended; the drive loop takes
    # no frames of its own. Each pass detects once and infers once.
    import semnav.mission as mission_module

    calls = {"semantic_detect": 0, "infer_facts": 0}

    def counted(name):
        original = getattr(mission_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mission_module, name, counted(name))
    report = execute_mission(load_scenario(DEMO_SCENARIO)).report
    assert calls == {"semantic_detect": 2, "infer_facts": 2}
    # the same report as the identity table's demo row
    assert matrix_line("demo", report) == expected_line("demo")


def test_demo_recomputes_wall_ranges_only_where_the_robot_moved(monkeypatch):
    # lidar_scan reuses the last scan's wall ranges at a bit-identical pose:
    # on the demo the robot stands still for 34 of its 142 scans.
    import semnav.mission as mission_module
    from semnav.simulator import Walls

    poses, recomputed = [], []
    scan, nearest_hits = mission_module.lidar_scan, Walls.nearest_hits

    def scan_spy(ws, spec):
        pose = ws.pose
        poses.append(np.array((pose.x, pose.y, pose.heading)).tobytes())
        return scan(ws, spec)

    def nearest_hits_spy(self, *args):
        recomputed.append(poses[-1])
        return nearest_hits(self, *args)

    monkeypatch.setattr(mission_module, "lidar_scan", scan_spy)
    monkeypatch.setattr(Walls, "nearest_hits", nearest_hits_spy)
    execute_mission(load_scenario(DEMO_SCENARIO))
    moved = [pose for i, pose in enumerate(poses) if i == 0 or pose != poses[i - 1]]
    assert recomputed == moved
    assert (len(poses), len(recomputed)) == (142, 108)


@pytest.mark.parametrize("path, scans", [(DEMO_SCENARIO, 142), (NOISY_SCENARIO, 136)],
                         ids=["demo", "noisy"])
def test_each_tick_is_scanned_once(monkeypatch, path, scans):
    # A leg starts at the tick where the last one ended, which that leg has
    # already scanned and folded: every tick the drive loop reaches is
    # scanned exactly once, so a noisy lidar draws one noise block per tick.
    import semnav.mission as mission_module

    ticks = []
    scan = mission_module.lidar_scan

    def scan_spy(ws, spec):
        ticks.append(ws.tick)
        return scan(ws, spec)

    monkeypatch.setattr(mission_module, "lidar_scan", scan_spy)
    execute_mission(load_scenario(path))
    assert ticks == list(range(scans))


def test_each_leg_searches_from_scratch_once_before_its_first_step(monkeypatch):
    # plan_global is a leg's one search before the robot moves: the leg's
    # own ReplanState searches nothing until its first repair, and the first
    # path driven is plan_global's.
    import semnav.mission as mission_module

    events = []
    drive_to, plan_global = MissionEngine._drive_to, mission_module.plan_global
    search, step = navigation._search, MissionEngine._step
    follow_step = mission_module.follow_step

    def drive_to_spy(self, destination):
        events.append(("leg", self.dmap))
        return drive_to(self, destination)

    def plan_global_spy(dmap, start, goal):
        result = plan_global(dmap, start, goal)
        events.append(("plan", result))
        return result

    def search_spy(dmap, start, goal):
        events.append(("scratch", None))
        return search(dmap, start, goal)

    def follow_step_spy(pose, waypoints):
        events.append(("follow", waypoints))
        return follow_step(pose, waypoints)

    def step_spy(self, command):
        events.append(("step", None))
        step(self, command)

    monkeypatch.setattr(MissionEngine, "_drive_to", drive_to_spy)
    monkeypatch.setattr(mission_module, "plan_global", plan_global_spy)
    monkeypatch.setattr(navigation, "_search", search_spy)
    monkeypatch.setattr(mission_module, "follow_step", follow_step_spy)
    monkeypatch.setattr(MissionEngine, "_step", step_spy)
    report = execute_mission(load_scenario(DEMO_SCENARIO)).report
    legs = []
    for kind, value in events:
        if kind == "leg":
            legs.append([])
        legs[-1].append((kind, value))
    assert len(legs) == 2
    for leg in legs:
        kinds = [kind for kind, _ in leg]
        (_, dmap), _, (_, (path, _)), (_, waypoints) = leg[:4]
        assert kinds[:kinds.index("step") + 1] == ["leg", "scratch", "plan", "follow", "step"]
        assert waypoints == cells_to_points(dmap, path)
    # the same report as the identity table's demo row
    assert matrix_line("demo", report) == expected_line("demo")


def test_report_json_is_canonical(demo_run):
    text = report_to_json(demo_run.report)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["success"] is True
    assert list(payload) == sorted(payload)
    assert payload["replan_count"] == demo_run.report.replan_count
    assert text == report_to_json(demo_run.report)  # stable


def test_mission_never_writes_static_costmap():
    # plan checks compare against the static layer as built, so a mission
    # may change the dynamic layer only
    engine = MissionEngine(load_scenario(DEMO_SCENARIO))
    assert engine.run().report.success
    assert engine.dmap.dynamic
    fresh = DrivingMap(engine.emap.metric, engine.world.robot_radius)
    assert engine.dmap.static.dtype == fresh.static.dtype
    assert np.array_equal(engine.dmap.static, fresh.static)


# --- the drive loop's path check ---

def driving_map(rng, width, height, obstacle_rate):
    cells = np.array(
        [[OCCUPIED if rng.random() < obstacle_rate else FREE for _ in range(width)]
         for _ in range(height)],
        dtype=np.uint8,
    )
    metric = MetricLayer(resolution=0.1, origin=Point2(0.0, 0.0), width=width, height=height,
                         cells=cells)
    return DrivingMap(metric, robot_radius=0.15)


def nearest_cell(dmap, path, pose):
    """Index of the path cell whose center is nearest the pose, the first of equals."""
    return min(
        (dmap.center_of(*cell).distance_to(pose.position), i) for i, cell in enumerate(path)
    )[1]


def test_path_check_equals_path_cost_of_the_remaining_stretch():
    # _ahead_is_blocked re-costs the remaining stretch only when a dynamic
    # cell that one of its moves reads could block it; on planner-extracted
    # paths its answer must be path_cost's, wherever the robot stands and
    # whatever the dynamic layer holds, across path swaps.
    engine = MissionEngine(load_scenario(DEMO_SCENARIO))
    rng = random.Random(2718)
    seen = Counter()
    for trial in range(120):
        width, height = rng.choice(((16, 16), (23, 7), (7, 23)))
        dmap = driving_map(rng, width, height, obstacle_rate=0.1)
        engine.dmap = dmap
        free = [(c, r) for r in range(height) for c in range(width) if dmap.traversable(c, r)]
        start, goal = rng.choice(free), rng.choice(free)
        rs = ReplanState(dmap, start, goal)
        path = replan_incremental(rs, set())  # the first search; the swaps below search again
        if path is None:
            continue
        reads, waypoints = path_reads(path), cells_to_points(dmap, path)
        pending, last = set(), 0
        for _ in range(25):
            for _ in range(rng.randint(0, 3)):  # toggles mostly on or beside the path
                col, row = rng.choice(path)
                cell = (col + rng.randint(-1, 1), row + rng.randint(-1, 1))
                if rng.random() < 0.2:
                    cell = (rng.randrange(width), rng.randrange(height))
                if not dmap.in_bounds(*cell):
                    continue
                if dmap.dynamic.pop(cell, None) is None:
                    dmap.dynamic[cell] = 10**9
                pending.add(cell)
            center = dmap.center_of(*rng.choice(path))  # near a path cell, or anywhere
            x, y = center.x + rng.uniform(-0.1, 0.1), center.y + rng.uniform(-0.1, 0.1)
            if rng.random() < 0.2:
                x, y = rng.uniform(-0.5, 0.1 * width + 0.5), rng.uniform(-0.5, 0.1 * height + 0.5)
            pose = Pose2(x, y, rng.uniform(-math.pi, math.pi))
            nearest = nearest_cell(dmap, path, pose)
            expected = path_cost(dmap, path[nearest:]) is None
            blocked = engine._ahead_is_blocked(path, reads, waypoints, pose)
            assert blocked == expected, f"trial {trial}"
            seen["blocked" if expected else "clear"] += 1
            seen["backward"] += nearest < last
            seen["one_cell"] += nearest == len(path) - 1
            last = nearest
            if rng.random() < 0.2:  # swap in the repaired path, or an equal copy
                repaired = replan_incremental(rs, pending)
                pending = set()
                path = repaired if repaired is not None else list(path)
                reads, waypoints = path_reads(path), cells_to_points(dmap, path)
                seen["swap"] += 1
    assert min(seen[k] for k in ("blocked", "clear", "backward", "one_cell", "swap")) > 0, seen


def test_path_check_sees_a_diagonal_blocked_only_through_a_corner_cell():
    engine = MissionEngine(load_scenario(DEMO_SCENARIO))
    engine.dmap = dmap = driving_map(random.Random(0), 8, 8, obstacle_rate=0.0)
    diagonal = replan_incremental(ReplanState(dmap, (0, 0), (7, 7)), set())
    other = replan_incremental(ReplanState(dmap, (0, 7), (7, 0)), set())
    assert diagonal == [(i, i) for i in range(8)]
    assert other == [(i, 7 - i) for i in range(8)]
    dmap.dynamic[3, 2] = 10**9  # a corner of the move (2, 2) -> (3, 3) alone

    def at(cell):
        center = dmap.center_of(*cell)
        return Pose2(center.x, center.y, 0.0)

    checks = [
        (diagonal, (3, 3), False),  # that move is behind the robot
        (diagonal, (2, 2), True),
        (diagonal, (0, 0), True),  # nearest moved back
        (diagonal, (7, 7), False),  # a one-cell stretch reads nothing
        (other, (0, 7), False),  # swapped to a path that reads no marked cell
        (list(diagonal), (1, 1), True),  # a new, equal path object
    ]
    for path, cell, blocked in checks:
        assert (path_cost(dmap, path[nearest_cell(dmap, path, at(cell)):]) is None) is blocked
        reads, waypoints = path_reads(path), cells_to_points(dmap, path)
        assert engine._ahead_is_blocked(path, reads, waypoints, at(cell)) is blocked, (path[0], cell)


def test_path_reads_are_the_cells_path_cost_reads(monkeypatch):
    # path_reads is the read set the path check filters on: exactly the cells
    # path_cost passes to traversable, each under the last move that reads it
    rng = random.Random(1414)
    traversable = DrivingMap.traversable
    read: list[tuple[int, int]] = []

    def traversable_spy(self, col, row):
        read.append((col, row))
        return traversable(self, col, row)

    monkeypatch.setattr(DrivingMap, "traversable", traversable_spy)
    diagonals = 0
    for _ in range(60):
        width, height = rng.choice(((16, 16), (23, 7), (7, 23)))
        dmap = driving_map(rng, width, height, obstacle_rate=0.1)
        free = [(c, r) for r in range(height) for c in range(width) if dmap.traversable(c, r)]
        path = replan_incremental(ReplanState(dmap, rng.choice(free), rng.choice(free)), set())
        if path is None:
            continue
        expected = {}
        for k in range(len(path) - 1):
            read.clear()
            assert path_cost(dmap, path[k:k + 2]) is not None
            expected.update(dict.fromkeys(read, k))
        read.clear()
        assert path_cost(dmap, path) is not None
        assert set(read) == expected.keys()
        assert path_reads(path) == expected
        diagonals += sum(u[0] != v[0] and u[1] != v[1] for u, v in zip(path, path[1:]))
    assert diagonals > 0


def test_reports_byte_identical_across_runs(demo_run):
    again = execute_mission(load_scenario(DEMO_SCENARIO))
    assert report_to_json(again.report).encode() == report_to_json(demo_run.report).encode()
    assert again.report.trace_digest == demo_run.report.trace_digest


def test_episodic_log_lines(demo_run):
    text = episodic_log(demo_run.emap)
    lines = text.splitlines()
    assert lines[0].startswith("0 MISSION_START ")
    assert lines[-1].split()[1] == "MISSION_COMPLETE"
    assert len(lines) == len(demo_run.report.episodes)


def test_report_rejects_negative_counters(demo_run):
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(demo_run.report, ticks_used=-1)
