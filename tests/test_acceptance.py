"""Acceptance gate: nine end-to-end properties, each checked against an
independent oracle at fixed seeds and pinned tolerances. Every test prints
one verdict line so a full run reads as a checklist."""

from __future__ import annotations

import dataclasses
import math
import random
import time

import numpy as np

import conftest
from oracles import (
    ReplayTierModel,
    dijkstra_pair_cost,
    naive_fixpoint,
    optimal_plan_cost,
    oracle_ray_circle,
    oracle_ray_segment,
    resident,
    segments_properly_cross,
    validate_plan,
)
from semnav.geometry import Footprint, Point2, Pose2
from semnav.learning import Rule, infer_facts
from semnav.mapgen import (
    FREE,
    OCCUPIED,
    Lidar2dSpec,
    MetricLayer,
    Semantic3dSpec,
    SensorSpec,
    generate_map,
)
from semnav.memory import StoredEntry, TierConfig, TierId, TierStore
from semnav.mission import (
    MissionEngine,
    data_dir,
    execute_mission,
    load_scenario,
    report_to_json,
)
from semnav.navigation import (
    DrivingMap,
    ReplanState,
    path_cost,
    plan_global,
    replan_incremental,
)
from semnav.planner import Fact, GroundAction, Mission, plan
from semnav.simulator import lidar_scan, make_world_state, semantic_detect
from semnav.world import (
    ActorScript,
    ElementRecord,
    ExplicitModel,
    Model3d,
    PhysicalInfo,
    SymbolicModel,
    WorldDescription,
)

DEMO_SCENARIO = data_dir() / "demo.scenario"


def verdict(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} [{status}] {title} ({detail})"
    print(line)
    conftest.verdict_lines.append(line)
    assert ok, line


# --- shared builders ---

def random_costmap(rng, width, height, obstacle_rate=0.2, radius=0.15):
    cells = np.full((height, width), FREE, dtype=np.uint8)
    for row in range(height):
        for col in range(width):
            if rng.random() < obstacle_rate:
                cells[row, col] = OCCUPIED
    metric = MetricLayer(
        resolution=0.1, origin=Point2(0.0, 0.0), width=width, height=height, cells=cells
    )
    return DrivingMap(metric, robot_radius=radius)


def composite_grid(dmap):
    return [
        [dmap.composite(col, row) for col in range(dmap.width)]
        for row in range(dmap.height)
    ]


def pick_free_cells(rng, dmap, count=2):
    free = [
        (c, r)
        for r in range(dmap.height)
        for c in range(dmap.width)
        if dmap.traversable(c, r)
    ]
    return [free[rng.randrange(len(free))] for _ in range(count)]


def rect(x0, y0, x1, y1):
    return Footprint((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


def box(symbol, x0, y0, x1, y1, *, semantic=None):
    model3d = Model3d(height=2.0, semantic_class=semantic) if semantic else None
    return ElementRecord(
        symbolic=SymbolicModel(symbol=symbol, class_label="wall"),
        explicit=ExplicitModel(
            model2d=rect(x0, y0, x1, y1), model3d=model3d, physical=PhysicalInfo()
        ),
    )


def open_world(elements=(), actors=(), spawn=Pose2(0.0, 0.0, 0.0)):
    return WorldDescription(
        name="acceptance",
        spaces=(),
        elements=tuple(elements),
        actors=tuple(actors),
        robot_spawn=spawn,
        robot_radius=0.25,
    )


# --- criterion 1: global planner optimality ---

def test_criterion_1_global_planner_matches_exact_dijkstra():
    rng = random.Random(101)
    t0 = time.perf_counter()
    solved = 0
    mismatches = []
    for index in range(100):
        dmap = random_costmap(rng, 32, 32, obstacle_rate=0.2)
        start, goal = pick_free_cells(rng, dmap)
        expected = dijkstra_pair_cost(composite_grid(dmap), start, goal)
        result = plan_global(dmap, start, goal)
        if expected is None or result is None:
            if (expected is None) != (result is None):
                mismatches.append(index)
            continue
        path, cost = result
        if (cost.a, cost.b) != expected or path_cost(dmap, path) != cost:
            mismatches.append(index)
        else:
            solved += 1
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        "global plan cost equals exact Dijkstra on 100 random 32x32 costmaps",
        not mismatches and solved >= 40 and elapsed < 10.0,
        f"{solved} solvable, {len(mismatches)} mismatches, 0 tolerance, {elapsed:.1f}s",
    )


# --- criterion 2: incremental replanning equivalence ---

def test_criterion_2_incremental_replan_equals_fresh_plan():
    rng = random.Random(202)
    t0 = time.perf_counter()
    mismatches = []
    compared = 0
    for trial in range(100):
        dmap = random_costmap(rng, 24, 24, obstacle_rate=0.15)
        start, goal = pick_free_cells(rng, dmap)
        rs = ReplanState(dmap, start, goal)
        replan_incremental(rs, set())  # the leg's first search; the call below repairs it
        changed = set()
        for _ in range(rng.randint(1, 20)):
            cell = (rng.randrange(dmap.width), rng.randrange(dmap.height))
            if cell in dmap.dynamic:
                del dmap.dynamic[cell]
            else:
                dmap.dynamic[cell] = 10**9
            changed.add(cell)
        repaired = replan_incremental(rs, changed)
        fresh = plan_global(dmap, start, goal)
        if (fresh is None) != (repaired is None):
            mismatches.append(trial)
        elif fresh is not None:
            compared += 1
            if path_cost(dmap, repaired) != fresh[1]:
                mismatches.append(trial)
    elapsed = time.perf_counter() - t0
    verdict(
        2,
        "incremental replan cost equals fresh plan over 100 toggle trials",
        not mismatches and compared >= 40 and elapsed < 10.0,
        f"{compared} reachable, {len(mismatches)} mismatches, 0 tolerance, {elapsed:.1f}s",
    )


# --- criterion 3: sensor models against exhaustive geometry ---

def _random_sensor_world(rng):
    elements = []
    for i in range(rng.randint(1, 5)):
        x0, y0 = rng.uniform(-6.0, 5.0), rng.uniform(-6.0, 5.0)
        elements.append(
            box(f"w{i}", x0, y0, x0 + rng.uniform(0.2, 2.5), y0 + rng.uniform(0.2, 2.5))
        )
    actors = [
        ActorScript(
            f"a{i}",
            "person",
            footprint_radius=rng.uniform(0.1, 0.5),
            speed=0.0,
            waypoints=(Point2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)),),
        )
        for i in range(rng.randint(0, 3))
    ]
    spawn = Pose2(
        rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0), rng.uniform(-math.pi, math.pi)
    )
    return make_world_state(open_world(elements, actors, spawn=spawn))


def _oracle_beam(ws, angle_world, range_max):
    pose = ws.pose
    dx, dy = math.cos(angle_world), math.sin(angle_world)
    best = range_max
    for element in ws.world.elements:
        footprint = element.explicit.model2d
        if footprint is None or not element.explicit.physical.is_static:
            continue
        for a, b in footprint.edges():
            t = oracle_ray_segment(pose.x, pose.y, dx, dy, a, b)
            if t is not None and 1e-9 <= t < best:
                best = t
    for actor in ws.world.actors:
        center = ws.actor_positions[actor.symbol]
        t = oracle_ray_circle(
            pose.x, pose.y, dx, dy, center.x, center.y, actor.footprint_radius
        )
        if t is not None and 1e-9 <= t < best:
            best = t
    return best


def test_criterion_3_sensor_models_match_exhaustive_oracles():
    rng = random.Random(303)
    beam_errors = []
    beams_checked = 0
    while beams_checked < 1000:
        ws = _random_sensor_world(rng)
        spec = SensorSpec(
            lidar2d=Lidar2dSpec(
                rng.uniform(3.0, 12.0), rng.uniform(0.5, 2 * math.pi), rng.randint(5, 21)
            )
        )
        scan = lidar_scan(ws, spec)
        for rel, got in zip(scan.angles, scan.ranges):
            expected = _oracle_beam(ws, ws.pose.heading + rel, spec.lidar2d.range_m)
            if abs(got - expected) > 1e-9:
                beam_errors.append(abs(got - expected))
        beams_checked += len(scan.ranges)

    occlusion_spec = SensorSpec(semantic3d=Semantic3dSpec(50.0, 2 * math.pi))
    occlusion_errors = 0
    for _ in range(500):
        walls = []
        for i in range(rng.randint(0, 4)):
            x0, y0 = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
            walls.append(
                box(f"w{i}", x0, y0, x0 + rng.uniform(0.3, 2.0), y0 + rng.uniform(0.3, 2.0))
            )
        target = Point2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        spawn = Pose2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), 0.0)
        booth = box(
            "t", target.x - 0.05, target.y - 0.05, target.x + 0.05, target.y + 0.05,
            semantic="booth",
        )
        ws = make_world_state(open_world(walls + [booth], spawn=spawn))
        frame = semantic_detect(ws, occlusion_spec)
        detected = any(d.symbol == "t" for d in frame.detections)
        blocked = any(
            segments_properly_cross(spawn.position, target, a, b)
            for w in walls
            for a, b in w.explicit.model2d.edges()
        )
        if detected != (not blocked):
            occlusion_errors += 1
    verdict(
        3,
        "lidar within 1e-9 of segment oracle; occlusion matches crossing check",
        not beam_errors and beams_checked >= 1000 and occlusion_errors == 0,
        f"{beams_checked} beams, max err "
        f"{max(beam_errors) if beam_errors else 0.0:.2e}, "
        f"{occlusion_errors}/500 occlusion disagreements",
    )


# --- criterion 4: task planner optimality on small domains ---

def _random_domain(rng):
    facts = [Fact(f"p{i}", ()) for i in range(rng.randint(3, 8))]
    actions = []
    for j in range(rng.randint(2, 12)):
        adds = frozenset(rng.sample(facts, rng.randint(1, 2)))
        dels = frozenset(rng.sample(facts, rng.randint(0, 2)))
        pres = frozenset(rng.sample(facts, rng.randint(0, 2)))
        actions.append(
            GroundAction(
                template=f"a{j}",
                args=(),
                preconditions=pres,
                add_effects=adds,
                del_effects=dels,
                cost=rng.randint(1, 16) / 4.0,
            )
        )
    initial = frozenset(rng.sample(facts, rng.randint(0, 3)))
    goal = frozenset(rng.sample(facts, rng.randint(1, 2)))
    return initial, goal, actions


def test_criterion_4_task_planner_matches_brute_force():
    rng = random.Random(404)
    solvable = 0
    failures = []
    for trial in range(150):
        initial, goal, actions = _random_domain(rng)
        expected = optimal_plan_cost(initial, goal, actions)
        result = plan(initial, Mission(goal=goal, start_space="s"), actions)
        if (expected is None) != (result is None):
            failures.append(f"trial {trial}: solvability mismatch")
            continue
        if result is None:
            continue
        solvable += 1
        ok, message = validate_plan(initial, result, goal)
        if not ok:
            failures.append(f"trial {trial}: invalid plan: {message}")
        if result.total_cost != expected:
            failures.append(
                f"trial {trial}: cost {result.total_cost} != optimal {expected}"
            )
        if sum(a.cost for a in result.actions) != result.total_cost:
            failures.append(f"trial {trial}: total_cost differs from action sum")
    verdict(
        4,
        "plan() optimal and valid on 150 random domains (<=8 facts, <=12 actions)",
        not failures and solvable >= 50,
        f"{solvable} solvable, {len(failures)} failures",
    )


# --- criterion 5: inference closure against naive fixpoint ---

def _random_inference_case(rng):
    symbols = ["a", "b", "c", "d", "e", "f"][: rng.randint(2, 6)]
    predicates = ["p", "q", "r", "s"][: rng.randint(2, 4)]
    facts = {
        Fact(
            rng.choice(predicates),
            tuple(rng.choice(symbols) for _ in range(rng.randint(1, 2))),
        )
        for _ in range(rng.randint(1, 20))
    }
    variables = ["?x", "?y", "?z"]
    rules = []
    for _ in range(rng.randint(1, 5)):
        body = []
        for _ in range(rng.randint(1, 2)):
            args = tuple(
                rng.choice(variables if rng.random() < 0.7 else symbols)
                for _ in range(rng.randint(1, 2))
            )
            body.append(Fact(rng.choice(predicates), args))
        bound = sorted({v for pattern in body for v in pattern.variables()})
        head_args = tuple(
            rng.choice(bound) if bound and rng.random() < 0.8 else rng.choice(symbols)
            for _ in range(rng.randint(1, 2))
        )
        rules.append(Rule(head=Fact(rng.choice(predicates), head_args), body=tuple(body)))
    return facts, rules


def test_criterion_5_inference_matches_naive_fixpoint():
    rng = random.Random(505)
    disagreements = 0
    derived_total = 0
    for _ in range(200):
        facts, rules = _random_inference_case(rng)
        expected = naive_fixpoint(facts, rules)
        got = infer_facts(facts, rules)
        if set(got) != expected:
            disagreements += 1
        derived_total += len(expected) - len(facts)
    verdict(
        5,
        "forward chaining equals naive fixpoint on 200 random rule sets",
        disagreements == 0 and derived_total > 0,
        f"{disagreements} disagreements, {derived_total} facts derived overall",
    )


# --- criterion 6: tier store against reference LRU replay ---

def test_criterion_6_tier_store_matches_reference_replay():
    configs = {
        TierId.STM: TierConfig(capacity=8, latency=0),
        TierId.ONDEMAND: TierConfig(capacity=24, latency=1),
        TierId.NETWORK: TierConfig(capacity=64, latency=5),
        TierId.CLOUD: TierConfig(capacity=None, latency=50),
    }
    store = TierStore(configs)
    model = ReplayTierModel(configs)
    rng = random.Random(606)
    keys = [f"knowledge/k{i}" for i in range(150)]
    tiers = list(TierId)
    divergences = []
    hits = 0
    for op in range(10_000):
        key = rng.choice(keys)
        if rng.random() < 0.5:
            got = store.get(key)
            expected = model.get(key)
            if (got is None) != (expected is None):
                divergences.append(f"op {op}: presence mismatch on get({key})")
            elif got is not None:
                hits += 1
                tier, latency, version = expected
                if (
                    got.served_from is not tier
                    or got.accumulated_latency != latency
                    or got.entry.version != version
                ):
                    divergences.append(f"op {op}: serve mismatch on get({key})")
                if not resident(store, key, TierId.STM):
                    divergences.append(f"op {op}: hit key '{key}' not resident in STM")
        else:
            size = rng.randint(1, 5)
            provenance = rng.choice(("authored", "learned"))
            tier = rng.choice(tiers)
            store.put(
                StoredEntry(key=key, payload="x" * size, size_units=size,
                            provenance=provenance),
                tier,
            )
            model.put(key, size, provenance, tier)
        for tier_id in TierId:
            capacity = configs[tier_id].capacity
            if capacity is not None and store.used_units(tier_id) > capacity:
                divergences.append(f"op {op}: {tier_id.name} over capacity")
        if op % 500 == 0 or op == 9_999:
            for tier_id in TierId:
                if [e.key for e in store.entries(tier_id)] != model.keys_in_order(tier_id):
                    divergences.append(f"op {op}: {tier_id.name} recency order differs")
    stats = store.stats.per_tier
    for tier_id in TierId:
        observed = (
            stats[tier_id].hits,
            stats[tier_id].misses,
            stats[tier_id].evictions,
            stats[tier_id].latency,
        )
        expected = (
            model.hits[tier_id],
            model.misses[tier_id],
            model.evictions[tier_id],
            model.latency[tier_id],
        )
        if observed != expected:
            divergences.append(f"{tier_id.name} counters {observed} != {expected}")
    verdict(
        6,
        "10000-op get/put trace equals reference LRU replay",
        not divergences and hits > 1000,
        f"{hits} hits, {len(divergences)} divergences",
    )


# --- criterion 7: sensor-gated map layers ---

def test_criterion_7_semantic_layer_gated_by_sensor_suite():
    scenario = load_scenario(DEMO_SCENARIO)
    goal_symbol = "hall_b"
    full = generate_map(
        MissionEngine(scenario).store, scenario.sensor_spec, goal_symbol,
        scenario.resolution,
    )
    spec_2d = dataclasses.replace(scenario.sensor_spec, semantic3d=None)
    lidar_only = generate_map(
        MissionEngine(scenario).store, spec_2d, goal_symbol, scenario.resolution
    )
    keys_2d = set(lidar_only.semantic.annotations)
    keys_full = set(full.semantic.annotations)
    classes_2d = [
        a.semantic_class
        for a in lidar_only.semantic.annotations.values()
        if a.semantic_class is not None
    ]
    classes_full = [
        a.semantic_class
        for a in full.semantic.annotations.values()
        if a.semantic_class is not None
    ]
    verdict(
        7,
        "2D-only annotations are a subset; semantic classes need the 3D sensor",
        keys_2d <= keys_full and not classes_2d and len(classes_full) > 0,
        f"{len(keys_2d)} 2D keys <= {len(keys_full)} full keys, "
        f"{len(classes_full)} classed",
    )


# --- criteria 8 and 9: the bundled demo mission ---

def test_criterion_8_demo_mission_end_to_end():
    t0 = time.perf_counter()
    run = execute_mission(load_scenario(DEMO_SCENARIO))
    elapsed = time.perf_counter() - t0
    report = run.report
    learned_in_cloud = [
        e for e in run.store.entries(TierId.CLOUD) if e.provenance == "learned"
    ]
    obstacle_events = [e for e in report.episodes if e["kind"] == "OBSTACLE_DETECTED"]
    checks = (
        report.success
        and report.collisions_static == 0
        and report.replan_count >= 1
        and len(obstacle_events) >= 1
        and report.written_back >= 1
        and len(learned_in_cloud) >= 1
        and elapsed < 10.0
    )
    verdict(
        8,
        "demo mission succeeds with actor-triggered replans and learned write-back",
        checks,
        f"success={report.success}, static={report.collisions_static}, "
        f"replans={report.replan_count}, learned@cloud={len(learned_in_cloud)}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_demo_mission_deterministic():
    first = execute_mission(load_scenario(DEMO_SCENARIO))
    second = execute_mission(load_scenario(DEMO_SCENARIO))
    json_a = report_to_json(first.report).encode()
    json_b = report_to_json(second.report).encode()
    verdict(
        9,
        "two demo runs give byte-identical reports and equal trace digests",
        json_a == json_b and first.report.trace_digest == second.report.trace_digest,
        f"report {len(json_a)} bytes, digest {first.report.trace_digest}",
    )
