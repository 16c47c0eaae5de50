"""Simulation kinematics, exact lidar against an exhaustive per-beam oracle,
semantic occlusion against an explicit crossing check, and trace hashing."""

from __future__ import annotations

import copy
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semnav.geometry import Footprint, Point2, Pose2
from semnav.mapgen import Lidar2dSpec, Semantic3dSpec, SensorSpec
from semnav.simulator import (
    Walls,
    lidar_scan,
    make_world_state,
    semantic_detect,
    step,
    trace_hash,
    trace_to_csv,
)

from oracles import (
    oracle_ray_circle,
    oracle_ray_segment,
    reference_lidar_ranges,
    reference_step_pose,
    segments_properly_cross,
)
from semnav.world import (
    ActorScript,
    ElementRecord,
    ExplicitModel,
    Model3d,
    PhysicalInfo,
    SymbolicModel,
    WorldDescription,
)


def rect(x0, y0, x1, y1):
    return Footprint((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


def wall(symbol, x0, y0, x1, y1, *, semantic=None, is_static=True):
    model3d = Model3d(height=2.0, semantic_class=semantic) if semantic else None
    return ElementRecord(
        symbolic=SymbolicModel(symbol=symbol, class_label="wall"),
        explicit=ExplicitModel(model2d=rect(x0, y0, x1, y1), model3d=model3d,
                               physical=PhysicalInfo(is_static=is_static)),
        implicit=(),
    )


def tiny_world(elements=(), actors=(), spawn=Pose2(1.0, 1.0, 0.0), radius=0.25):
    return WorldDescription(
        name="test_world",
        spaces=(),
        elements=tuple(elements),
        actors=tuple(actors),
        robot_spawn=spawn,
        robot_radius=radius,
    )


LIDAR = SensorSpec(lidar2d=Lidar2dSpec(10.0, math.pi, 3))
SEMANTIC = SensorSpec(semantic3d=Semantic3dSpec(6.0, 1.0))


# --- stepping ---

def test_zero_command_changes_only_tick_and_trace():
    world = tiny_world([wall("w", 3, 0, 3.2, 2)])
    ws = make_world_state(world)
    pose_before = ws.pose
    step(ws, 0.1, (0.0, 0.0))
    assert ws.tick == 1
    assert ws.pose == pose_before
    assert ws.static_collisions == 0
    assert len(ws.trace) == 2


def test_step_rejects_bad_dt():
    ws = make_world_state(tiny_world())
    with pytest.raises(ValueError):
        step(ws, 0.0, (0.0, 0.0))


def test_actor_reaches_waypoint_after_expected_steps_and_cycles():
    actor = ActorScript("walker", "person", footprint_radius=0.2, speed=1.0,
                        waypoints=(Point2(0, 0), Point2(10, 0)))
    ws = make_world_state(tiny_world(actors=[actor], spawn=Pose2(5, 5, 0)))
    for _ in range(99):
        step(ws, 0.1, (0.0, 0.0))
    assert ws.actor_positions["walker"].x == pytest.approx(9.9)
    step(ws, 0.1, (0.0, 0.0))
    assert ws.actor_positions["walker"].x == pytest.approx(10.0, abs=1e-9)
    step(ws, 0.1, (0.0, 0.0))  # snaps onto the waypoint, then heads back
    assert ws.actor_positions["walker"].x == pytest.approx(9.9)
    assert ws.actor_targets["walker"] == 0


def test_actor_step_of_many_laps_walks_only_the_leftover():
    # a 20 m lap: whole laps end where they began, so a step of k laps plus
    # 3 m ends where a 3 m step does, in bounded time even at 1e300 m/s
    actor = ActorScript("runner", "person", footprint_radius=0.2, speed=1.0,
                        waypoints=(Point2(0, 0), Point2(10, 0)))
    short = make_world_state(tiny_world(actors=[actor], spawn=Pose2(5, 5, 0)))
    step(short, 3.0, (0.0, 0.0))
    far = make_world_state(tiny_world(actors=[actor], spawn=Pose2(5, 5, 0)))
    step(far, 20.0 * 7 + 3.0, (0.0, 0.0))
    assert far.actor_positions == short.actor_positions == {"runner": Point2(3.0, 0.0)}
    assert far.actor_targets == short.actor_targets
    racer = ActorScript("racer", "person", footprint_radius=0.2, speed=1e300,
                        waypoints=actor.waypoints)
    ws = make_world_state(tiny_world(actors=[racer], spawn=Pose2(5, 5, 0)))
    step(ws, 0.1, (0.0, 0.0))
    assert 0.0 <= ws.actor_positions["racer"].x <= 10.0


def test_actor_with_single_waypoint_stays_put():
    actor = ActorScript("statue", "person", footprint_radius=0.2, speed=1.0,
                        waypoints=(Point2(2, 2),))
    ws = make_world_state(tiny_world(actors=[actor], spawn=Pose2(5, 5, 0)))
    for _ in range(10):
        step(ws, 0.1, (0.0, 0.0))
    assert ws.actor_positions["statue"] == Point2(2, 2)


def test_robot_clamps_at_wall_contact_and_counts_collision():
    world = tiny_world([wall("w", 3, 0, 3.2, 2)], spawn=Pose2(1.0, 1.0, 0.0))
    ws = make_world_state(world)
    for _ in range(30):
        step(ws, 0.1, (1.0, 0.0))
    # contact face is x=3: the center stops a hair before it, never inside
    assert ws.pose.x == pytest.approx(3.0 - 1e-9, abs=1e-12)
    assert ws.static_collisions >= 1
    # oracle: the motion segment of the first colliding step crossed x=3
    assert ws.pose.x < 3.0


def test_wall_behind_the_motion_does_not_clamp_it():
    world = tiny_world([wall("w", 0.0, 0, 0.2, 2)], spawn=Pose2(1.0, 1.0, 0.0))
    ws = make_world_state(world)
    step(ws, 0.1, (1.0, 0.0))  # driving away from the wall behind
    assert ws.pose.x == pytest.approx(1.1)
    assert ws.static_collisions == 0
    for _ in range(20):
        step(ws, 0.1, (-1.0, 0.0))  # backing into it stops at its face
    assert 0.2 <= ws.pose.x <= 0.2 + 2e-9
    assert ws.static_collisions >= 1


def test_collision_oracle_on_random_drives():
    rng = random.Random(12)
    for case in range(30):
        wx = rng.uniform(2.0, 4.0)
        world = tiny_world([wall("w", wx, -5, wx + 0.3, 5)],
                           spawn=Pose2(0.0, rng.uniform(-2, 2), 0.0))
        ws = make_world_state(world)
        v = rng.uniform(0.3, 2.0)
        steps = rng.randint(1, 80)
        for _ in range(steps):
            before = ws.pose
            step(ws, 0.1, (v, 0.0))
            after = ws.pose
            # oracle: step motion may never end strictly past the wall face
            assert after.x < wx + 1e-12, f"case {case}"
            expected_hit = before.x + v * 0.1 >= wx
            if expected_hit:
                assert ws.static_collisions >= 1, f"case {case}"


def test_motion_clamp_equals_the_unculled_reference():
    # step clamps only against the walls within |v*dt| of the robot; its
    # poses and wall-collision counts must equal a clamp over every wall,
    # step for step, from starts on a wall's edge or corner too, with the
    # wall at exactly the step's length now and then, and dt up to 1 s.
    rng = random.Random(2024)
    stops = touching = 0
    for case in range(200):
        boxes = []
        for _ in range(rng.randint(2, 6)):
            x0, y0 = rng.uniform(-5, 4), rng.uniform(-5, 4)
            boxes.append((x0, y0, x0 + rng.uniform(0.1, 2.0), y0 + rng.uniform(0.1, 2.0)))
        x0, y0, x1, y1 = rng.choice(boxes)
        start = rng.choice((
            (rng.uniform(-5, 5), rng.uniform(-5, 5)),  # anywhere, maybe inside a wall
            (x0, rng.uniform(y0, y1)),  # on an edge
            (rng.uniform(x0, x1), y1),
            (x1, y0),  # at a corner
            (x0 - 1.0, rng.uniform(y0, y1)),  # exactly 1 m before an edge
        ))
        touching += start[0] in (x0, x1) or start[1] in (y0, y1)
        heading = rng.choice((rng.uniform(-math.pi, math.pi), 0.0, math.pi / 2, math.pi))
        walls = [wall(f"w{i}", *box) for i, box in enumerate(boxes)]
        ws = make_world_state(tiny_world(walls, spawn=Pose2(*start, heading)))
        for _ in range(rng.randint(1, 10)):
            dt = rng.choice((rng.uniform(0.01, 1.0), 1.0, 0.1))
            v = rng.choice((rng.uniform(-2.0, 2.0), 1.0, -1.0, 0.0))
            command = (v, rng.choice((0.0, rng.uniform(-3.0, 3.0))))
            expected, stopped = reference_step_pose(ws, dt, command)
            collisions = ws.static_collisions
            step(ws, dt, command)
            assert ws.pose == expected, case
            assert ws.static_collisions == collisions + stopped, case
            stops += stopped
    assert stops >= 100 and touching >= 50


def test_actor_collisions_counted_but_non_blocking():
    actor = ActorScript("blocker", "person", footprint_radius=0.3, speed=0.0,
                        waypoints=(Point2(2.0, 1.0),))
    ws = make_world_state(tiny_world(actors=[actor], spawn=Pose2(1.8, 1.0, 0.0)))
    step(ws, 0.1, (0.5, 0.0))
    assert ws.actor_collisions == 1
    assert ws.pose.x == pytest.approx(1.85)  # not blocked


# --- lidar ---

def test_beam_normal_to_wall_returns_exact_distance():
    world = tiny_world([wall("w", 3, 0, 3.2, 2)], spawn=Pose2(1.0, 1.0, 0.0))
    ws = make_world_state(world)
    scan = lidar_scan(ws, LIDAR)
    assert scan.beam_count == 3
    assert scan.angles[1] == 0.0
    assert scan.ranges[1] == 2.0  # exact, not approximate


def test_empty_world_scan_is_all_range_max():
    ws = make_world_state(tiny_world())
    scan = lidar_scan(ws, LIDAR)
    assert scan.ranges.tolist() == [10.0, 10.0, 10.0]


def test_actor_disk_echo():
    actor = ActorScript("p", "person", footprint_radius=0.5, speed=0.0,
                        waypoints=(Point2(4.0, 1.0),))
    ws = make_world_state(tiny_world(actors=[actor], spawn=Pose2(1.0, 1.0, 0.0)))
    scan = lidar_scan(ws, LIDAR)
    assert scan.ranges[1] == pytest.approx(2.5, abs=1e-12)  # 3 m gap minus radius


def test_lidar_requires_lidar_spec():
    ws = make_world_state(tiny_world())
    with pytest.raises(ValueError):
        lidar_scan(ws, SEMANTIC)


def oracle_beam(ws, angle_world, range_max):
    """Exhaustive scalar min over every static footprint edge and actor disk."""
    pose = ws.pose
    dx, dy = math.cos(angle_world), math.sin(angle_world)
    best = range_max
    for rec in ws.world.elements:
        if rec.is_space or not rec.explicit.physical.is_static:
            continue
        for a, b in rec.explicit.model2d.edges():
            t = oracle_ray_segment(pose.x, pose.y, dx, dy, a, b)
            if t is not None and 1e-9 <= t < best:
                best = t
    for actor in ws.world.actors:
        c = ws.actor_positions[actor.symbol]
        t = oracle_ray_circle(pose.x, pose.y, dx, dy, c.x, c.y, actor.footprint_radius)
        if t is not None and 1e-9 <= t < best:
            best = t
    return best


def random_world_state(rng):
    elements = []
    for i in range(rng.randint(1, 5)):
        x0, y0 = rng.uniform(-6, 5), rng.uniform(-6, 5)
        elements.append(wall(f"w{i}", x0, y0, x0 + rng.uniform(0.2, 2.5),
                             y0 + rng.uniform(0.2, 2.5)))
    actors = []
    for i in range(rng.randint(0, 3)):
        actors.append(ActorScript(f"a{i}", "person",
                                  footprint_radius=rng.uniform(0.1, 0.5),
                                  speed=0.0,
                                  waypoints=(Point2(rng.uniform(-5, 5),
                                                    rng.uniform(-5, 5)),)))
    spawn = Pose2(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi))
    ws = make_world_state(tiny_world(elements, actors, spawn=spawn))
    return ws


def test_random_beams_match_exhaustive_oracle():
    rng = random.Random(777)
    beams_checked = 0
    while beams_checked < 1000:
        ws = random_world_state(rng)
        beam_count = rng.randint(5, 21)
        spec = SensorSpec(lidar2d=Lidar2dSpec(rng.uniform(3, 12),
                                              rng.uniform(0.5, 2 * math.pi),
                                              beam_count))
        scan = lidar_scan(ws, spec)
        for rel, got in zip(scan.angles, scan.ranges):
            expected = oracle_beam(ws, ws.pose.heading + rel, spec.lidar2d.range_m)
            assert abs(got - expected) <= 1e-9
        beams_checked += beam_count
    assert beams_checked >= 1000


def random_lidar_case(rng):
    """(world, lidar spec, seed, sigma): up to 4 walls and 5 actors, some
    disks on or right beside the robot."""
    elements = []
    for i in range(rng.randint(0, 4)):
        x0, y0 = rng.uniform(-6, 5), rng.uniform(-6, 5)
        elements.append(wall(f"w{i}", x0, y0, x0 + rng.uniform(0.2, 2.5),
                             y0 + rng.uniform(0.2, 2.5)))
    spawn = Pose2(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi))
    actors = []
    for i in range(rng.randint(0, 5)):
        spread = rng.choice((0.3, 5.0))
        waypoints = tuple(
            Point2(spawn.x + rng.uniform(-spread, spread),
                   spawn.y + rng.uniform(-spread, spread))
            for _ in range(rng.randint(1, 3))
        )
        actors.append(ActorScript(f"a{i}", "person", footprint_radius=rng.uniform(0.1, 0.8),
                                  speed=rng.uniform(0.0, 1.5), waypoints=waypoints))
    world = tiny_world(elements, actors, spawn=spawn)
    spec = SensorSpec(lidar2d=Lidar2dSpec(rng.uniform(0.5, 12.0),
                                          rng.uniform(0.1, 2 * math.pi),
                                          rng.randint(1, 181)))
    return world, spec, rng.randrange(1000), rng.choice((0.0, 0.0, 0.05, 0.5, 5.0))


def polygon(symbol, *xy):
    return ElementRecord(
        symbolic=SymbolicModel(symbol=symbol, class_label="wall"),
        explicit=ExplicitModel(model2d=Footprint(tuple(Point2(x, y) for x, y in xy)),
                               model3d=None, physical=PhysicalInfo(is_static=True)),
        implicit=(),
    )


ROOM = (  # slabs along both axes, with corners at (2, -1), (2, 1), (-3, 1), ...
    wall("east", 2.0, -1.0, 2.2, 1.0),
    wall("north", -3.0, 1.0, 3.0, 1.2),
    wall("south", -3.0, -1.2, 3.0, -1.0),
    wall("far", 20.0, -5.0, 21.0, 5.0),
)
CULL_FOVS = (math.pi, math.nextafter(math.pi, 4.0), math.pi + 0.01, 0.3, 1.5 * math.pi, 2 * math.pi)


def behind_walls(heading, gaps=(1e-7, 5e-7, 1e-6, 2e-6, 1e-3)):
    """Thin triangles around (0, 0) whose nearest edge runs along the line
    normal to heading, each wholly behind that line by one of the gaps."""
    fx, fy = math.cos(heading), math.sin(heading)
    nx, ny = -fy, fx
    walls = []
    for i, gap in enumerate(gaps):
        side = 1.0 + i  # each a little wider, both sides of the robot
        corners = ((-gap, -side), (-gap, side), (-gap - 0.5, 0.0))
        walls.append(polygon(f"b{i}", *((f * fx + s * nx, f * fy + s * ny) for f, s in corners)))
    return walls


def cull_lidar_cases():
    """(world, lidar spec, seed, sigma) aimed at Walls.within: robots on a
    wall's line and at wall corners, headings along axis-aligned walls, walls
    a hair behind the line normal to the heading, a wall just within range,
    ranges shorter than every wall, fov at and just past a half turn, and
    one or two beams."""
    beams = (1, 2, 3, 181)
    spots = ((0.0, 1.0), (5.0, 1.0), (2.0, -1.0), (2.0, 0.0), (-3.0, 1.2), (0.0, 0.0))
    headings = (0.0, math.pi / 2, math.pi, -math.pi / 2, 0.3)
    for x, y in spots:
        for heading in headings:
            for fov in CULL_FOVS:
                for n in beams:
                    spec = SensorSpec(lidar2d=Lidar2dSpec(6.0, fov, n))
                    yield tiny_world(ROOM, spawn=Pose2(x, y, heading)), spec, 3, 0.0
    for heading in (0.0, math.pi / 2, 2.0, -2.5):
        world = tiny_world(ROOM[-1:] + tuple(behind_walls(heading)), spawn=Pose2(0.0, 0.0, heading))
        for fov in CULL_FOVS:
            for n in beams:
                yield world, SensorSpec(lidar2d=Lidar2dSpec(8.0, fov, n)), 5, 0.05
    for reach in (2.0 + 1e-7, 2.0 + 5e-7, 2.001, 2.02):  # the east slab just in range
        for heading in (0.0, 0.01, -0.2):
            world = tiny_world(ROOM, spawn=Pose2(0.0, 0.0, heading))
            for fov in (math.pi, 0.1, 2 * math.pi):
                yield world, SensorSpec(lidar2d=Lidar2dSpec(reach, fov, 181)), 1, 0.0
    for spot in ((0.0, 0.0), (0.5, 0.5)):  # every wall beyond a 0.05 m range
        world = tiny_world(ROOM, spawn=Pose2(*spot, 0.7))
        for n in beams:
            yield world, SensorSpec(lidar2d=Lidar2dSpec(0.05, math.pi, n)), 9, 0.5


def test_walls_within_keeps_the_walls_in_reach_and_not_behind():
    walls = make_world_state(tiny_world(ROOM)).walls

    def owners(*query):
        return set(walls.owner[walls.within(*query)].tolist())

    # the north slab's box starts 1 m away: kept at a reach of 1 m less the
    # 1e-6 m slack, dropped once the gap is wider than the slack
    assert owners(0.0, 0.0, 1.0 - 5e-7) == {"north", "south"}
    assert owners(0.0, 0.0, 1.0 - 2e-6) == set()
    assert owners(0.0, 0.0, 2.0) == {"north", "south", "east"}
    assert owners(2.0, 0.0, 0.0) == {"east"}  # on a wall, a zero reach keeps it
    assert owners(0.0, 0.0, 30.0, 0.0) == {"north", "south", "east", "far"}
    assert owners(1.0, 0.0, 30.0, math.pi) == {"north", "south"}
    behind = make_world_state(tiny_world(behind_walls(2.0, (1e-7, 5e-7, 2e-6, 1e-3)))).walls
    kept = behind.owner[behind.within(0.0, 0.0, 30.0, 2.0)]
    assert set(kept.tolist()) == {"b0", "b1"}
    assert behind.within(0.0, 0.0, 30.0).size == behind.ax.size


def test_lidar_ranges_and_noise_stream_equal_the_per_actor_reference():
    # All actor disks are folded in one array pass, the walls are culled to
    # those within range (and ahead, for a fov up to a half turn), and the
    # noise is clamped in numpy; every range must still equal the unculled,
    # one-actor-at-a-time, one-beam-at-a-time computation bit for bit, and
    # the generator must be left in the same state, across consecutive scans.
    rng = random.Random(4242)
    cases = [random_lidar_case(rng) for _ in range(200)] + list(cull_lidar_cases())
    culled = empty = 0
    for trial, (world, spec, seed, sigma) in enumerate(cases):
        got = make_world_state(world, seed=seed, noise_sigma=sigma)
        ref = make_world_state(world, seed=seed, noise_sigma=sigma)
        pose = got.pose
        facing = pose.heading if spec.lidar2d.fov <= math.pi else None
        kept = got.walls.within(pose.x, pose.y, spec.lidar2d.range_m, facing).size
        culled += kept < got.walls.ax.size
        empty += kept == 0 < got.walls.ax.size
        for _ in range(3):
            assert lidar_scan(got, spec).ranges.tolist() == reference_lidar_ranges(ref, spec), trial
            assert rng_state(got) == rng_state(ref), trial
            step(got, 0.1, (0.5, 0.4))
            step(ref, 0.1, (0.5, 0.4))
    assert culled > len(cases) // 2 and empty >= 8


def rng_state(ws):
    """The state of ws's noise generator, or None when it has none."""
    return None if ws.rng is None else ws.rng.bit_generator.state


def bits(values) -> bytes:
    if isinstance(values, Pose2):
        values = (values.x, values.y, values.heading)
    return np.array(values, dtype=float).tobytes()


def cold_scan(ws, spec):
    """A scan of a deep copy of ws with its stored wall ranges dropped, and
    the copy, whose generator it advanced."""
    cold = copy.deepcopy(ws)
    cold.wall_ranges = None
    return lidar_scan(cold, spec), cold


def test_scan_at_a_repeated_pose_equals_a_cold_scan():
    # A zero command leaves the robot where it was and moves the actors: the
    # second scan reuses the stored wall ranges, and must equal a scan that
    # recomputes them, bit for bit, generator state included.
    rng = random.Random(5151)
    reused = noisy = 0
    for trial in range(120):
        world, spec, seed, sigma = random_lidar_case(rng)
        ws = make_world_state(world, seed=seed, noise_sigma=sigma)
        lidar_scan(ws, spec)
        for _ in range(3):
            memo = ws.wall_ranges
            pose = ws.pose
            step(ws, 0.1, (0.0, 0.0))
            expected, cold = cold_scan(ws, spec)
            got = lidar_scan(ws, spec)
            if bits(ws.pose) == bits(pose):
                assert ws.wall_ranges is memo, trial
                reused += 1
                noisy += sigma > 0.0
            assert bits(got.ranges) == bits(expected.ranges), trial
            assert bits(got.angles) == bits(expected.angles) and got.pose == expected.pose, trial
            assert rng_state(ws) == rng_state(cold), trial
    assert reused >= 300 and noisy >= 100


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_actor_reach_test_is_exact_at_its_boundary(sigma):
    # A scan folds in only the actor disks that come within range_m (plus
    # 1e-6 m) of the robot. Disks whose edge lies just inside, exactly at
    # and just beyond range_m, on both sides of the slack, and one behind
    # the robot, each alone and all together, must scan as the reference
    # that folds every actor does, bit for bit, generator state included.
    spec = SensorSpec(lidar2d=Lidar2dSpec(6.0, math.pi, 181))
    radius = 0.5
    gaps = (-1e-9, 0.0, 1e-9, 1e-6 - 1e-9, 1e-6, 1e-6 + 1e-9, 1e-3)
    for spawn, bearing in ((Pose2(0.0, 0.0, 0.0), 0.0), (Pose2(1.0, -2.0, 0.5), 0.7)):

        def disk(symbol, distance, direction):
            center = Point2(spawn.x + distance * math.cos(direction),
                            spawn.y + distance * math.sin(direction))
            return ActorScript(symbol, "person", footprint_radius=radius, speed=0.0,
                               waypoints=(center,))

        ahead = [disk(f"a{i}", spec.lidar2d.range_m + radius + gap, bearing)
                 for i, gap in enumerate(gaps)]
        behind = disk("b", 3.0, spawn.heading + math.pi)
        for actors in [[actor] for actor in ahead] + [[behind], ahead + [behind]]:
            world = tiny_world([wall("w", -3.0, 2.0, 3.0, 2.2)], actors, spawn=spawn)
            got = make_world_state(world, seed=11, noise_sigma=sigma)
            ref = make_world_state(world, seed=11, noise_sigma=sigma)
            for _ in range(2):
                assert bits(lidar_scan(got, spec).ranges) == bits(reference_lidar_ranges(ref, spec))
                assert rng_state(got) == rng_state(ref)


def test_actors_that_moved_appear_in_a_reused_scan():
    actor = ActorScript("p", "person", footprint_radius=0.5, speed=1.0,
                        waypoints=(Point2(4.0, 1.0), Point2(4.0, 3.0)))
    ws = make_world_state(tiny_world([wall("w", 8, -5, 8.2, 5)], actors=[actor]))
    ref = make_world_state(tiny_world([wall("w", 8, -5, 8.2, 5)], actors=[actor]))
    assert lidar_scan(ws, LIDAR).ranges[1] == pytest.approx(2.5, abs=1e-12)
    memo = ws.wall_ranges
    for world_state in (ws, ref):
        step(world_state, 1.0, (0.0, 0.0))  # the actor walks off the beam
    scan = lidar_scan(ws, LIDAR)
    assert ws.wall_ranges is memo
    assert scan.ranges.tolist() == reference_lidar_ranges(ref, LIDAR)
    assert scan.ranges[1] == pytest.approx(7.0, abs=1e-12)  # the wall behind it


def nudged(pose, field):
    x, y, heading = pose.x, pose.y, pose.heading
    if field == "x":
        return Pose2(math.nextafter(x, math.inf), y, heading)
    if field == "y":
        return Pose2(x, math.nextafter(y, -math.inf), heading)
    if field == "heading":
        return Pose2(x, y, heading + 1e-12)  # Pose2 wraps it, keeping about 4e-16
    # "sign": 0.0 against -0.0, which Pose2's wrap would turn back into 0.0
    flipped = Pose2(x, y, heading)
    object.__setattr__(flipped, "heading", -heading)
    return flipped


@pytest.mark.parametrize("change", ["x", "y", "heading", "sign", "spec", "same"])
def test_wall_ranges_are_recomputed_when_the_pose_or_the_spec_changes(change, monkeypatch):
    calls = []
    original = Walls.nearest_hits

    def counted(self, *args):
        calls.append(args[:2])
        return original(self, *args)

    monkeypatch.setattr(Walls, "nearest_hits", counted)
    world = tiny_world([wall("w", 3, -2, 3.2, 2), wall("v", -1, 2, 3, 2.2)],
                       spawn=Pose2(1.0, 1.0, 0.0))
    ws = make_world_state(world, seed=3, noise_sigma=0.05)
    lidar_scan(ws, LIDAR)
    spec = LIDAR
    if change == "spec":
        spec = SensorSpec(lidar2d=Lidar2dSpec(10.0, math.pi, 5))
    elif change == "same":
        pose = ws.pose
        ws.pose = Pose2(pose.x, pose.y, pose.heading)  # equal floats, a new object
    else:
        ws.pose = nudged(ws.pose, change)
    expected, _ = cold_scan(ws, spec)
    calls.clear()
    got = lidar_scan(ws, spec)
    assert len(calls) == (change != "same")
    assert bits(got.ranges) == bits(expected.ranges)
    assert ws.wall_ranges.pose_bits == bits(ws.pose)
    assert ws.wall_ranges.lidar == spec.lidar2d


def test_stored_wall_ranges_are_read_only():
    # the stored wall ranges and a scan's beam arrays, which later scans
    # share, cannot be written through
    ws = make_world_state(tiny_world([wall("w", 3, 0, 3.2, 2)]))
    scan = lidar_scan(ws, LIDAR)
    memo = ws.wall_ranges
    for array in (memo.cos, memo.sin, memo.walls, scan.angles, scan.ranges, scan.cos, scan.sin):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_lidar_noise_is_seeded_and_bounded():
    world = tiny_world([wall("w", 3, 0, 3.2, 2)])
    a = make_world_state(world, seed=42, noise_sigma=0.05)
    b = make_world_state(world, seed=42, noise_sigma=0.05)
    c = make_world_state(world, seed=43, noise_sigma=0.05)
    scan_a = lidar_scan(a, LIDAR)
    scan_b = lidar_scan(b, LIDAR)
    scan_c = lidar_scan(c, LIDAR)
    assert scan_a.ranges.tolist() == scan_b.ranges.tolist()
    assert scan_a.ranges.tolist() != scan_c.ranges.tolist()
    assert all(0 < r <= 10.0 for r in scan_a.ranges)
    clean = lidar_scan(make_world_state(world, seed=42), LIDAR)
    assert clean.ranges.tolist() != scan_a.ranges.tolist()


def test_only_a_noisy_lidar_gets_a_generator():
    world = tiny_world([wall("w", 3, 0, 3.2, 2)])
    assert make_world_state(world, seed=42).rng is None
    noisy = make_world_state(world, seed=42, noise_sigma=0.05)
    assert isinstance(noisy.rng, np.random.Generator)
    assert rng_state(noisy) == np.random.default_rng(42).bit_generator.state


def test_numpy_normal_stream_is_the_one_the_noisy_pins_were_made_with():
    # Lidar noise is Generator.normal, and every noisy report, trace digest
    # and identity row was pinned on numpy 2.4.6.
    draws = np.random.default_rng(0).normal(0.0, 1.0, 4)
    pinned = np.array([0.1257302210933933, -0.1321048632913019, 0.6404226504432821,
                       0.10490011715303971])
    assert np.array_equal(draws.view(np.int64), pinned.view(np.int64)), (
        f"numpy {np.__version__} draws {draws.tolist()} from default_rng(0).normal, not the "
        "values numpy 2.4.6 drew: NEP 19 lets the Generator stream change between numpy "
        "releases, and the noisy report and digest pins would change with it"
    )


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(0, 400), min_size=1, max_size=3),
    sigma=st.sampled_from((0.05, 0.5, 5.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(counts=[181, 181, 181], sigma=0.05, seed=0)
@example(counts=[0, 1, 7, 0], sigma=0.5, seed=1)
def test_block_normal_draw_equals_one_scalar_draw_per_beam(counts, sigma, seed):
    # The lidar draws a scan's noise in one normal() call; it must equal the
    # same number of scalar normal() calls bit for bit and leave the
    # generator in the same state, block after block.
    got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in counts:
        block = got.normal(0.0, sigma, n)
        calls = np.array([ref.normal(0.0, sigma) for _ in range(n)], dtype=float)
        assert block.shape == (n,)
        assert np.array_equal(block.view(np.int64), calls.view(np.int64))
        assert got.bit_generator.state == ref.bit_generator.state


# --- semantic detection ---

def booth_at(x, y, symbol="booth_x", side=0.4):
    return wall(symbol, x - side / 2, y - side / 2, x + side / 2, y + side / 2,
                semantic="booth")


def test_booth_ahead_is_detected():
    world = tiny_world([booth_at(3.0, 1.0)], spawn=Pose2(1.0, 1.0, 0.0))
    frame = semantic_detect(make_world_state(world), SEMANTIC)
    assert [d.symbol for d in frame.detections] == ["booth_x"]
    assert frame.detections[0].semantic_class == "booth"
    assert frame.detections[0].position.x == pytest.approx(3.0, abs=1e-9)
    assert frame.detections[0].position.y == pytest.approx(1.0, abs=1e-9)


def test_booth_behind_wall_is_occluded():
    world = tiny_world([booth_at(4.0, 1.0), wall("w", 2.4, 0, 2.6, 2)],
                       spawn=Pose2(1.0, 1.0, 0.0))
    frame = semantic_detect(make_world_state(world), SEMANTIC)
    assert frame.detections == ()


def test_fov_boundary_is_inclusive():
    angle = 0.5  # exactly fov/2 for fov=1.0
    target = Point2(2 * math.cos(angle), 2 * math.sin(angle))
    world = tiny_world([booth_at(target.x, target.y)], spawn=Pose2(0.0, 0.0, 0.0))
    frame = semantic_detect(make_world_state(world), SEMANTIC)
    assert len(frame.detections) == 1


def test_out_of_range_and_out_of_fov_excluded():
    world = tiny_world(
        [booth_at(7.0, 0.0, "far"), booth_at(0.0, 3.0, "sideways")],
        spawn=Pose2(0.0, 0.0, 0.0),
    )
    frame = semantic_detect(make_world_state(world), SEMANTIC)
    assert frame.detections == ()


def test_actors_detected_without_symbol():
    actor = ActorScript("p1", "person", footprint_radius=0.2, speed=0.0,
                        waypoints=(Point2(3.0, 1.0),))
    world = tiny_world(actors=[actor], spawn=Pose2(1.0, 1.0, 0.0))
    frame = semantic_detect(make_world_state(world), SEMANTIC)
    assert len(frame.detections) == 1
    assert frame.detections[0].symbol is None
    assert frame.detections[0].semantic_class == "person"


def test_element_own_footprint_does_not_occlude_it():
    # a big box whose centroid is deep behind its own front face
    world = tiny_world([wall("bigbox", 2.0, 0.0, 5.0, 2.0, semantic="crate")],
                       spawn=Pose2(1.0, 1.0, 0.0))
    frame = semantic_detect(make_world_state(world), SEMANTIC)
    assert [d.symbol for d in frame.detections] == ["bigbox"]


def test_occlusion_matches_segment_check_oracle():
    rng = random.Random(31337)
    spec = SensorSpec(semantic3d=Semantic3dSpec(50.0, 2 * math.pi))  # geometry only
    for case in range(500):
        walls = []
        for i in range(rng.randint(0, 4)):
            x0, y0 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            walls.append(wall(f"w{i}", x0, y0, x0 + rng.uniform(0.3, 2),
                              y0 + rng.uniform(0.3, 2)))
        target = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        spawn = Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0)
        world = tiny_world(walls + [booth_at(target.x, target.y, "t", side=0.1)],
                           spawn=spawn)
        frame = semantic_detect(make_world_state(world), spec)
        detected = any(d.symbol == "t" for d in frame.detections)
        blocked = any(
            segments_properly_cross(spawn.position, target, a, b)
            for w in walls
            for a, b in w.explicit.model2d.edges()
        )
        assert detected == (not blocked), f"case {case}"


# --- tracing ---

def test_trace_record_format_and_csv():
    ws = make_world_state(tiny_world(spawn=Pose2(1.5, 2.5, 0.25)))
    step(ws, 0.1, (0.5, -0.3))
    assert ws.trace[0] == "0 1.500000000 2.500000000 0.250000000 0.000000000 0.000000000 0"
    fields = ws.trace[1].split()
    assert fields[0] == "1" and fields[4] == "0.500000000"
    csv = trace_to_csv(ws.trace)
    assert csv.splitlines()[0] == "tick,x,y,theta,v,omega,collisions"
    assert csv.splitlines()[1].startswith("0,1.500000000")


def test_trace_hash_empty_and_determinism():
    assert trace_hash([]) == hashlib.blake2b(b"", digest_size=8).hexdigest()

    def run(seed):
        world = tiny_world(
            [wall("w", 3, 0, 3.2, 2)],
            actors=[ActorScript("p", "person", footprint_radius=0.2, speed=0.7,
                                waypoints=(Point2(4, 0), Point2(4, 2)))],
        )
        ws = make_world_state(world, seed=seed, noise_sigma=0.02)
        for _ in range(50):
            scan = lidar_scan(ws, LIDAR)
            # couple the noisy scan into motion so the seed shapes the trace
            v = 0.1 + (scan.ranges[1] % 0.01)
            step(ws, 0.1, (v, 0.05))
        return trace_hash(ws.trace)

    assert run(7) == run(7)
    assert run(7) != run(8)
