"""Driving map and path planning: exact-cost algebra, inflation against an
exhaustive scan, dynamic-layer aging against full recomputation, the global
plan against uniform-cost search, the A* it replaced and a path derived
without a search, and repairs against fresh plans."""

from __future__ import annotations

import dataclasses
import math
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _moves,
    cmp_sqrt2,
    decimal_cmp_sqrt2,
    dijkstra_pair_cost,
    grid_edge_cost,
    inflation_oracle,
    reference_dynamic_fold,
    reference_plan_global,
    reference_search_path,
    reference_settled_costs,
)
from semnav import navigation
from semnav.geometry import Point2, Pose2
from semnav.mapgen import FREE, OCCUPIED, UNKNOWN, MetricLayer
from semnav.mission import data_dir, execute_mission, load_scenario
from semnav.navigation import (
    DEFAULT_TTL,
    DIAG,
    GOAL_TOLERANCE,
    INF,
    INSCRIBED,
    LETHAL,
    PAIR_SUM_LIMIT,
    STRAIGHT,
    UA,
    UB,
    UNKNOWN_COST,
    DrivingMap,
    ReplanState,
    cells_to_points,
    decode,
    follow_step,
    octile,
    path_cost,
    plan_global,
    replan_incremental,
)
from semnav.simulator import LidarScan, make_world_state, step
from semnav.world import WorldDescription


def metric_from_rows(rows, resolution=0.1):
    """rows: list of strings, '#' occupied, '.' free, '?' unknown; row 0 is
    the bottom of the map."""
    codes = {"#": OCCUPIED, ".": FREE, "?": UNKNOWN}
    height, width = len(rows), len(rows[0])
    cells = np.zeros((height, width), dtype=np.uint8)
    for r, line in enumerate(rows):
        for c, ch in enumerate(line):
            cells[r, c] = codes[ch]
    return MetricLayer(
        resolution=resolution,
        origin=Point2(0.0, 0.0),
        width=width,
        height=height,
        cells=cells,
    )


def open_map(width, height, resolution=1.0):
    return metric_from_rows(["." * width] * height, resolution)


def composite_grid(dmap):
    return [
        [dmap.composite(col, row) for col in range(dmap.width)]
        for row in range(dmap.height)
    ]


def beam_scan(angles, ranges, range_max, pose, tick=0):
    """A scan of the given beams from pose at tick, built as lidar_scan
    builds one: one read-only array per beam quantity."""
    angles = np.array(angles, dtype=float)
    absolute = angles + pose.heading
    beams = (angles, np.array(ranges, dtype=float), np.cos(absolute), np.sin(absolute))
    for array in beams:
        array.flags.writeable = False
    return LidarScan(tick, pose, range_max, *beams)


def scan_hitting(points, pose, range_max=10.0, tick=0):
    """A synthetic scan whose beams hit exactly the given world points."""
    angles, ranges = [], []
    for p in points:
        angles.append(math.atan2(p.y - pose.y, p.x - pose.x) - pose.heading)
        ranges.append(pose.position.distance_to(p))
    return beam_scan(angles, ranges, range_max, pose, tick)


# --- exact cost algebra ---

PELL_PAIRS = [(3, 2), (7, 5), (17, 12), (41, 29), (99, 70), (239, 169),
              (577, 408), (1393, 985), (19601, 13860), (275807, 195025)]


def encode(a, b):
    """The exact int cost of a + b*sqrt(2) scaled units."""
    return a * UA + b * UB


def pell_pairs_up_to(limit):
    """Every (p, q) with p*p - 2*q*q = +-1 and p + q <= limit: the pairs
    for which p and q*sqrt(2) are closest, so their costs are hardest to
    order."""
    pairs, (p, q) = [], (1, 1)
    while p + q <= limit:
        pairs.append((p, q))
        p, q = p + 2 * q, p + q
    return pairs


def test_exact_cost_comparisons_match_decimal_oracle():
    rng = random.Random(51)
    cases = []
    for _ in range(2000):
        cases.append((rng.randrange(0, 10**6), rng.randrange(0, 10**6),
                      rng.randrange(0, 10**6), rng.randrange(0, 10**6)))
    for p, q in PELL_PAIRS:
        cases.append((p, 0, 0, q))  # p vs q*sqrt(2): razor-thin gaps
        cases.append((0, q, p, 0))
        cases.append((p, q, p, q))
    for a1, b1, a2, b2 in cases:
        expected = decimal_cmp_sqrt2(a1, b1, a2, b2)
        assert cmp_sqrt2(a1, b1, a2, b2) == expected
        x, y = encode(a1, b1), encode(a2, b2)
        assert (x < y) == (expected < 0)
        assert (x == y) == (expected == 0)
        assert (x > y) == (expected > 0)


def test_exact_cost_order_and_decode_hold_up_to_the_bound():
    pairs = pell_pairs_up_to(PAIR_SUM_LIMIT)
    assert len(pairs) == 30 and pairs[-1][0] > 10**11
    cases = []
    for p, q in pairs:
        cases.append((p, 0, 0, q))
        cases.append((0, q, p, 0))
        # the same gap with the largest b the bound allows on both sides
        y = PAIR_SUM_LIMIT - p - q
        cases.append((p, y, 0, q + y))
    rng = random.Random(51)
    for _ in range(2000):
        cases.append(tuple(rng.randrange(0, PAIR_SUM_LIMIT // 2) for _ in range(4)))
    for a1, b1, a2, b2 in cases:
        expected = decimal_cmp_sqrt2(a1, b1, a2, b2)
        x, y = encode(a1, b1), encode(a2, b2)
        assert ((x > y) - (x < y)) == expected, (a1, b1, a2, b2)
        assert decode(x) == (a1, b1) and decode(y) == (a2, b2)


def test_exact_cost_infinity_and_conversion():
    assert 0 < INF and not INF < 0
    assert encode(PAIR_SUM_LIMIT, PAIR_SUM_LIMIT) < INF
    assert INF == INF and INF + 0 == INF and INF + DIAG[252] == INF
    assert encode(150, 0) + STRAIGHT[0] == encode(250, 0)
    assert encode(0, 0) + DIAG[53] == encode(0, 153)
    assert decode(encode(250, 0) + DIAG[53]) == (250, 153)


def test_octile_heuristic_values():
    assert octile((0, 0), (3, 3)) == encode(0, 300)
    assert octile((0, 0), (5, 2)) == encode(300, 200)
    assert octile((4, 7), (4, 7)) == 0


def test_map_beyond_the_exact_bound_is_rejected(monkeypatch):
    # an 8 x 8 map needs 352*64 + 100*16 = 24128 of the map's half
    monkeypatch.setattr(navigation, "PAIR_SUM_LIMIT", 2 * 24128 - 1)
    with pytest.raises(ValueError, match="too large"):
        DrivingMap(open_map(8, 8), robot_radius=0.4)
    monkeypatch.setattr(navigation, "PAIR_SUM_LIMIT", 2 * 24128)
    DrivingMap(open_map(8, 8), robot_radius=0.4)


# --- driving map construction ---

def test_empty_space_has_zero_costs():
    dmap = DrivingMap(open_map(8, 8, 0.1), robot_radius=0.25)
    assert composite_grid(dmap) == [[0] * 8 for _ in range(8)]


def test_single_obstacle_inflation_profile():
    rows = ["." * 15 for _ in range(15)]
    rows[7] = "." * 7 + "#" + "." * 7
    dmap = DrivingMap(metric_from_rows(rows, 0.1), robot_radius=0.3)
    assert dmap.composite(7, 7) == LETHAL
    # within 3 cells: inscribed 200
    assert dmap.composite(8, 7) == 200
    assert dmap.composite(7, 4) == 200
    assert dmap.composite(9, 9) == 200  # d = sqrt(8) < 3
    # linear band: d=4 -> 200*(6-4)/3 = 133.33 -> 133
    assert dmap.composite(11, 7) == 133
    # d=5 -> 200*(6-5)/3 = 66.67 -> 67
    assert dmap.composite(7, 2) == 67
    # d=6 -> decayed to zero
    assert dmap.composite(1, 7) == 0


def assert_inflation_matches_oracle(rows, radius, resolution=0.1):
    dmap = DrivingMap(metric_from_rows(rows, resolution), robot_radius=radius)
    height, width = len(rows), len(rows[0])
    lethal = [(c, r) for r in range(height) for c in range(width) if rows[r][c] == "#"]
    expected_inflation = inflation_oracle(lethal, width, height, radius / resolution)
    base = {"#": LETHAL, "?": UNKNOWN_COST, ".": 0}
    for r in range(height):
        for c in range(width):
            expected = max(base[rows[r][c]], expected_inflation[r][c])
            assert dmap.static[r, c] == expected, (c, r, radius)


def test_inflation_matches_exhaustive_oracle_on_random_maps():
    rng = random.Random(2718)
    for _ in range(20):
        width, height = rng.randint(8, 24), rng.randint(8, 24)
        rows = [
            "".join("#" if rng.random() < 0.12 else "." for _ in range(width))
            for _ in range(height)
        ]
        assert_inflation_matches_oracle(rows, rng.choice([0.15, 0.25, 0.3, 0.45]))


@pytest.mark.parametrize(
    "shapes, radii, lethal_rate",
    [
        # radius / 0.5 is the radius in cells, rc; the inflation reads
        # squared distances below (2*rc)**2 and no further
        pytest.param([(12, 9), (9, 12)], [0.5, 0.75, 1.0, 1.25, 1.5], 0.1, id="2rc_integer"),
        pytest.param([(10, 8)], [0.05, 0.15, 0.2, 0.245], 0.2, id="rc_below_half"),
        pytest.param([(11, 6), (6, 11), (7, 7)], [2.75, 2.95, 3.0], 0.05, id="rc_near_map_side"),
        pytest.param([(10, 8), (1, 6), (6, 1)], [0.3, 0.5], 0.0, id="no_lethal_cell"),
        pytest.param([(15, 1)], [0.1, 0.25, 0.4, 0.5], 0.2, id="single_row"),
        pytest.param([(1, 15)], [0.1, 0.25, 0.4, 0.5], 0.2, id="single_column"),
    ],
)
def test_inflation_matches_exhaustive_oracle_at_edge_radii(shapes, radii, lethal_rate):
    rng = random.Random(1618)
    for width, height in shapes:
        for radius in radii:
            for _ in range(4):
                rows = [
                    "".join(
                        rng.choices("#?.", weights=(lethal_rate, 0.05, 0.95 - lethal_rate))[0]
                        for _ in range(width)
                    )
                    for _ in range(height)
                ]
                assert_inflation_matches_oracle(rows, radius, resolution=0.5)


def test_unknown_cells_keep_cost_253():
    rows = ["??.", "#..", "..."]  # unknowns at (0,0),(1,0); lethal at (0,1)
    dmap = DrivingMap(metric_from_rows(rows, 0.1), robot_radius=0.1)
    assert dmap.composite(0, 0) == UNKNOWN_COST  # unknown beats inflation
    assert dmap.composite(1, 0) == UNKNOWN_COST
    assert dmap.composite(2, 2) == 0  # beyond twice the radius
    assert not dmap.traversable(0, 0)


def test_driving_map_rejects_bad_radius():
    with pytest.raises(ValueError):
        DrivingMap(open_map(4, 4, 0.1), robot_radius=0.0)
    with pytest.raises(ValueError):
        DrivingMap(open_map(4, 4, 0.1), robot_radius=0.5)  # wider than the map


# --- dynamic layer ---

def test_dynamic_hit_expires_after_ttl():
    dmap = DrivingMap(open_map(10, 10, 1.0), robot_radius=0.8)
    pose = Pose2(0.5, 0.5, 0.0)
    scan = scan_hitting([Point2(4.5, 0.5)], pose)
    changed = dmap.update_dynamic_layer(scan)
    assert changed == {(4, 0)}
    assert dmap.composite(4, 0) == LETHAL
    for tick in range(1, DEFAULT_TTL):
        assert dmap.update_dynamic_layer(beam_scan((), (), 10.0, pose, tick)) == set()
        assert dmap.composite(4, 0) == LETHAL
    assert dmap.update_dynamic_layer(beam_scan((), (), 10.0, pose, DEFAULT_TTL)) == {(4, 0)}
    assert dmap.composite(4, 0) == 0


def test_reobservation_refreshes_expiry():
    dmap = DrivingMap(open_map(10, 10, 1.0), robot_radius=0.8)
    pose = Pose2(0.5, 0.5, 0.0)
    dmap.update_dynamic_layer(scan_hitting([Point2(4.5, 0.5)], pose))
    # refresh, no change
    assert dmap.update_dynamic_layer(scan_hitting([Point2(4.5, 0.5)], pose, tick=10)) == set()
    # expiry moved from DEFAULT_TTL to 10 + DEFAULT_TTL
    assert dmap.update_dynamic_layer(beam_scan((), (), 10.0, pose, DEFAULT_TTL)) == set()
    assert dmap.update_dynamic_layer(beam_scan((), (), 10.0, pose, 10 + DEFAULT_TTL)) == {(4, 0)}


def test_hits_on_static_walls_change_nothing():
    rows = ["....", "..#.", "...."]
    dmap = DrivingMap(metric_from_rows(rows, 1.0), robot_radius=0.5)
    pose = Pose2(0.5, 1.5, 0.0)
    scan = scan_hitting([Point2(2.5, 1.5)], pose)
    assert dmap.update_dynamic_layer(scan) == set()
    assert dmap.dynamic == {}


@pytest.mark.parametrize("robot_radius", [0.2, 0.5, 0.8, 1.6])  # ceil(2 * rc): 1, 1, 2, 4
def test_hits_touching_a_static_lethal_cell_are_dropped(robot_radius):
    # A return in a lethal cell's 8-neighbourhood is the static map's own
    # wall surface; one two cells away is kept. The two smallest radii give
    # ceil(2 * rc) < 2, where the distance transform must still reach d2 = 2.
    rows = [".......", ".......", "...#...", ".......", "......."]
    dmap = DrivingMap(metric_from_rows(rows, 1.0), robot_radius=robot_radius)
    pose = Pose2(0.5, 0.5, 0.0)
    touching = [(2, 1), (3, 1), (4, 1), (2, 2), (4, 2), (2, 3), (3, 3), (4, 3)]
    scan = scan_hitting([Point2(c + 0.5, r + 0.5) for c, r in touching], pose)
    assert dmap.update_dynamic_layer(scan) == set()
    assert dmap.dynamic == {}
    two_away = [(1, 2), (5, 2), (3, 4), (1, 0), (5, 4)]
    scan = scan_hitting([Point2(c + 0.5, r + 0.5) for c, r in two_away], pose, tick=1)
    assert dmap.update_dynamic_layer(scan) == set(two_away)
    assert dmap.dynamic == dict.fromkeys(two_away, 1 + DEFAULT_TTL)


def test_hit_in_open_floor_between_walls_is_marked_until_its_expiry():
    rows = ["#" * 8] + ["#......#"] * 5 + ["#" * 8]
    dmap = DrivingMap(metric_from_rows(rows, 1.0), robot_radius=0.3)
    pose = Pose2(1.5, 1.5, 0.0)
    tick = 3
    assert dmap.update_dynamic_layer(scan_hitting([Point2(4.5, 3.5)], pose, tick=tick)) == {(4, 3)}
    assert dmap.dynamic == {(4, 3): tick + DEFAULT_TTL}
    assert dmap.composite(4, 3) == LETHAL
    assert dmap.update_dynamic_layer(beam_scan((), (), 10.0, pose, tick + DEFAULT_TTL - 1)) == set()
    assert dmap.update_dynamic_layer(beam_scan((), (), 10.0, pose, tick + DEFAULT_TTL)) == {(4, 3)}
    assert dmap.composite(4, 3) == 0


def test_max_range_beams_do_not_mark_cells():
    dmap = DrivingMap(open_map(6, 6, 1.0), robot_radius=0.5)
    pose = Pose2(0.5, 0.5, 0.0)
    scan = beam_scan((0.0, 0.3), (10.0, 10.0), 10.0, pose)
    assert dmap.update_dynamic_layer(scan) == set()


def test_dynamic_layer_matches_full_recompute_oracle():
    rng = random.Random(99)
    rows = ["".join("#" if rng.random() < 0.1 else "." for _ in range(12))
            for _ in range(12)]
    metric = metric_from_rows(rows, 1.0)
    dmap = DrivingMap(metric, robot_radius=0.6)
    static_only = [[int(dmap.static[r, c]) for c in range(12)] for r in range(12)]
    pose = Pose2(0.5, 0.5, 0.0)
    last_seen: dict[tuple[int, int], int] = {}
    previous = composite_grid(dmap)
    # 240 ticks at the default ttl: about 110 hits expire and 50 are refreshed,
    # on the 71 cells with no static-lethal cell in their 3 x 3 block
    for tick in range(240):
        points = [
            Point2(rng.uniform(0.2, 11.8), rng.uniform(0.2, 11.8))
            for _ in range(rng.randint(0, 3))
        ]
        changed = dmap.update_dynamic_layer(scan_hitting(points, pose, range_max=40.0, tick=tick))
        # oracle: recompute the whole composite from the observation history
        for p in points:
            col, row = int(p.x), int(p.y)
            block = [static_only[r][c] for r in range(max(row - 1, 0), min(row + 2, 12))
                     for c in range(max(col - 1, 0), min(col + 2, 12))]
            if LETHAL not in block:
                last_seen[(col, row)] = tick
        expected = [
            [
                LETHAL
                if (c, r) in last_seen and tick < last_seen[(c, r)] + DEFAULT_TTL
                else static_only[r][c]
                for c in range(12)
            ]
            for r in range(12)
        ]
        actual = composite_grid(dmap)
        assert actual == expected, f"composite diverged at tick {tick}"
        diff = {
            (c, r)
            for r in range(12)
            for c in range(12)
            if actual[r][c] != previous[r][c]
        }
        assert changed == diff, f"changed-set diverged at tick {tick}"
        previous = actual


@st.composite
def fold_cases(draw):
    """A random map and a few ticks of scans from random poses. Beams
    are random, exactly at or around the range cut, or aimed at a cell
    centre in or just outside the grid, so they hit static-lethal cells,
    leave the grid and re-mark cells across ticks."""
    width, height = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    resolution = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    origin = Point2(draw(st.sampled_from([0.0, -1.0, 0.3])), draw(st.sampled_from([0.0, -0.7, 2.0])))
    codes = draw(st.lists(st.sampled_from([FREE, FREE, FREE, OCCUPIED, UNKNOWN]),
                          min_size=width * height, max_size=width * height))
    metric = MetricLayer(resolution=resolution, origin=origin, width=width, height=height,
                         cells=np.array(codes, dtype=np.uint8).reshape(height, width))
    range_max = draw(st.sampled_from([1.0, 3.0, 10.0]))
    cut = range_max - 1e-9
    # a few aim points shared by every tick, so that cells are hit again
    aims = draw(st.lists(st.tuples(st.integers(-1, width), st.integers(-1, height)),
                         min_size=1, max_size=3))
    moving = draw(st.booleans())
    frames, tick, pose = [], 0, None
    for _ in range(draw(st.integers(1, 8))):
        # steps from a third of the ttl to just past it, so that hits are
        # refreshed and expire, some exactly at their expiry tick; a second
        # fold on the same tick; and steps of two or three ttls, so that
        # several due buckets fall due at once
        tick += draw(st.sampled_from(
            [0, DEFAULT_TTL // 3, DEFAULT_TTL // 2, DEFAULT_TTL - 1, DEFAULT_TTL, DEFAULT_TTL + 1,
             2 * DEFAULT_TTL, 2 * DEFAULT_TTL + 1, 3 * DEFAULT_TTL]))
        if pose is None or moving:
            pose = Pose2(
                draw(st.floats(origin.x - 1.0, origin.x + width * resolution + 1.0)),
                draw(st.floats(origin.y - 1.0, origin.y + height * resolution + 1.0)),
                draw(st.floats(-math.pi, math.pi)),
            )
        angles, ranges = [], []
        for kind in draw(st.lists(st.sampled_from(["random", "cut", "aimed"]), max_size=12)):
            if kind == "aimed":
                col, row = draw(st.sampled_from(aims))
                target = Point2(origin.x + (col + 0.5) * resolution, origin.y + (row + 0.5) * resolution)
                angles.append(math.atan2(target.y - pose.y, target.x - pose.x) - pose.heading)
                ranges.append(pose.position.distance_to(target))
                continue
            angles.append(draw(st.floats(-math.pi, math.pi)))
            if kind == "cut":
                ranges.append(draw(st.sampled_from(
                    [cut, range_max, math.nextafter(cut, 0.0), math.inf])))
            else:
                ranges.append(draw(st.floats(0.0, 1.5 * range_max)))
        frames.append((tick, pose, beam_scan(angles, ranges, range_max, pose, tick)))
    return metric, frames


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(case=fold_cases())
def test_dynamic_fold_matches_per_beam_reference(case):
    metric, frames = case
    dmap = DrivingMap(metric, robot_radius=metric.resolution / 2)
    static = dmap.static.tolist()
    reference: dict[tuple[int, int], int] = {}
    for tick, pose, scan in frames:
        expected = reference_dynamic_fold(
            static, reference, metric.origin, metric.resolution, DEFAULT_TTL, scan, pose, tick
        )
        assert dmap.update_dynamic_layer(scan) == expected, tick
        # insertion order too: the snapshot and connectivity walk the dict
        assert list(dmap.dynamic.items()) == list(reference.items()), tick
        assert_due_index(dmap, tick)


def assert_due_index(dmap, tick):
    """The fold's due buckets after a fold at tick: none is due yet, their
    expiries rise, there are at most DEFAULT_TTL of them, and every live
    cell sits in the bucket of its own expiry."""
    expiries = [expiry for expiry, _ in dmap._due]
    assert expiries == sorted(set(expiries)), expiries
    assert all(tick < expiry <= tick + DEFAULT_TTL for expiry in expiries), (tick, expiries)
    assert len(expiries) <= DEFAULT_TTL
    pending = {(cell, expiry) for expiry, cells in dmap._due for cell in cells}
    assert all(entry in pending for entry in dmap.dynamic.items())


def test_cell_that_expires_and_is_hit_again_on_one_tick_moves_to_the_end():
    dmap = DrivingMap(open_map(10, 10, 1.0), robot_radius=0.8)
    static = dmap.static.tolist()
    pose = Pose2(0.5, 0.5, 0.0)
    a, b, c = Point2(4.5, 0.5), Point2(6.5, 0.5), Point2(0.5, 5.5)
    ttl = DEFAULT_TTL
    # a and b are due at ttl; a is hit again then, so only b changes, and a
    # re-enters the layer after c
    frames = [(0, [a, b], {(4, 0), (6, 0)}), (5, [c], {(0, 5)}), (ttl, [a], {(6, 0)})]
    reference: dict[tuple[int, int], int] = {}
    for tick, points, changed in frames:
        scan = scan_hitting(points, pose, tick=tick)
        assert reference_dynamic_fold(
            static, reference, Point2(0.0, 0.0), 1.0, ttl, scan, pose, tick
        ) == changed
        assert dmap.update_dynamic_layer(scan) == changed, tick
        assert list(dmap.dynamic.items()) == list(reference.items()), tick
        assert_due_index(dmap, tick)
    assert list(dmap.dynamic.items()) == [((0, 5), 5 + ttl), ((4, 0), 2 * ttl)]


def test_fold_at_an_earlier_tick_raises_and_changes_nothing():
    # the due buckets assume ticks never decrease; an earlier tick would
    # expire its hits late
    dmap = DrivingMap(open_map(10, 10, 1.0), robot_radius=0.8)
    pose = Pose2(0.5, 0.5, 0.0)
    dmap.update_dynamic_layer(scan_hitting([Point2(4.5, 0.5)], pose, tick=5))
    layer, due = list(dmap.dynamic.items()), list(dmap._due)
    with pytest.raises(ValueError, match="earlier"):
        dmap.update_dynamic_layer(scan_hitting([Point2(6.5, 0.5)], pose, tick=4))
    assert list(dmap.dynamic.items()) == layer and list(dmap._due) == due
    # the same tick again is no earlier
    assert dmap.update_dynamic_layer(scan_hitting([Point2(6.5, 0.5)], pose, tick=5)) == {(6, 0)}


def test_dynamic_fold_edge_cases_match_reference():
    rows = ["......", "....#.", "......"]
    dmap = DrivingMap(metric_from_rows(rows, 1.0), robot_radius=0.5)
    static = dmap.static.tolist()
    pose = Pose2(0.5, 1.5, 0.0)
    cut = 10.0 - 1e-9
    empty = ((), ())
    # beams: a free cell, (3, 1) beside static-lethal (4, 1), (4, 1) itself,
    # (3, 2) diagonal to it, exactly at the cut, off the grid ahead and
    # behind, and (0, 2) above
    diagonal = (math.atan2(1.0, 3.0), math.hypot(1.0, 3.0))
    full = (
        (0.0, 0.0, 0.0, diagonal[0], 0.0, 0.0, math.pi, math.pi / 2),
        (1.0, 3.0, 4.0, diagonal[1], cut, 7.0, 3.0, 1.0),
    )
    above = ((math.pi / 2,), (1.0,))
    ttl = DEFAULT_TTL
    frames = [(0, empty, set()), (1, full, {(1, 1), (0, 2)}), (2, above, set()),
              (ttl, empty, set()), (ttl + 1, empty, {(1, 1)}), (ttl + 2, empty, {(0, 2)}),
              (ttl + 3, empty, set())]
    reference: dict[tuple[int, int], int] = {}
    for tick, (angles, ranges), changed in frames:
        scan = beam_scan(angles, ranges, 10.0, pose, tick)
        assert reference_dynamic_fold(
            static, reference, Point2(0.0, 0.0), 1.0, ttl, scan, pose, tick
        ) == changed
        assert dmap.update_dynamic_layer(scan) == changed, tick
        assert list(dmap.dynamic.items()) == list(reference.items()), tick


MISSIONS = {
    "demo": data_dir() / "demo.scenario",
    "noisy": Path(__file__).resolve().parents[1] / "missionbench" / "scenarios" / "noisy.scenario",
}


@pytest.mark.parametrize("name", sorted(MISSIONS))
def test_dynamic_fold_of_mission_scans_matches_per_beam_reference(name, monkeypatch):
    # The first 60 ticks of a mission: each lidar scan folds as the per-beam
    # reference folds it beam by beam, and leaves the dynamic dict in the
    # same order.
    scenario = dataclasses.replace(load_scenario(MISSIONS[name]), max_ticks=60)
    fold = DrivingMap.update_dynamic_layer
    reference: dict[tuple[int, int], int] = {}
    changes = []

    def checked(dmap, scan):
        tick = scan.tick
        expected = reference_dynamic_fold(
            dmap.static.tolist(), reference, dmap.origin, dmap.resolution, DEFAULT_TTL,
            scan, scan.pose, tick,
        )
        changed = fold(dmap, scan)
        assert changed == expected, tick
        assert list(dmap.dynamic.items()) == list(reference.items()), tick
        changes.append((tick, len(changed)))
        return changed

    monkeypatch.setattr(DrivingMap, "update_dynamic_layer", checked)
    execute_mission(scenario)
    # a scan per tick, two on a tick where one leg ends and the next begins
    assert {tick for tick, _ in changes} == set(range(60))
    assert sum(count for _, count in changes) > 0


def test_due_buckets_index_every_live_cell_over_a_noisy_mission(monkeypatch):
    # After every fold of a whole noisy mission each live cell sits in the
    # pending bucket of its own expiry, and at most DEFAULT_TTL buckets are
    # pending, so the index cannot grow without bound.
    fold = DrivingMap.update_dynamic_layer
    ticks = []

    def checked(dmap, scan):
        changed = fold(dmap, scan)
        assert_due_index(dmap, scan.tick)
        ticks.append((scan.tick, len(dmap.dynamic)))
        return changed

    monkeypatch.setattr(DrivingMap, "update_dynamic_layer", checked)
    execute_mission(load_scenario(MISSIONS["noisy"]))
    assert [tick for tick, _ in ticks] == list(range(136))
    assert max(live for _, live in ticks) > 10 * DEFAULT_TTL  # many more cells than buckets


def test_no_cell_enters_the_dynamic_layer_without_actors_or_noise(tmp_path, monkeypatch):
    # With the bundled world's actors deleted and no lidar noise, every
    # return is a wall's, and every wall is in the static map: over the whole
    # mission no cell enters the dynamic layer.
    world = (data_dir() / "convention_center.world").read_text()
    world = re.sub(r"\s*<actor .*?</actor>", "", world, flags=re.S)
    assert "<actor" not in world
    (tmp_path / "no_actors.world").write_text(world)
    text = MISSIONS["demo"].read_text()
    assert "path = convention_center.world" in text and "noise_sigma = 0.0" in text
    path = tmp_path / "no_actors.scenario"
    path.write_text(text.replace("path = convention_center.world", "path = no_actors.world"))
    fold = DrivingMap.update_dynamic_layer
    hits = []

    def checked(dmap, scan):
        changed = fold(dmap, scan)
        assert dmap.dynamic == {}, scan.tick
        hits.append(int((scan.ranges < scan.range_max - 1e-9).sum()))
        return changed

    monkeypatch.setattr(DrivingMap, "update_dynamic_layer", checked)
    report = execute_mission(load_scenario(path)).report
    assert report.success
    assert len(hits) == report.ticks_used + 1  # the arrival tick is scanned too
    assert sum(hits) > 100 * len(hits)  # the walls return most beams


@pytest.mark.parametrize(
    "angles, ranges",
    [((0.0, 0.3), (1.0, math.nan)), ((0.0, 0.3), (1.0, -math.inf)), ((math.nan,), (1.0,))],
    ids=["nan_range", "negative_inf_range", "nan_angle"],
)
def test_non_finite_beam_raises_and_changes_nothing(angles, ranges):
    # a silent skip would hide a sensor fault
    dmap = DrivingMap(open_map(6, 6, 1.0), robot_radius=0.5)
    with pytest.raises(ValueError):
        dmap.update_dynamic_layer(beam_scan(angles, ranges, 10.0, Pose2(0.5, 0.5, 0.0)))
    assert dmap.dynamic == {}


def test_numpy_trig_matches_math_bitwise():
    angles = np.random.default_rng(20).uniform(-2.0 * math.pi, 2.0 * math.pi, 200_000)
    for vectorized, scalar in ((np.cos, math.cos), (np.sin, math.sin)):
        expected = np.array([scalar(a) for a in angles.tolist()])
        assert np.array_equal(vectorized(angles).view(np.int64), expected.view(np.int64)), (
            f"np.{vectorized.__name__} differs from math.{scalar.__name__} in the last bit on "
            "this machine: the dynamic layer and the lidar compute beam headings with numpy, "
            "and report identity with the scalar per-beam fold depends on the two agreeing"
        )


# --- global planning ---

def test_diagonal_run_on_empty_grid():
    dmap = DrivingMap(open_map(10, 10, 1.0), robot_radius=0.8)
    result = plan_global(dmap, (0, 0), (9, 9))
    assert result is not None
    path, cost = result
    assert len(path) == 10
    assert cost == (0, 900)


def test_goal_surrounded_by_lethal_is_unreachable():
    rows = [
        ".....",
        ".###.",
        ".#.#.",
        ".###.",
        ".....",
    ]
    dmap = DrivingMap(metric_from_rows(rows, 1.0), robot_radius=0.4)
    assert plan_global(dmap, (0, 0), (2, 2)) is None


def test_blocked_endpoints_are_unreachable():
    rows = ["..", "#."]
    dmap = DrivingMap(metric_from_rows(rows, 1.0), robot_radius=0.4)
    assert plan_global(dmap, (0, 1), (1, 0)) is None  # start lethal
    assert plan_global(dmap, (1, 0), (0, 1)) is None  # goal lethal


def test_start_equals_goal():
    dmap = DrivingMap(open_map(3, 3, 1.0), robot_radius=0.4)
    path, cost = plan_global(dmap, (1, 1), (1, 1))
    assert path == [(1, 1)] and cost == (0, 0)


def test_diagonal_corner_cutting_forbidden():
    rows = ["..", ".#"][::-1]  # lethal at (1, 0) in map coordinates
    dmap = DrivingMap(metric_from_rows(["#.", ".."], 1.0), robot_radius=0.4)
    # map: (0,0) lethal. plan (1,0) -> (0,1) must go around via (1,1)
    result = plan_global(dmap, (1, 0), (0, 1))
    assert result is not None
    path, cost = result
    assert (0, 0) not in path
    assert len(path) == 3 and cost.b == 0


def random_costmap(rng, width=32, height=32, obstacle_rate=0.2, radius=0.3):
    rows = [
        "".join("#" if rng.random() < obstacle_rate else "." for _ in range(width))
        for _ in range(height)
    ]
    return DrivingMap(metric_from_rows(rows, 0.1), robot_radius=radius)


def pick_free_cells(rng, dmap, count=2):
    free = [
        (c, r)
        for r in range(dmap.height)
        for c in range(dmap.width)
        if dmap.traversable(c, r)
    ]
    return [free[rng.randrange(len(free))] for _ in range(count)]


# Thin and non-square maps catch a width/height/stride mix-up in the padded
# flat index and put most cells next to its border.
NON_SQUARE = ((23, 7), (7, 23), (40, 3))


def test_plan_global_matches_dijkstra_oracle():
    rng = random.Random(1234)
    agree = 0
    for width, height in [(20, 20)] * 40 + list(NON_SQUARE) * 10:
        dmap = random_costmap(rng, width=width, height=height)
        start, goal = pick_free_cells(rng, dmap)
        grid = composite_grid(dmap)
        expected = dijkstra_pair_cost(grid, start, goal)
        result = plan_global(dmap, start, goal)
        if expected is None:
            assert result is None
        else:
            assert result is not None
            path, cost = result
            assert (cost.a, cost.b) == expected
            assert path_cost(dmap, path) == cost
            agree += 1
    assert agree > 10  # most instances should be solvable


def test_plan_global_deterministic_cell_sequence():
    rng = random.Random(77)
    dmap = random_costmap(rng, width=16, height=16)
    start, goal = pick_free_cells(rng, dmap)
    first = plan_global(dmap, start, goal)
    second = plan_global(dmap, start, goal)
    assert first == second


def test_plan_global_matches_the_reference_a_star():
    # The reference is the A* plan_global replaced: the same cost, and None
    # on the same inputs. Its path is the one reference_search_path derives
    # without a search. Dynamic cells sit on top, and an endpoint may be
    # blocked or off the map.
    rng = random.Random(2002)
    found = refused = 0
    for width, height in [(16, 16)] * 80 + list(NON_SQUARE) * 25:
        rate = rng.choice([0.1, 0.2])
        dmap = random_costmap(rng, width=width, height=height, obstacle_rate=rate)
        for _ in range(rng.randint(0, 8)):
            dmap.dynamic[rng.randrange(width), rng.randrange(height)] = 10**9
        ends = pick_free_cells(rng, dmap)
        for k in range(2):
            kind = rng.random()
            if kind < 0.1:
                ends[k] = rng.choice([(-1, 0), (width, height - 1), (0, height), (width - 1, -1)])
            elif kind < 0.2:
                ends[k] = (rng.randrange(width), rng.randrange(height))
        start, goal = ends
        expected = reference_plan_global(dmap, start, goal)
        result = plan_global(dmap, start, goal)
        assert (result is None) == (expected is None), (width, height, start, goal)
        path = reference_search_path(composite_grid(dmap), start, goal)
        assert (None if result is None else result[0]) == path, (width, height, start, goal)
        if expected is None:
            refused += not (dmap.traversable(*start) and dmap.traversable(*goal))
        else:
            assert result[1] == expected[1], (width, height, start, goal)
            found += 1
    assert found > 100 and refused > 20


def test_planned_path_avoids_blocked_cells():
    rng = random.Random(31)
    for _ in range(10):
        dmap = random_costmap(rng, width=18, height=18)
        start, goal = pick_free_cells(rng, dmap)
        result = plan_global(dmap, start, goal)
        if result is None:
            continue
        path, _ = result
        for cell in path:
            assert dmap.composite(*cell) < UNKNOWN_COST
        for u, v in zip(path, path[1:]):
            assert max(abs(u[0] - v[0]), abs(u[1] - v[1])) == 1
            assert grid_edge_cost(composite_grid(dmap), u, v) is not None


# --- incremental replanning ---

def test_a_new_replan_state_has_searched_nothing(monkeypatch):
    # A state searches nothing until its first repair, which runs the one
    # search plan_global runs and keeps that search's g.
    dmap = DrivingMap(open_map(12, 8, 1.0), robot_radius=0.8)
    start, goal = (0, 4), (11, 4)
    calls = []
    search = navigation._search

    def search_spy(dmap, start, goal):
        calls.append((start, goal))
        return search(dmap, start, goal)

    monkeypatch.setattr(navigation, "_search", search_spy)
    rs = ReplanState(dmap, start, goal)
    assert calls == [] and rs.g == []
    path = replan_incremental(rs, set())
    assert calls == [(start, goal)]
    assert (path, decode(rs.g[dmap.index(start)])) == plan_global(dmap, start, goal)
    assert calls == [(start, goal)] * 2


def test_zero_changes_keep_path_identical():
    dmap = DrivingMap(open_map(12, 12, 1.0), robot_radius=0.8)
    rs = ReplanState(dmap, (0, 0), (11, 7))
    first = replan_incremental(rs, set())
    assert replan_incremental(rs, set()) == first


def test_far_away_block_keeps_cost():
    dmap = DrivingMap(open_map(20, 20, 1.0), robot_radius=0.8)
    rs = ReplanState(dmap, (0, 10), (19, 10))
    before = path_cost(dmap, replan_incremental(rs, set()))
    dmap.dynamic[(3, 0)] = 10_000  # corner cell, far from the corridor
    after = replan_incremental(rs, {(3, 0)})
    assert path_cost(dmap, after) == before


def toggle_cells(rng, dmap, count):
    changed = set()
    for _ in range(count):
        cell = (rng.randrange(dmap.width), rng.randrange(dmap.height))
        if cell in dmap.dynamic:
            del dmap.dynamic[cell]
        else:
            dmap.dynamic[cell] = 10**9  # never expires during the trial
        changed.add(cell)
    return changed


def toggle_cells_at(dmap, cells):
    """Flip each cell in or out of the dynamic layer; returns them as a set."""
    for cell in cells:
        if cell in dmap.dynamic:
            del dmap.dynamic[cell]
        else:
            dmap.dynamic[cell] = 10**9
    return set(cells)


def ends_open(dmap, start, goal):
    """Whether both end cells are open: a repair searches exactly then."""
    return dmap.traversable(*start) and dmap.traversable(*goal)


def test_replan_equals_fresh_plan_after_random_toggles():
    rng = random.Random(90210)
    for trial, (width, height) in enumerate([(16, 16)] * 60 + list(NON_SQUARE) * 10):
        dmap = random_costmap(rng, width=width, height=height, obstacle_rate=0.15)
        start, goal = pick_free_cells(rng, dmap)
        rs = ReplanState(dmap, start, goal)
        replan_incremental(rs, set())  # the first search
        for _ in range(rng.randint(1, 4)):
            changed = toggle_cells(rng, dmap, rng.randint(1, 20))
            repaired = replan_incremental(rs, changed)
            fresh = plan_global(dmap, start, goal)
            if fresh is None:
                assert repaired is None, f"trial {trial}"
            else:
                assert repaired is not None, f"trial {trial}"
                assert path_cost(dmap, repaired) == fresh[1], f"trial {trial}"


def toggle_rim_cells(rng, dmap, count):
    """toggle_cells, plus one to four cells on the map's edges and corners,
    beside the LETHAL border."""
    right, top = dmap.width - 1, dmap.height - 1
    rim = [
        (0, 0), (right, 0), (0, top), (right, top),
        (rng.randint(0, right), 0), (rng.randint(0, right), top),
        (0, rng.randint(0, top)), (right, rng.randint(0, top)),
    ]
    changed = toggle_cells(rng, dmap, count)
    return changed | toggle_cells_at(
        dmap, [cell for cell in rng.sample(rim, rng.randint(1, 4)) if cell not in changed]
    )


def test_a_repair_is_plan_global_on_the_same_inputs():
    # Every repair searches afresh: after random toggles, some on the map's
    # edges or on the goal, and start moves, some to a random cell that may
    # be blocked, replan_incremental returns plan_global's path from the new
    # start, and None on the same inputs. When both end cells are open, the
    # g it keeps holds exactly the oracle's settled cells and costs.
    rng = random.Random(8128)
    seen = Counter()
    for trial, (width, height) in enumerate([(16, 16)] * 40 + list(NON_SQUARE) * 10):
        dmap = random_costmap(rng, width=width, height=height, obstacle_rate=0.15)
        start, goal = pick_free_cells(rng, dmap)
        rs = ReplanState(dmap, start, goal)
        path = replan_incremental(rs, set())  # the first search
        for _ in range(rng.randint(2, 6)):
            if path is not None and len(path) > 2 and rng.random() < 0.8:
                start = path[1]  # the robot moves one step along its path
            else:
                start = (rng.randrange(width), rng.randrange(height))
            changed = toggle_rim_cells(rng, dmap, rng.randint(1, 25))
            if rng.random() < 0.1:
                changed |= toggle_cells_at(dmap, [goal])
            path = replan_incremental(rs, changed, new_start=start)
            fresh = plan_global(dmap, start, goal)
            assert path == (None if fresh is None else fresh[0]), f"trial {trial}"
            if not ends_open(dmap, start, goal):
                seen["blocked start" if dmap.traversable(*goal) else "blocked goal"] += 1
                continue
            seen["path" if path is not None else "apart"] += 1
            settled = {dmap.cell(i): decode(g) for i, g in enumerate(rs.g) if g < INF}
            assert settled == reference_settled_costs(composite_grid(dmap), start, goal), (
                f"trial {trial}"
            )
    assert min(seen[k] for k in ("blocked start", "blocked goal", "path", "apart")) > 5, seen


@st.composite
def padded_snapshots(draw):
    """A padded flat costmap with a LETHAL border and an interior of free,
    inflated, UNKNOWN and LETHAL cells."""
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    interior = draw(
        st.lists(
            st.one_of(
                st.just(0), st.integers(1, INSCRIBED), st.just(UNKNOWN_COST), st.just(LETHAL)
            ),
            min_size=width * height,
            max_size=width * height,
        )
    )
    stride = width + 2
    costs = [LETHAL] * (stride * (height + 2))
    for k, c in enumerate(interior):
        row, col = divmod(k, width)
        costs[(row + 1) * stride + col + 1] = c
    return costs, stride, width, height


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(snapshot=padded_snapshots())
def test_moves_rule_is_symmetric(snapshot):
    # The search relaxes the moves j of each vertex i it settles as its
    # predecessors: that needs j in _moves(i) exactly when i is in _moves(j),
    # and the step j -> i to cost STRAIGHT or DIAG of costs[i] by direction.
    # The search and the path extraction scan the rule from
    # navigation._move_offsets, which must list the same moves in the same
    # order.
    costs, stride, width, height = snapshot
    interior = [(row + 1) * stride + col + 1 for row in range(height) for col in range(width)]
    moves = {i: dict(_moves(costs, stride, i)) for i in interior}
    for i in interior:
        scanned = [
            (i + d, (DIAG if diagonal else STRAIGHT)[costs[i + d]])
            for d, a, b, diagonal in navigation._move_offsets(stride)
            if max(costs[i], costs[i + d], costs[i + a], costs[i + b]) < UNKNOWN_COST
        ]
        assert scanned == _moves(costs, stride, i)
        for j in moves[i]:
            assert j in moves, "a move leaves the interior"
            assert i in moves[j]
            step = STRAIGHT[costs[i]] if abs(j - i) in (1, stride) else DIAG[costs[i]]
            assert moves[j][i] == step


def test_replan_with_moving_start():
    rng = random.Random(1414)
    for trial in range(20):
        dmap = random_costmap(rng, width=16, height=16, obstacle_rate=0.12)
        start, goal = pick_free_cells(rng, dmap)
        rs = ReplanState(dmap, start, goal)
        path = replan_incremental(rs, set())  # the first search
        for _ in range(4):
            if path is not None and len(path) > 2:
                start = path[1]  # advance the robot one step along the path
            changed = toggle_cells(rng, dmap, rng.randint(1, 6))
            path = replan_incremental(rs, changed, new_start=start)
            fresh = plan_global(dmap, start, goal)
            if fresh is None:
                assert path is None, f"trial {trial}"
            else:
                assert path is not None, f"trial {trial}"
                assert path_cost(dmap, path) == fresh[1], f"trial {trial}"


def test_replan_unreachable_after_walling_off():
    dmap = DrivingMap(open_map(8, 8, 1.0), robot_radius=0.8)
    rs = ReplanState(dmap, (0, 4), (7, 4))
    assert replan_incremental(rs, set()) is not None
    changed = set()
    for row in range(8):
        dmap.dynamic[(4, row)] = 10**9
        changed.add((4, row))
    assert replan_incremental(rs, changed) is None
    # opening one gap restores a path
    del dmap.dynamic[(4, 6)]
    path = replan_incremental(rs, {(4, 6)})
    fresh = plan_global(dmap, (0, 4), (7, 4))
    assert path is not None and path_cost(dmap, path) == fresh[1]


def test_replan_skips_search_while_start_is_cut_off():
    dmap = DrivingMap(open_map(12, 8, 1.0), robot_radius=0.8)
    start, goal = (0, 4), (11, 4)
    rs = ReplanState(dmap, start, goal)
    replan_incremental(rs, set())  # the first search
    g_before = list(rs.g)
    # block the start cell, and at the same time block the straight route
    # everywhere but a gap in the top row
    barrier = {(6, row) for row in range(7)}
    for cell in barrier | {start}:
        dmap.dynamic[cell] = 10**9
    assert replan_incremental(rs, barrier | {start}) is None
    assert rs.g == g_before  # no expansion ran
    # reopening only the start must still route round the barrier, which
    # that call was not told of
    del dmap.dynamic[start]
    path = replan_incremental(rs, {start})
    fresh = plan_global(dmap, start, goal)
    assert path is not None and path_cost(dmap, path) == fresh[1]
    assert (6, 7) in path


def test_first_search_between_walled_off_cells_settles_the_goal_side():
    # Both end cells are open but a dynamic wall parts them: the first
    # repair searches, finds no path and leaves the goal's side settled, each
    # finite g the exact cost to the goal, and a later repair searches afresh.
    dmap = DrivingMap(open_map(8, 8, 1.0), robot_radius=0.8)
    start, goal = (0, 4), (7, 4)
    for row in range(8):
        dmap.dynamic[(4, row)] = 10**9
    rs = ReplanState(dmap, start, goal)
    assert replan_incremental(rs, set()) is None
    grid = composite_grid(dmap)
    settled = {dmap.cell(i): g for i, g in enumerate(rs.g) if g < INF}
    assert set(settled) == {(col, row) for col in range(5, 8) for row in range(8)}
    for cell, g in settled.items():
        assert decode(g) == dijkstra_pair_cost(grid, cell, goal), cell
    del dmap.dynamic[(4, 6)]
    path = replan_incremental(rs, {(4, 6)})
    fresh = plan_global(dmap, start, goal)
    assert path is not None and path_cost(dmap, path) == fresh[1]


def test_replan_skips_search_when_goal_is_blocked():
    dmap = DrivingMap(open_map(8, 8, 1.0), robot_radius=0.8)
    rs = ReplanState(dmap, (0, 4), (7, 4))
    replan_incremental(rs, set())  # the first search
    g_before = list(rs.g)
    dmap.dynamic[(7, 4)] = 10**9
    assert replan_incremental(rs, {(7, 4)}) is None
    assert rs.g == g_before


# --- waypoint following ---

def test_follow_rotates_in_place_when_facing_away():
    pose = Pose2(0.0, 0.0, math.pi)  # target is dead astern
    v, omega = follow_step(pose, [Point2(5.0, 0.0)])
    assert v == 0.0
    assert abs(omega) == 1.5


def test_follow_speed_scales_with_heading_error():
    v, _ = follow_step(Pose2(0.0, 0.0, math.pi / 4), [Point2(5.0, 0.0)])
    assert v == pytest.approx(math.cos(math.pi / 4), abs=1e-12)


def test_follow_targets_furthest_waypoint_within_lookahead():
    waypoints = [Point2(0.1 * i, 0.0) for i in range(1, 30)]
    v, omega = follow_step(Pose2(0.0, 0.0, 0.0), waypoints)
    # the 0.5 m lookahead point lies straight ahead: drive at full speed
    assert v == pytest.approx(1.0)
    assert omega == pytest.approx(0.0)


def test_follow_corridor_distance_close_to_path_length():
    # follow_step only chooses commands; the simulator moves the robot
    waypoints = [Point2(0.5 + 0.5 * i, 0.5) for i in range(9)]  # 4 m straight
    empty = WorldDescription(
        name="empty", spaces=(), elements=(), actors=(),
        robot_spawn=Pose2(0.5, 0.5, 0.0), robot_radius=0.25,
    )
    ws = make_world_state(empty)
    traveled = 0.0
    for _ in range(200):
        # the mission engine's arrival rule
        if ws.pose.position.distance_to(waypoints[-1]) <= GOAL_TOLERANCE:
            break
        command = follow_step(ws.pose, waypoints)
        traveled += abs(command[0]) * 0.1
        step(ws, 0.1, command)
    else:
        pytest.fail("the robot never came within GOAL_TOLERANCE of the last waypoint")
    path_length = 4.0
    assert abs(traveled - path_length) / path_length < 0.05


def test_follow_requires_waypoints():
    with pytest.raises(ValueError):
        follow_step(Pose2(0, 0, 0), [])


# --- exports ---

def test_cells_to_points():
    dmap = DrivingMap(open_map(4, 4, 0.5), robot_radius=0.4)
    points = cells_to_points(dmap, [(0, 0), (1, 1)])
    assert points == [Point2(0.25, 0.25), Point2(0.75, 0.75)]
