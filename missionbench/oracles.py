"""Independent checks of one mission's outputs.

Each check restates a documented rule of the program (STRIPS semantics, the
costmap's move costs, lidar geometry, the robot's speed limits, tier
capacities) in the plainest form and compares the program's output with it.
Nothing here calls the package's planners, searches or sensor models; the
package supplies only its parsed data (world geometry, grounded actions,
the costmap's static layer and dynamic cells). A failed check raises
CheckFailed with a message naming what differed.
"""

from __future__ import annotations

import heapq
import math

from semnav.planner import Fact

SQRT2 = math.sqrt(2.0)

# Costmap rules (navigation module docstring): cells at or above 253 are
# untraversable, a dynamic hit costs 254, and a move into a cell of cost c
# costs (100 + c) straight or (100 + c) * sqrt(2) diagonally.
BLOCKED = 253
DYNAMIC_COST = 254

# The follow_step limits the mission engine drives with (it passes no
# overrides), and the simulator's own-body hit cutoff.
V_MAX = 1.0
OMEGA_MAX = 1.5
MIN_HIT = 1e-9

# Path costs are integer pairs (a, b) worth a + b*sqrt(2). Two distinct pairs
# differ by at least 1 / (|da| + |db|*sqrt(2)) because (da + db*sqrt(2)) *
# (da - db*sqrt(2)) is a non-zero integer. Below this magnitude that gap is
# over 4e-7 while float64 error stays under 1e-8, so float keys order the
# pairs exactly and equal floats mean equal pairs.
EXACT_LIMIT = 10**6


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- task plan ---


def initial_state(world, start_space: str) -> frozenset:
    """The mission's symbolic start state, rebuilt from the world file: the
    robot's place, every authored relation, and the reverse of each
    connected/adjacent relation (corridors carry traffic both ways)."""
    facts = {Fact("at", ("robot", start_space))}
    for record in world.all_elements():
        for rel in record.implicit:
            facts.add(Fact(rel.predicate, (rel.subject, rel.object)))
            if rel.predicate in ("connected", "adjacent"):
                facts.add(Fact(rel.predicate, (rel.object, rel.subject)))
    return frozenset(facts)


def replay_plan(state: frozenset, actions, goal) -> float:
    """STRIPS replay: every precondition holds when its action starts and
    the goal holds at the end. Returns the summed action cost."""
    current = set(state)
    total = 0.0
    for i, action in enumerate(actions):
        missing = action.preconditions - current
        require(not missing, f"plan step {i} {action.name}: preconditions {sorted(map(str, missing))} do not hold")
        current -= action.del_effects
        current |= action.add_effects
        total += action.cost
    unmet = set(goal) - current
    require(not unmet, f"plan ends without goal facts {sorted(map(str, unmet))}")
    return total


def uniform_cost(state: frozenset, actions, goal) -> float | None:
    """Brute-force cheapest cost from state to any state holding the goal,
    trying every action in every reached state."""
    goal = frozenset(goal)
    best = {state: 0.0}
    heap = [(0.0, 0, state)]
    order = 1
    while heap:
        cost, _, current = heapq.heappop(heap)
        if cost > best[current]:
            continue
        if goal <= current:
            return cost
        for action in actions:
            if action.preconditions <= current:
                nxt = (current - action.del_effects) | action.add_effects
                new_cost = cost + action.cost
                if new_cost < best.get(nxt, math.inf):
                    best[nxt] = new_cost
                    heapq.heappush(heap, (new_cost, order, nxt))
                    order += 1
    return None


def check_plan(world, start_space: str, plan, grounded, goal) -> None:
    """The initial plan replays to the goal, its stated cost is the sum of its
    actions, and no cheaper plan exists over the grounded domain."""
    require(plan is not None, "mission produced no initial plan")
    names = {a.name for a in grounded}
    for action in plan.actions:
        require(action.name in names, f"plan action {action.name} is not a grounded action")
    state = initial_state(world, start_space)
    replayed = replay_plan(state, plan.actions, goal)
    require(
        math.isclose(replayed, plan.total_cost, rel_tol=1e-12, abs_tol=1e-12),
        f"plan states cost {plan.total_cost!r}, its actions sum to {replayed!r}",
    )
    optimum = uniform_cost(state, grounded, goal)
    require(optimum is not None, "uniform-cost search finds the goal unreachable")
    require(
        math.isclose(optimum, plan.total_cost, rel_tol=1e-9, abs_tol=1e-9),
        f"plan costs {plan.total_cost!r}, the cheapest plan costs {optimum!r}",
    )


# --- grid search ---


class Grid:
    """The composite costmap at one moment: static costs plus dynamic cells."""

    def __init__(self, static_rows: list[list[int]], dynamic_cells):
        self.rows = static_rows
        self.height = len(static_rows)
        self.width = len(static_rows[0]) if static_rows else 0
        self.dynamic = frozenset(dynamic_cells)

    def cost(self, cell) -> int:
        if cell in self.dynamic:
            return DYNAMIC_COST
        return self.rows[cell[1]][cell[0]]

    def passable(self, cell) -> bool:
        col, row = cell
        return 0 <= col < self.width and 0 <= row < self.height and self.cost(cell) < BLOCKED

    def move(self, u, v) -> tuple[int, int] | None:
        """Cost pair of the single move u -> v, None when it is not allowed."""
        dc, dr = v[0] - u[0], v[1] - u[1]
        if max(abs(dc), abs(dr)) != 1 or not self.passable(u) or not self.passable(v):
            return None
        step = 100 + self.cost(v)
        if dc and dr:
            if not self.passable((u[0] + dc, u[1])) or not self.passable((u[0], u[1] + dr)):
                return None
            return (0, step)
        return (step, 0)


def path_pair(grid: Grid, path) -> tuple[int, int]:
    """Cost pair of a cell path; raises when any move is not allowed."""
    a = b = 0
    for u, v in zip(path, path[1:]):
        pair = grid.move(u, v)
        require(pair is not None, f"path move {u}->{v} is not allowed on the costmap")
        a += pair[0]
        b += pair[1]
    return (a, b)


def dijkstra_pair(grid: Grid, start, goal) -> tuple[int, int] | None:
    """Cheapest cost pair from start to goal over all allowed moves."""
    if not grid.passable(start) or not grid.passable(goal):
        return None
    best = {start: (0, 0)}
    heap = [(0.0, start)]
    done = set()
    while heap:
        _, cell = heapq.heappop(heap)
        if cell in done:
            continue
        done.add(cell)
        a, b = best[cell]
        require(a < EXACT_LIMIT and b < EXACT_LIMIT, "path cost outside the exact float range")
        if cell == goal:
            return best[cell]
        for dc in (-1, 0, 1):
            for dr in (-1, 0, 1):
                nxt = (cell[0] + dc, cell[1] + dr)
                if nxt in done:
                    continue
                pair = grid.move(cell, nxt)
                if pair is None:
                    continue
                cand = (a + pair[0], b + pair[1])
                old = best.get(nxt)
                if old is None or cand[0] + cand[1] * SQRT2 < old[0] + old[1] * SQRT2:
                    best[nxt] = cand
                    heapq.heappush(heap, (cand[0] + cand[1] * SQRT2, nxt))
    return None


def check_path(grid: Grid, start, goal, path, stated_pair=None, oracle_pair="unset") -> None:
    """A planner's answer on one costmap: no path exactly when the oracle
    finds none; otherwise a path from start to goal made of allowed moves
    whose cost is the oracle's optimum (and the stated cost, if given)."""
    optimum = dijkstra_pair(grid, start, goal) if oracle_pair == "unset" else oracle_pair
    if path is None:
        require(optimum is None, f"planner found no path {start}->{goal}, Dijkstra finds cost {optimum}")
        return
    require(optimum is not None, f"planner returned a path {start}->{goal} that Dijkstra finds impossible")
    require(path[0] == start and path[-1] == goal, f"path runs {path[0]}->{path[-1]}, not {start}->{goal}")
    walked = path_pair(grid, path)
    if stated_pair is not None:
        require(walked == stated_pair, f"path states cost {stated_pair}, its moves sum to {walked}")
    require(walked == optimum, f"path costs {walked}, Dijkstra's optimum is {optimum}")


# --- lidar ---


def _ray_segment(px, py, dx, dy, a, b) -> float:
    ex, ey = b[0] - a[0], b[1] - a[1]
    denom = dx * ey - dy * ex
    if abs(denom) < 1e-15:
        return math.inf
    wx, wy = a[0] - px, a[1] - py
    t = (wx * ey - wy * ex) / denom
    u = (wx * dy - wy * dx) / denom
    if t >= MIN_HIT and -1e-12 <= u <= 1.0 + 1e-12:
        return t
    return math.inf


def _ray_circle(px, py, dx, dy, cx, cy, radius) -> float:
    fx, fy = px - cx, py - cy
    half_b = fx * dx + fy * dy
    disc = half_b * half_b - (fx * fx + fy * fy - radius * radius)
    if disc < 0.0:
        return math.inf
    root = math.sqrt(disc)
    for t in (-half_b - root, -half_b + root):
        if t >= MIN_HIT:
            return t
    return math.inf


def expected_range(pose, angle, segments, disks, range_max) -> float:
    heading = pose.heading + angle
    dx, dy = math.cos(heading), math.sin(heading)
    best = range_max
    for a, b in segments:
        best = min(best, _ray_segment(pose.x, pose.y, dx, dy, a, b))
    for cx, cy, radius in disks:
        best = min(best, _ray_circle(pose.x, pose.y, dx, dy, cx, cy, radius))
    return best


def static_segments(world) -> list:
    """Outline segments of every static element with a footprint."""
    segments = []
    for record in world.elements:
        model = record.explicit.model2d
        if record.is_space or model is None or not record.explicit.physical.is_static:
            continue
        points = [(p.x, p.y) for p in model.vertices]
        segments.extend(zip(points, points[1:] + points[:1]))
    return segments


def check_lidar(scan, fov: float, beams, segments, disks, tol: float = 1e-9) -> None:
    """The sampled beams of a noise-free scan hit where the geometry says."""
    count = len(scan.ranges)
    spacing = fov / (count - 1) if count > 1 else 0.0
    for i in beams:
        angle = -fov / 2.0 + i * spacing
        require(abs(scan.angles[i] - angle) <= 1e-12, f"beam {i} points at {scan.angles[i]!r}, not {angle!r}")
        want = expected_range(scan.pose, angle, segments, disks, scan.range_max)
        got = scan.ranges[i]
        require(abs(got - want) <= tol, f"beam {i} reads {got!r}, geometry gives {want!r}")


# --- trace ---


def _inside(x: float, y: float, polygon) -> bool:
    """Even-odd test; points on an edge count as inside."""
    inside = False
    n = len(polygon)
    for i in range(n):
        (x1, y1), (x2, y2) = polygon[i], polygon[(i + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if abs(cross) <= 1e-12 and min(x1, x2) - 1e-12 <= x <= max(x1, x2) + 1e-12 \
                and min(y1, y2) - 1e-12 <= y <= max(y1, y2) + 1e-12:
            return True
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


def parse_trace(lines) -> list[tuple[int, float, float, float, float, float]]:
    rows = []
    for line in lines:
        tick, x, y, heading, v, omega, _collisions = line.split()
        rows.append((int(tick), float(x), float(y), float(heading), float(v), float(omega)))
    return rows


def check_trace(lines, dt: float, distance_m: float, goal_polygon=None) -> None:
    """Ticks count up by one, no tick moves or turns faster than the robot
    can, the reported distance is the sum of |v| dt over the ticks, and the
    last pose lies in the goal space (when the mission was meant to end there)."""
    rows = parse_trace(lines)
    require(len(rows) >= 1, "empty trace")
    travelled = 0.0
    for prev, cur in zip(rows, rows[1:]):
        require(cur[0] == prev[0] + 1, f"trace jumps from tick {prev[0]} to tick {cur[0]}")
        v, omega = cur[4], cur[5]
        require(abs(v) <= V_MAX + 1e-9 and abs(omega) <= OMEGA_MAX + 1e-9, f"tick {cur[0]} commands v={v} omega={omega}")
        moved = math.hypot(cur[1] - prev[1], cur[2] - prev[2])
        require(moved <= V_MAX * dt + 1e-8, f"tick {cur[0]} moves {moved:.9f} m, more than v_max*dt")
        turn = abs(math.remainder(cur[3] - prev[3], math.tau))
        require(turn <= OMEGA_MAX * dt + 1e-8, f"tick {cur[0]} turns {turn:.9f} rad, more than omega_max*dt")
        travelled += abs(v) * dt
    require(
        abs(travelled - distance_m) <= 1e-6,
        f"report says {distance_m!r} m, the trace sums to {travelled!r} m",
    )
    if goal_polygon is not None:
        _, x, y = rows[-1][:3]
        require(_inside(x, y, goal_polygon), f"mission ends at ({x}, {y}), outside the goal space")


# --- store ---


def check_store(tiers: dict, written_back: int) -> None:
    """tiers maps a tier name to (capacity or None, [(key, version, units,
    provenance), ...]). Every bounded tier fits its capacity, and the learned
    entries written back at the end are in CLOUD at the same version."""
    for name, (capacity, entries) in tiers.items():
        used = sum(units for _, _, units, _ in entries)
        if capacity is not None:
            require(used <= capacity, f"tier {name} holds {used} units, capacity {capacity}")
    cloud = {key: version for key, version, _, provenance in tiers["CLOUD"][1] if provenance == "learned"}
    for key, version, _, provenance in tiers["ONDEMAND"][1]:
        if provenance == "learned":
            require(cloud.get(key) == version, f"learned entry {key} v{version} is not in CLOUD")
    require(
        len(cloud) == written_back,
        f"report says {written_back} entries written back, CLOUD holds {len(cloud)} learned entries",
    )


def check_repeat(first: str, again: str) -> None:
    """Two runs of one input give the same canonical report."""
    if first == again:
        return
    for i, (a, b) in enumerate(zip(first.splitlines(), again.splitlines())):
        if a != b:
            raise CheckFailed(f"repeated mission's report differs at line {i + 1}: {a.strip()!r} vs {b.strip()!r}")
    raise CheckFailed("repeated mission's report differs in length")
