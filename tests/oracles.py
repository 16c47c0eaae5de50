"""Independent reference implementations used to check the package against.

Everything here is deliberately written the straightforward, slow way —
plain lists, exhaustive scans, fixpoint loops — and shares no code with the
package beyond its public data types. The exceptions are the eager
replanner, which keeps the package's search bookkeeping and redoes only the
rhs updates the package does incrementally; the reference A*, the
package's earlier dict-based plan_global kept verbatim on the package's
moves rule, which guards plan_global's cost and its None answers but not
its path (plan_global is now the replanner's first search, which breaks
ties its own way); and the reference repair, the package's earlier
replan_incremental and ReplanState._compute kept verbatim, which update
every touched vertex and queue each neighbour through the queue helpers,
and guard the replanner's state and heap entry for entry. The package's
search now scans the moves rule and writes its keys out inline; the
helpers these references were written with, _moves and the queue helpers,
are kept here verbatim as the package had them.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from semnav.geometry import Point2, Pose2, normalize_angle
from semnav.memory import TierId
from semnav.navigation import (
    _NEIGHBOURHOOD,
    DIAG,
    INF,
    PAIR_SUM_LIMIT,
    STRAIGHT,
    UNKNOWN_COST,
    DrivingMap,
    PathCost,
    ReplanState,
    decode,
    octile,
)
from semnav.planner import BehaviorPlan, format_fact


# --- tiered-store replay model ---------------------------------------------

class ReplayTierModel:
    """Single-list LRU replay of the documented tier semantics.

    Tiers are plain lists of [key, version, size, provenance] rows ordered
    least-recent first. Mirrors: probe order, per-probe latency charging,
    promotion into faster tiers, LRU eviction, stale-copy invalidation on
    put, and the learned/on-demand write-back queue.
    """

    def __init__(self, configs):
        self.configs = configs
        self.rows = {tier: [] for tier in TierId}
        self.hits = {tier: 0 for tier in TierId}
        self.misses = {tier: 0 for tier in TierId}
        self.evictions = {tier: 0 for tier in TierId}
        self.latency = {tier: 0 for tier in TierId}
        self.writeback = set()

    def _find(self, tier, key):
        for i, row in enumerate(self.rows[tier]):
            if row[0] == key:
                return i
        return None

    def _evict_to_fit(self, tier):
        capacity = self.configs[tier].capacity
        if capacity is None:
            return
        while sum(r[2] for r in self.rows[tier]) > capacity:
            self.rows[tier].pop(0)
            self.evictions[tier] += 1

    def _insert(self, tier, row):
        capacity = self.configs[tier].capacity
        if capacity is not None and row[2] > capacity:
            return
        i = self._find(tier, row[0])
        if i is not None:
            self.rows[tier].pop(i)
        self.rows[tier].append(list(row))
        self._evict_to_fit(tier)

    def get(self, key):
        """Returns (served_from, latency, version) or None."""
        total = 0
        for tier in sorted(TierId):
            total += self.configs[tier].latency
            self.latency[tier] += self.configs[tier].latency
            i = self._find(tier, key)
            if i is None:
                self.misses[tier] += 1
                continue
            self.hits[tier] += 1
            row = self.rows[tier].pop(i)
            self.rows[tier].append(row)
            for faster in sorted(TierId):
                if faster >= tier:
                    break
                self._insert(faster, row)
            return tier, total, row[1]
        return None

    def put(self, key, size, provenance, tier):
        versions = [
            row[1]
            for t in TierId
            for row in self.rows[t]
            if row[0] == key
        ]
        version = max(versions) + 1 if versions else 1
        for other in TierId:
            if other is not tier:
                i = self._find(other, key)
                if i is not None:
                    self.rows[other].pop(i)
        self._insert(tier, [key, version, size, provenance])
        if provenance == "learned" and tier is TierId.ONDEMAND:
            self.writeback.add(key)

    def keys_in_order(self, tier):
        return [row[0] for row in self.rows[tier]]


def resident(store, key: str, tier) -> bool:
    """Whether the store's tier holds key, read through its entry list."""
    return any(entry.key == key for entry in store.entries(tier))


def bfs_closure(edges: dict[str, set[str]], start: str) -> set[str]:
    """Breadth-first closure over an undirected symbol graph: start's whole
    connected component."""
    undirected: dict[str, set[str]] = {}
    for a, targets in edges.items():
        for b in targets:
            undirected.setdefault(a, set()).add(b)
            undirected.setdefault(b, set()).add(a)
    seen = {start}
    frontier = deque([start])
    while frontier:
        for nxt in undirected.get(frontier.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# --- STRIPS planning oracles ------------------------------------------------

def reachable_states(initial: frozenset, actions) -> set[frozenset]:
    seen = {initial}
    frontier = deque([initial])
    while frontier:
        state = frontier.popleft()
        for action in actions:
            if action.preconditions <= state:
                nxt = frozenset((state - action.del_effects) | action.add_effects)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def optimal_plan_cost(initial: frozenset, goal: frozenset, actions) -> float | None:
    """Bellman-style value iteration over the reachable state lattice; no
    heuristic, no priority queue. Returns the minimum plan cost or None."""
    states = reachable_states(initial, actions)
    dist = {state: math.inf for state in states}
    dist[initial] = 0.0
    changed = True
    while changed:
        changed = False
        for state in states:
            base = dist[state]
            if base == math.inf:
                continue
            for action in actions:
                if action.preconditions <= state:
                    nxt = frozenset((state - action.del_effects) | action.add_effects)
                    candidate = base + action.cost
                    if candidate < dist[nxt]:
                        dist[nxt] = candidate
                        changed = True
    best = None
    for state, d in dist.items():
        if goal <= state and d != math.inf:
            if best is None or d < best:
                best = d
    return best


def enumerate_optimal_plans(initial: frozenset, goal: frozenset, actions, best_cost: float):
    """All minimum-cost plans, as action-name tuples, by exhaustive DFS with
    a cost budget. Only viable for tiny domains."""
    plans: list[tuple[str, ...]] = []

    def walk(state: frozenset, g: float, names: tuple[str, ...]):
        if goal <= state:
            if g == best_cost:
                plans.append(names)
            return
        for action in actions:
            if action.preconditions <= state and g + action.cost <= best_cost:
                nxt = frozenset((state - action.del_effects) | action.add_effects)
                walk(nxt, g + action.cost, names + (action.name,))

    walk(initial, 0.0, ())
    return plans


def replay_plan(initial, actions_sequence, goal) -> tuple[bool, int | None]:
    """Step-through STRIPS replay; returns (ok, index of first bad step)."""
    state = set(initial)
    for i, action in enumerate(actions_sequence):
        if not action.preconditions <= state:
            return False, i
        state = (state - action.del_effects) | action.add_effects
    if not set(goal) <= state:
        return False, None
    return True, None


def validate_plan(initial_facts, plan_: BehaviorPlan, goal) -> tuple[bool, str | None]:
    """Replay the plan; returns (ok, first violation message)."""
    state = set(initial_facts)
    for i, action in enumerate(plan_.actions):
        missing = action.preconditions - state
        if missing:
            fact = sorted(format_fact(f) for f in missing)[0]
            return False, f"step {i} {action.name}: precondition {fact} not satisfied"
        state -= action.del_effects
        state |= action.add_effects
    remaining = set(goal) - state
    if remaining:
        fact = sorted(format_fact(f) for f in remaining)[0]
        return False, f"goal fact {fact} not achieved"
    return True, None


# --- forward-chaining oracle -------------------------------------------------

def naive_fixpoint(facts, rules):
    """Iterate every rule against every argument combination until nothing
    new appears. Brute force over the symbol universe."""
    closure = set(facts)
    symbols = sorted({a for f in closure for a in f.args})
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for binding in _all_bindings(rule, symbols):
                if all(pattern.substitute(binding) in closure for pattern in rule.body):
                    head = rule.head.substitute(binding)
                    if head not in closure:
                        closure.add(head)
                        symbols = sorted({a for f in closure for a in f.args})
                        changed = True
    return closure


def _all_bindings(rule, symbols):
    variables = sorted({v for pattern in rule.body for v in pattern.variables()})
    if not variables:
        yield {}
        return
    def assign(i, binding):
        if i == len(variables):
            yield dict(binding)
            return
        for symbol in symbols:
            binding[variables[i]] = symbol
            yield from assign(i + 1, binding)
        binding.pop(variables[i], None)
    yield from assign(0, {})


# --- exact sqrt(2)-pair arithmetic ------------------------------------------

def cmp_sqrt2(a1, b1, a2, b2):
    """Sign of (a1 + b1*sqrt(2)) - (a2 + b2*sqrt(2)) by integer algebra."""
    da = a1 - a2
    db = b1 - b2
    if da == 0 and db == 0:
        return 0
    if da >= 0 and db >= 0:
        return 1
    if da <= 0 and db <= 0:
        return -1
    lhs = da * da
    rhs = 2 * db * db
    if da > 0:  # db < 0: sign(da - |db|*sqrt2) = sign(da^2 - 2 db^2)
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


def decimal_cmp_sqrt2(a1, b1, a2, b2):
    """The same comparison through 60-digit decimal evaluation. For operands
    below ~1e20 the minimum nonzero gap between two such values (about
    1/(2*sqrt(2)*operand)) is far above the rounding error, so the sign is
    exact."""
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    root2 = Decimal(2).sqrt()
    diff = (Decimal(a1 - a2)) + (Decimal(b1 - b2)) * root2
    if diff == 0:
        return 0
    return 1 if diff > 0 else -1


# --- grid-path oracle --------------------------------------------------------

class _PairPriority:
    """Heap key holding an exact (a, b) pair."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __lt__(self, other):
        return cmp_sqrt2(self.a, self.b, other.a, other.b) < 0

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b


def grid_traversable(grid, col, row):
    return 0 <= row < len(grid) and 0 <= col < len(grid[0]) and grid[row][col] < 253


def grid_edge_cost(grid, u, v):
    """Destination-cell cost of u->v, or None when invalid (blocked endpoint
    or a diagonal cutting a blocked corner)."""
    if not grid_traversable(grid, *u) or not grid_traversable(grid, *v):
        return None
    dc, dr = v[0] - u[0], v[1] - u[1]
    if dc != 0 and dr != 0:
        if not grid_traversable(grid, u[0] + dc, u[1]):
            return None
        if not grid_traversable(grid, u[0], u[1] + dr):
            return None
    return grid[v[1]][v[0]]


def dijkstra_pair_cost(grid, start, goal):
    """Uniform-cost search over the composite grid with exact pair weights.
    Returns the optimal (a, b) with cost = res*(a + b*sqrt(2))/100, or None."""
    if not grid_traversable(grid, *start) or not grid_traversable(grid, *goal):
        return None
    dist = {start: (0, 0)}
    counter = 0
    heap = [(_PairPriority(0, 0), counter, start)]
    done = set()
    while heap:
        prio, _, cell = heapq.heappop(heap)
        if cell in done:
            continue
        done.add(cell)
        if cell == goal:
            return dist[cell]
        a, b = dist[cell]
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                nxt = (cell[0] + dc, cell[1] + dr)
                c = grid_edge_cost(grid, cell, nxt)
                if c is None or nxt in done:
                    continue
                if dr != 0 and dc != 0:
                    cand = (a, b + 100 + c)
                else:
                    cand = (a + 100 + c, b)
                old = dist.get(nxt)
                if old is None or cmp_sqrt2(cand[0], cand[1], old[0], old[1]) < 0:
                    dist[nxt] = cand
                    counter += 1
                    heapq.heappush(heap, (_PairPriority(*cand), counter, nxt))
    return None


# --- point containment ----------------------------------------------------------

def reference_on_segment(p, a, b, eps=1e-12):
    """Whether p lies on segment a-b, within eps, one point at a time."""
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if abs(cross) > eps * max(1.0, abs(b.x - a.x) + abs(b.y - a.y)):
        return False
    dot = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)
    if dot < -eps:
        return False
    sq_len = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
    return dot <= sq_len + eps


def reference_point_in_footprint(p, f):
    """Scalar even-odd containment, boundary inside: any edge through p
    answers at once, then each edge straddling p.y toggles the parity when
    its crossing lies right of p."""
    for a, b in f.edges():
        if reference_on_segment(p, a, b):
            return True
    inside = False
    pts = f.vertices
    n = len(pts)
    j = n - 1
    for i in range(n):
        yi, yj = pts[i].y, pts[j].y
        if (yi > p.y) != (yj > p.y):
            x_cross = pts[j].x + (p.y - yj) * (pts[i].x - pts[j].x) / (yi - yj)
            if p.x < x_cross:
                inside = not inside
        j = i
    return inside


# --- dynamic costmap layer -------------------------------------------------------

def reference_dynamic_fold(static, dynamic, origin, resolution, ttl, scan, pose, tick):
    """One beam at a time, the fold of a scan into a {cell: expiry} dynamic
    layer over a static cost grid (rows by columns): expire entries due at
    tick, then mark each in-range hit cell that is inside the grid and has
    no static-lethal (254) cell in its 3 x 3 block until tick + ttl. Mutates
    dynamic and returns the cells whose composite cost changed. A non-finite
    hit point raises ValueError, through Point2."""
    height, width = len(static), len(static[0])

    def touches_lethal(cell):
        col, row = cell
        return any(
            static[r][c] == 254
            for r in range(max(row - 1, 0), min(row + 2, height))
            for c in range(max(col - 1, 0), min(col + 2, width))
        )

    def composite(cell):
        return 254 if cell in dynamic else int(static[cell[1]][cell[0]])

    affected = {}
    expired = [cell for cell, expiry in dynamic.items() if tick >= expiry]
    for cell in expired:
        affected.setdefault(cell, composite(cell))
        del dynamic[cell]
    for angle, dist in zip(scan.angles, scan.ranges):
        if dist >= scan.range_max - 1e-9:
            continue
        heading = pose.heading + angle
        hit = Point2(pose.x + dist * math.cos(heading), pose.y + dist * math.sin(heading))
        cell = (
            int(math.floor((hit.x - origin.x) / resolution)),
            int(math.floor((hit.y - origin.y) / resolution)),
        )
        if not (0 <= cell[0] < width and 0 <= cell[1] < height):
            continue
        if touches_lethal(cell):
            continue
        affected.setdefault(cell, composite(cell))
        dynamic[cell] = tick + ttl
    return {cell for cell, before in affected.items() if composite(cell) != before}


# --- ray geometry -------------------------------------------------------------

def reference_lidar_ranges(ws, spec):
    """A lidar scan's ranges with one numpy pass per actor disk and the
    noise clamped beam by beam on Python floats, drawing one scalar
    ws.rng.normal per beam in beam order. The static walls come from the
    package's own ray-segment kernel (ws.walls), which this reference does
    not re-derive."""
    lidar = spec.lidar2d
    pose = ws.pose
    if lidar.beam_count == 1:
        rel = (-lidar.fov / 2.0,)
    else:
        spacing = lidar.fov / (lidar.beam_count - 1)
        rel = tuple(-lidar.fov / 2.0 + i * spacing for i in range(lidar.beam_count))
    absolute = np.array(rel) + pose.heading
    dx = np.cos(absolute)
    dy = np.sin(absolute)
    t = ws.walls.ray_hits(pose.x, pose.y, dx, dy)
    best = np.where(t >= 1e-9, t, np.inf).min(axis=1, initial=np.inf)

    for actor in ws.world.actors:
        center = ws.actor_positions[actor.symbol]
        fx = pose.x - center.x
        fy = pose.y - center.y
        b = fx * dx + fy * dy
        c = fx * fx + fy * fy - actor.footprint_radius**2
        disc = b * b - c
        hit = disc >= 0.0
        root = np.sqrt(np.where(hit, disc, 0.0))
        t1 = -b - root
        t2 = -b + root
        t = np.where(t1 >= 1e-9, t1, np.where(t2 >= 1e-9, t2, np.inf))
        t = np.where(hit, t, np.inf)
        best = np.minimum(best, t)

    ranges = np.minimum(best, lidar.range_m)
    if ws.noise_sigma > 0.0:
        noisy = [
            min(lidar.range_m, max(1e-9, r + ws.rng.normal(0.0, ws.noise_sigma)))
            for r in ranges
        ]
        ranges = np.asarray(noisy)
    return ranges.tolist()


def reference_step_pose(ws, dt, command):
    """The robot's pose after one step of command over dt, and whether a
    wall stopped it: the motion is clamped a hair short of the first wall
    crossing in [0, |v*dt|] over every wall segment, from the package's own
    ray-segment kernel (ws.walls.ray_hits, unculled)."""
    v, omega = command
    pose = ws.pose
    move = v * dt
    x = pose.x + move * math.cos(pose.heading)
    y = pose.y + move * math.sin(pose.heading)
    stopped = False
    if abs(move) > 1e-15:
        sign = 1.0 if move >= 0 else -1.0
        ux, uy = math.cos(pose.heading) * sign, math.sin(pose.heading) * sign
        ahead = [t for t in ws.walls.ray_hits(pose.x, pose.y, ux, uy)[0].tolist()
                 if 0.0 <= t <= abs(move)]
        if ahead:
            allowed = max(0.0, min(ahead) - 1e-9)
            x, y, stopped = pose.x + ux * allowed, pose.y + uy * allowed, True
    return Pose2(x, y, normalize_angle(pose.heading + omega * dt)), stopped


def oracle_ray_segment(px, py, dx, dy, a, b):
    """Ray ((px,py) + t*(dx,dy)) against segment a-b by Cramer's rule.
    Returns the smallest t >= 0 or None."""
    ex, ey = b.x - a.x, b.y - a.y
    denom = dx * ey - dy * ex
    if denom == 0.0:
        return None
    wx, wy = a.x - px, a.y - py
    t = (wx * ey - wy * ex) / denom
    s = (wx * dy - wy * dx) / denom
    if t >= 0.0 and 0.0 <= s <= 1.0:
        return t
    return None


def oracle_ray_circle(px, py, dx, dy, cx, cy, radius):
    """Smallest non-negative ray parameter hitting the circle, or None."""
    fx, fy = px - cx, py - cy
    a = dx * dx + dy * dy
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - radius * radius
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    for t in ((-b - root) / (2.0 * a), (-b + root) / (2.0 * a)):
        if t >= 0.0:
            return t
    return None


def segments_properly_cross(p, q, a, b):
    """Strict segment crossing by orientation signs; shared endpoints and
    collinear touches do not count."""

    def ccw(u, v, w):
        return (v.x - u.x) * (w.y - u.y) - (v.y - u.y) * (w.x - u.x)

    d1, d2 = ccw(p, q, a), ccw(p, q, b)
    d3, d4 = ccw(a, b, p), ccw(a, b, q)
    return d1 * d2 < 0 and d3 * d4 < 0


def inflation_oracle(lethal_cells, width, height, radius_cells):
    """Per-cell exhaustive nearest-lethal scan, then the linear decay rule:
    200 inside the radius, falling to 0 at twice the radius."""
    out = [[0] * width for _ in range(height)]
    if not lethal_cells:
        return out
    rc = radius_cells
    for row in range(height):
        for col in range(width):
            d2 = min((col - c) ** 2 + (row - r) ** 2 for c, r in lethal_cells)
            if d2 <= rc * rc:
                out[row][col] = 200
            elif d2 < 4.0 * rc * rc:
                out[row][col] = int(round(200.0 * (2.0 * rc - math.sqrt(d2)) / rc))
    return out


# --- the package's former search helpers -----------------------------------

def _moves(costs: list[int], stride: int, i: int) -> list[tuple[int, int]]:
    """Every legal move out of cell i of a padded snapshot, as (index, exact
    cost of the move), cardinals first, then diagonals: none when i itself
    is blocked, and a diagonal only past two open cardinal cells. The LETHAL
    border makes bounds checks unnecessary."""
    if costs[i] >= UNKNOWN_COST:
        return []
    moves = []
    east, west, north, south = i + 1, i - 1, i + stride, i - stride
    e = costs[east] < UNKNOWN_COST
    w = costs[west] < UNKNOWN_COST
    n = costs[north] < UNKNOWN_COST
    s = costs[south] < UNKNOWN_COST
    if e:
        moves.append((east, STRAIGHT[costs[east]]))
    if w:
        moves.append((west, STRAIGHT[costs[west]]))
    if n:
        moves.append((north, STRAIGHT[costs[north]]))
    if s:
        moves.append((south, STRAIGHT[costs[south]]))
    for ok, j in (
        (e and n, north + 1), (e and s, south + 1), (w and n, north - 1), (w and s, south - 1)
    ):
        if ok and costs[j] < UNKNOWN_COST:
            moves.append((j, DIAG[costs[j]]))
    return moves


class QueueHelpers:
    """ReplanState's queue helpers: the key formula, the push, the peek past
    stale entries, and the vertex update with its queue half."""

    def _calc_key(self, i: int) -> tuple[int | float, int | float]:
        m = self.g[i]
        r = self.rhs[i]
        if r < m:
            m = r
        if m == INF:
            return (INF, INF)
        # octile() from the start, whose padded (row, col) is kept
        row, col = divmod(i, self.dmap.stride)
        dr = abs(row - self._start_key[0])
        dc = abs(col - self._start_key[1])
        if dc < dr:
            return (m + self._straight[dr - dc] + self._diag[dc] + self.km, m)
        return (m + self._straight[dc - dr] + self._diag[dr] + self.km, m)

    def _push(self, i: int, key: tuple[int | float, int | float]) -> None:
        self._key_of[i] = key
        heapq.heappush(self._heap, (key[0], key[1], i))

    def _peek(self) -> tuple[tuple[int | float, int | float], int] | None:
        while self._heap:
            k1, k2, i = self._heap[0]
            if self._key_of[i] == (k1, k2):
                return (k1, k2), i
            heapq.heappop(self._heap)  # stale or removed entry
        return None

    def _update_vertex(self, costs: list[int], i: int) -> None:
        if i != self._goal_index:
            # the minimum of g[j] + step over _moves(costs, stride, i), with
            # the same rule scanned inline rather than built as a list
            best = INF
            if costs[i] < UNKNOWN_COST:
                g = self.g
                stride = self.dmap.stride
                north, south = i + stride, i - stride
                ce, cw, cn, cs = costs[i + 1], costs[i - 1], costs[north], costs[south]
                e, w = ce < UNKNOWN_COST, cw < UNKNOWN_COST
                if e:
                    best = g[i + 1] + STRAIGHT[ce]
                if w:
                    cand = g[i - 1] + STRAIGHT[cw]
                    if cand < best:
                        best = cand
                for j, c in ((north, cn), (south, cs)):
                    if c >= UNKNOWN_COST:
                        continue
                    cand = g[j] + STRAIGHT[c]
                    if cand < best:
                        best = cand
                    if e and costs[j + 1] < UNKNOWN_COST:
                        cand = g[j + 1] + DIAG[costs[j + 1]]
                        if cand < best:
                            best = cand
                    if w and costs[j - 1] < UNKNOWN_COST:
                        cand = g[j - 1] + DIAG[costs[j - 1]]
                        if cand < best:
                            best = cand
            self.rhs[i] = best
        self._queue(i)

    def _queue(self, i: int) -> None:
        """The queue half of a vertex update: an inconsistent vertex holds
        one entry at its current key (an equal key is already in the heap,
        so it is not pushed again), a consistent one none."""
        if self.g[i] != self.rhs[i]:
            key = self._calc_key(i)
            if self._key_of[i] != key:
                self._push(i, key)
        else:
            self._key_of[i] = None


# --- reference A* ----------------------------------------------------------

def _octile(stride: int, i: int, j: int) -> int:
    # divmod gives (row, col); octile is symmetric in the two axes and the
    # padding offsets cancel, so this is octile() of the unpadded cells
    return octile(divmod(i, stride), divmod(j, stride))


def reference_plan_global(
    dmap: DrivingMap, start: tuple[int, int], goal: tuple[int, int]
) -> tuple[list[tuple[int, int]], PathCost] | None:
    """The package's A* as it stood with dict and set state: a guard on
    plan_global's cost and on where it finds no path. plan_global is now the
    replanner's first search, which breaks ties its own way, so its path
    may differ from this one among paths of equal cost.

    A* over the composite costmap; None when the goal is unreachable.

    Ties pop in (f, h, row-major index) order, so identical inputs give an
    identical cell sequence, not merely an identical cost.
    """
    if not dmap.in_bounds(*start) or not dmap.in_bounds(*goal):
        return None
    costs = dmap.snapshot()
    stride = dmap.stride
    si, gi = dmap.index(start), dmap.index(goal)
    if costs[si] >= UNKNOWN_COST or costs[gi] >= UNKNOWN_COST:
        return None
    g: dict[int, int] = {si: 0}
    parent: dict[int, int] = {}
    closed: set[int] = set()
    h0 = _octile(stride, si, gi)
    heap: list[tuple[int, int, int]] = [(h0, h0, si)]
    while heap:
        _, _, i = heapq.heappop(heap)
        if i in closed:
            continue
        closed.add(i)
        if i == gi:
            path = [i]
            while i != si:
                i = parent[i]
                path.append(i)
            path.reverse()
            return [dmap.cell(i) for i in path], decode(g[gi])
        g_cur = g[i]
        for j, step in _moves(costs, stride, i):
            if j in closed:
                continue
            ng = g_cur + step
            incumbent = g.get(j)
            if incumbent is None or ng < incumbent:
                g[j] = ng
                parent[j] = i
                h = _octile(stride, j, gi)
                heapq.heappush(heap, (ng + h, h, j))
    return None


# --- eager incremental replanner ----------------------------------------------

# The package's replanner relaxes predecessors in O(1) and sets a repair's
# cells aside while an end cell is blocked. This is the eager form it must
# match: it rescans every successor of every predecessor and updates every
# changed cell's block on every call.

class EagerReplanState(QueueHelpers, ReplanState):
    """ReplanState with a full rhs rescan for every neighbour of every
    expanded vertex."""

    def _update_vertex(self, costs: list[int], i: int) -> None:
        if i != self._goal_index:
            # the minimum of g[j] + step over _moves(costs, stride, i), with
            # the same rule scanned inline rather than built as a list
            best = INF
            if costs[i] < UNKNOWN_COST:
                g = self.g
                stride = self.dmap.stride
                north, south = i + stride, i - stride
                ce, cw, cn, cs = costs[i + 1], costs[i - 1], costs[north], costs[south]
                e, w = ce < UNKNOWN_COST, cw < UNKNOWN_COST
                if e:
                    best = g[i + 1] + STRAIGHT[ce]
                if w:
                    cand = g[i - 1] + STRAIGHT[cw]
                    if cand < best:
                        best = cand
                for j, c in ((north, cn), (south, cs)):
                    if c >= UNKNOWN_COST:
                        continue
                    cand = g[j] + STRAIGHT[c]
                    if cand < best:
                        best = cand
                    if e and costs[j + 1] < UNKNOWN_COST:
                        cand = g[j + 1] + DIAG[costs[j + 1]]
                        if cand < best:
                            best = cand
                    if w and costs[j - 1] < UNKNOWN_COST:
                        cand = g[j - 1] + DIAG[costs[j - 1]]
                        if cand < best:
                            best = cand
            self.rhs[i] = best
        self._key_of[i] = None
        if self.g[i] != self.rhs[i]:
            self._push(i, self._calc_key(i))

    def _compute(self, costs: list[int]) -> None:
        stride = self.dmap.stride
        si = self.dmap.index(self.start)
        while True:
            g_start = self.g[si]
            rhs_start = self.rhs[si]
            top = self._peek()
            if top is None:
                break
            key, i = top
            start_key = self._calc_key(si)
            if not (key < start_key or rhs_start != g_start):
                break
            heapq.heappop(self._heap)
            self._key_of[i] = None
            fresh = self._calc_key(i)
            if key < fresh:
                self._push(i, fresh)
                continue
            if self.g[i] > self.rhs[i]:
                self.g[i] = self.rhs[i]
            else:
                self.g[i] = INF
                self._update_vertex(costs, i)
            for j, _ in _moves(costs, stride, i):
                self._update_vertex(costs, j)


def eager_replan_incremental(
    rs: EagerReplanState,
    changed_cells: set[tuple[int, int]],
    new_start: tuple[int, int] | None = None,
) -> list[tuple[int, int]] | None:
    """Every changed cell's block updated on every call, whether or not an
    end cell is blocked."""
    dmap = rs.dmap
    if new_start is not None and new_start != rs.start:
        if not dmap.in_bounds(*new_start):
            raise ValueError("new start must lie inside the map")
        km = rs.km + octile(rs.start, new_start)
        if sum(decode(km)) > PAIR_SUM_LIMIT // 2:
            raise ValueError("the start has moved too far for exact path costs")
        rs.km = km
        rs._start_key = divmod(dmap.index(new_start), dmap.stride)
        rs.start = new_start
    costs = dmap.snapshot()
    width, height, stride = dmap.width, dmap.height, dmap.stride
    touched = {
        (row + dr + 1) * stride + col + dc + 1
        for col, row in changed_cells
        if 0 <= col < width and 0 <= row < height
        for dc, dr in _NEIGHBOURHOOD
        if 0 <= col + dc < width and 0 <= row + dr < height
    }
    for i in sorted(touched):
        rs._update_vertex(costs, i)
    if max(costs[dmap.index(rs.start)], costs[dmap.index(rs.goal)]) >= UNKNOWN_COST:
        return None
    rs._compute(costs)
    return rs._extract(costs)


# --- reference repair ----------------------------------------------------------

# The package's repair skips touched vertices an update would leave as they
# are, and its search writes each neighbour's queue update out inline. This
# is the form before either: every state, queue key and heap entry must
# stay the same.

class ReferenceReplanState(QueueHelpers, ReplanState):
    """ReplanState with the search that queues each neighbour through
    _queue, _calc_key and _push."""

    def _compute(self, costs: list[int]) -> None:
        stride = self.dmap.stride
        cardinal = (1, -1, stride, -stride)
        si = self.dmap.index(self.start)
        g, rhs, goal = self.g, self.rhs, self._goal_index
        while True:
            g_start = g[si]
            rhs_start = rhs[si]
            top = self._peek()
            if top is None:
                break
            key, i = top
            start_key = self._calc_key(si)
            if not (key < start_key or rhs_start != g_start):
                break
            heapq.heappop(self._heap)
            self._key_of[i] = None
            fresh = self._calc_key(i)
            if key < fresh:
                self._push(i, fresh)
                continue
            # i's predecessors are its moves (see the class docstring); the
            # step from one into i costs STRAIGHT or DIAG of costs[i], and a
            # blocked i has none
            moves = _moves(costs, stride, i)
            if moves:
                straight, diag = STRAIGHT[costs[i]], DIAG[costs[i]]
            g_old = g[i]
            rhs_i = rhs[i]
            if g_old > rhs_i:
                g[i] = rhs_i
                for j, _ in moves:
                    if j != goal:
                        through = rhs_i + (straight if j - i in cardinal else diag)
                        if through < rhs[j]:
                            rhs[j] = through
                    self._queue(j)
            else:
                g[i] = INF
                self._update_vertex(costs, i)
                for j, _ in moves:
                    if rhs[j] == g_old + (straight if j - i in cardinal else diag):
                        self._update_vertex(costs, j)
                    else:
                        self._queue(j)


def reference_replan_incremental(
    rs: ReplanState,
    changed_cells: set[tuple[int, int]],
    new_start: tuple[int, int] | None = None,
) -> list[tuple[int, int]] | None:
    """Repair the search after costmap changes (and optionally a moved
    start), then extract the current optimal path.

    While the start or the goal cell is blocked the changed cells are set
    aside on the state and None is returned at once, with no vertex updated
    and no search run: there is no path to find. The first call that finds
    both cells open updates each in-bounds cell of the 3 x 3 blocks of every
    cell set aside so far once, in index order, on its own snapshot, then
    searches. That gives the rhs values an update on every call would: a
    vertex's rhs reads only its own block, a later change in that block puts
    it in a later block too, and g does not change while no search runs.
    """
    dmap = rs.dmap
    if new_start is not None and new_start != rs.start:
        if not dmap.in_bounds(*new_start):
            raise ValueError("new start must lie inside the map")
        km = rs.km + octile(rs.start, new_start)
        if sum(decode(km)) > PAIR_SUM_LIMIT // 2:
            raise ValueError("the start has moved too far for exact path costs")
        rs.km = km
        rs._start_key = divmod(dmap.index(new_start), dmap.stride)
        rs.start = new_start
    rs._set_aside |= changed_cells
    if not (dmap.traversable(*rs.start) and dmap.traversable(*rs.goal)):
        return None
    costs = dmap.snapshot()
    width, height, stride = dmap.width, dmap.height, dmap.stride
    # a block's border cells are updated too: on the LETHAL border that
    # leaves g, rhs and the queue as they were
    touched = {
        (row + dr + 1) * stride + col + dc + 1
        for col, row in rs._set_aside
        if 0 <= col < width and 0 <= row < height
        for dc, dr in _NEIGHBOURHOOD
    }
    rs._set_aside.clear()
    for i in sorted(touched):
        rs._update_vertex(costs, i)
    rs._compute(costs)
    return rs._extract(costs)
