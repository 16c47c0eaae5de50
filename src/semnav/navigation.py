"""Layered driving map, grid search, and waypoint following.

There is one grid search, _search: an A* (Hart, Nilsson & Raphael, 1968)
run backward from the goal on a fresh snapshot of the costmap. plan_global
runs it once per drive leg, before the robot moves, and replan_incremental
runs it again from scratch whenever the leg's driven path is blocked, so a
repair returns exactly plan_global's path for the same start, goal and
costmap. Nothing carries over from one search to the next. An incremental
D*-Lite (Koenig & Likhachev, AAAI 2002) repair gave the same paths but was
slower on every benchmarked mission: its bookkeeping paid off only where
repairs fall far from the goal. ReplanState and replan_incremental keep
their names and parameters from that design because the benchmark harness
hooks both by name (ENGINE_NAMES in missionbench/bench.py) and reads the
state's dmap, start and goal and the size of the changed cells it is
passed; a ReplanState holds no more than a leg's map, goal and last start.

The costmap stacks three layers and takes their maximum per cell: a static
layer from the metric map (occupied 254, unknown 253, free 0), an inflation
layer around lethal cells (200 within the robot radius, decaying linearly to
zero at twice the radius), and a dynamic layer of the recent sensor hits the
static layer does not explain (254 with a time-to-live), whose cells each
scan yields in one numpy pass over its beams. A hit in a static-lethal cell
or one of its eight neighbours is the static map's own wall and never enters
the dynamic layer (the obstacle layer of Lu, Hershberger & Smart, "Layered
Costmaps for Context-Sensitive Navigation", IROS 2014, records only what the
static layer does not). This assumes that a wall's cross-section contains a
cell centre within one cell of its surface, so that a return off the wall
lands in or beside a lethal cell. Cells at or above 253 are untraversable.

Inflation reads the squared cell distance d2 to the nearest lethal cell only
where d2 < 4*rc*rc (rc the robot radius in cells), and the hit rule only at
d2 <= 2, and numpy computes it exactly there and nowhere else. With
k = max(ceil(2*rc), 2), a column pass finds each cell's distance g to the
nearest lethal cell in its own column, capped at k, and a row pass takes
the minimum of dc*dc + g[row, col + dc]**2 over |dc| < k. A nearest lethal
cell with d2 < k*k lies fewer than k rows and k columns away, so it is one
of the candidates; every candidate is either the squared distance to some
lethal cell or at least k*k. So the minimum is d2 wherever d2 < k*k, which
covers d2 < 4*rc*rc and d2 <= 2, and at least k*k elsewhere. The floor
k >= 2 matters for a robot narrower than a cell: with k = 1 every free cell
would read d2 = 1 and every hit would be dropped.

Moving into a cell costs step_length * (1 + composite/100) meters, where
step_length is one resolution unit for cardinal moves and sqrt(2) units for
diagonal ones; diagonal moves additionally require both adjacent cardinal
cells to be traversable. Because every edge weight is (100 + c) or
(100 + c) * sqrt(2) scaled by resolution/100, any path length is exactly
resolution * (a + b*sqrt(2)) / 100 for non-negative integers a and b, and
sqrt(2) being irrational makes that pair unique per length.

The search carries such a cost as one Python int, C(a, b) = a*UA + b*UB
with UA = 2**120 and UB = floor(sqrt(2) * 2**80) * 2**40 + 1. The encoding
is linear, so a move adds a precomputed STRAIGHT[c] or DIAG[c] and equal
pairs give equal ints whatever the order of the sums. C / 2**120 lies within
b * 2**-80 of a + b*sqrt(2), while two distinct pairs with a + b <= S differ
by at least 1 / (2*sqrt(2)*S); so comparing ints orders costs exactly as the
reals do while S < 4.6e11 (PAIR_SUM_LIMIT). UB is 1 modulo 2**40 and UA
is 0, so b = C & (2**40 - 1) and a = (C - b*UB) >> 120 decode a cost. INF is
math.inf, which compares correctly with any int.

A search keys a vertex (d + octile(start, cell), d) for its cost d to the
goal and pops ties in padded-index order, so identical inputs give an
identical cell sequence. The octile heuristic is consistent, since every
move costs at least its own octile length, so each vertex pops with its
exact cost and the keys pop in order: the search settles exactly the cells
whose key is below the start's (d_start, d_start), then the start, where
it stops. The path follows from the start to the settled move with the
least g + step, ties to the lower index.

Searches run on a padded flat index. The map keeps its static costs once
more as a row-major Python list framed by a LETHAL border, so cell
(col, row) sits at (row+1)*(width+2) + col+1: no move needs a bounds check,
and the index is monotone in row-major order, so it breaks heap ties
exactly as the row-major cell order does. Each search takes one snapshot,
a copy of that list with the dynamic cells overlaid; cells become
(col, row) pairs only at the API boundary. Every expansion scans the moves
rule inline and takes the octile heuristic from two step tables the map
builds once (octile_steps) against the start's padded (row, col): no
expansion or push calls a helper or builds a move list. A search's state,
the best and the settled cost per cell, is two lists over the padded index
beside its snapshot, O(cells) memory, and a world too large for that still
ends in cli.main's MemoryError exit 1. The dynamic layer stays a
{cell: expiry} dict and the only source of truth for costs, since callers
write it directly: a snapshot taken per call needs no invalidation.
Beside it the fold keeps a FIFO of due buckets, one (expiry, cells) pair
per fold with hits, and ages entries out by popping the buckets due at its
tick (a timing wheel with one slot per tick: Varghese & Lauck, "Hashed and
Hierarchical Timing Wheels", SOSP 1987), never by walking the whole layer.
Only the fold puts entries in buckets, so an entry written into the dict
directly never expires. The static array is never written after it is
built.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import NamedTuple

import numpy as np

from .geometry import Point2, Pose2, normalize_angle
from .mapgen import OCCUPIED, PAIR_SUM_LIMIT, UNKNOWN, GridFrame, MetricLayer, grid_pair_sum

LETHAL = 254
UNKNOWN_COST = 253
INSCRIBED = 200
DEFAULT_TTL = 30


# Exact path costs as ints (see the module docstring).
UA = 1 << 120
UB = (math.isqrt(2 << 160) << 40) + 1
B_MASK = (1 << 40) - 1
INF = math.inf
# Orders are exact while every compared cost has a + b below PAIR_SUM_LIMIT
# (defined in mapgen, which sizes the grid). A search key adds g (a path) and
# h (an octile distance), which grid_pair_sum bounds together; a map is held
# to half the limit, as mapgen holds its grid, which leaves the other half
# spare.
# The cost of one move into a cell of cost c < UNKNOWN_COST.
STRAIGHT = tuple((100 + c) * UA for c in range(UNKNOWN_COST))
DIAG = tuple((100 + c) * UB for c in range(UNKNOWN_COST))


class PathCost(NamedTuple):
    """A path length of (a + b*sqrt(2)) scaled units."""

    a: int
    b: int


def decode(cost: int) -> PathCost:
    b = cost & B_MASK
    return PathCost((cost - b * UB) >> 120, b)


def octile(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Octile distance in scaled units: admissible since every move costs at
    least (100) straight or (100)*sqrt(2) diagonal."""
    dc = abs(a[0] - b[0])
    dr = abs(a[1] - b[1])
    lo, hi = (dc, dr) if dc < dr else (dr, dc)
    return (hi - lo) * STRAIGHT[0] + lo * DIAG[0]


class DrivingMap(GridFrame):
    """Static + inflation + dynamic costmap over a metric layer."""

    def __init__(self, metric: MetricLayer, robot_radius: float):
        if robot_radius <= 0:
            raise ValueError("robot_radius must be > 0")
        extent = min(metric.width, metric.height) * metric.resolution
        if robot_radius > extent:
            raise ValueError(
                f"robot radius {robot_radius} exceeds map extent {extent}"
            )
        w, h = metric.width, metric.height
        if grid_pair_sum(w, h) > PAIR_SUM_LIMIT // 2:
            raise ValueError(f"a {w} x {h} map is too large for exact path costs")
        self.resolution = metric.resolution
        self.origin = metric.origin
        self.width = metric.width
        self.height = metric.height
        self.robot_radius = robot_radius

        static = np.zeros(metric.cells.shape, dtype=np.int16)
        static[metric.cells == OCCUPIED] = LETHAL
        static[metric.cells == UNKNOWN] = UNKNOWN_COST

        # where a hit may enter the dynamic layer: see update_dynamic_layer
        self._open = np.ones(static.shape, dtype=bool)
        lethal = metric.cells == OCCUPIED
        if lethal.any():
            rc = robot_radius / metric.resolution
            # squared cell distance to the nearest lethal cell, exact below
            # max(4*rc*rc, 4): the inflation reads it below 4*rc*rc, and the
            # hit rule at 2 and below
            d2 = _near_squared_distances(lethal, max(math.ceil(2.0 * rc), 2))
            self._open = d2 > 2
            inflation = np.zeros_like(static)
            inflation[d2 <= rc * rc] = INSCRIBED
            band = (d2 > rc * rc) & (d2 < 4.0 * rc * rc)
            if band.any():
                d = np.sqrt(d2[band].astype(np.float64))
                inflation[band] = np.rint(200.0 * (2.0 * rc - d) / rc).astype(np.int16)
            static = np.maximum(static, inflation)

        self.static = static
        self.dynamic: dict[tuple[int, int], int] = {}  # cell -> expiry tick
        # (expiry, cells) per fold with hits, oldest first: see update_dynamic_layer
        self._due: deque[tuple[int, tuple[tuple[int, int], ...]]] = deque()
        self._last_fold = -math.inf
        self.stride = self.width + 2
        # the octile distance's straight and diagonal parts by step count, up
        # to the larger side: octile() is straight[hi - lo] + diag[lo] for the
        # larger and smaller of the row and column distances
        reach = range(max(self.width, self.height) + 2)
        self.octile_steps = ([n * STRAIGHT[0] for n in reach], [n * DIAG[0] for n in reach])
        padded = np.full((self.height + 2, self.stride), LETHAL, dtype=np.int16)
        padded[1:-1, 1:-1] = static
        self._padded: list[int] = padded.ravel().tolist()

    # -- cost queries --

    def composite(self, col: int, row: int) -> int:
        if (col, row) in self.dynamic:
            return LETHAL
        return self._padded[self.index((col, row))]

    def traversable(self, col: int, row: int) -> bool:
        return self.in_bounds(col, row) and self.composite(col, row) < UNKNOWN_COST

    # -- padded flat index --

    def index(self, cell: tuple[int, int]) -> int:
        return (cell[1] + 1) * self.stride + cell[0] + 1

    def cell(self, index: int) -> tuple[int, int]:
        row, col = divmod(index, self.stride)
        return (col - 1, row - 1)

    def snapshot(self) -> list[int]:
        """The composite costmap as a padded flat list, taken afresh from
        the static costs and the dynamic layer (in-bounds cells only, as
        update_dynamic_layer keeps it) as they stand now."""
        costs = self._padded.copy()
        stride = self.stride
        for col, row in self.dynamic:
            costs[(row + 1) * stride + col + 1] = LETHAL
        return costs

    # -- dynamic layer --

    def update_dynamic_layer(self, scan) -> set[tuple[int, int]]:
        """Fold a lidar scan (a simulator.LidarScan, taken at scan.pose on
        scan.tick) into the dynamic layer and age out old entries.

        Every hit lands as cost 254 with expiry scan.tick + DEFAULT_TTL
        unless its cell is static-lethal or touches one (d2 <= 2): such a
        return is the static map's own wall, on the assumption that a wall's
        cross-section contains a cell centre within one cell of its surface.
        Hit cells are found for all beams at once, from the scan's direction
        and range arrays, and folded in beam order. Returns the cells whose
        composite cost differs from before the call. A non-finite hit point
        short of range_max, or a scan dated earlier than the last fold's,
        raises ValueError before anything changes.

        Entries age out by due bucket: each fold queues its hit cells under
        their common expiry, and since every expiry is tick + DEFAULT_TTL and
        ticks never decrease, the buckets fall due in queue order. A fold
        pops only the buckets due at its tick and drops a cell of one only
        while its expiry is still that bucket's (a later hit moved it to a
        later bucket), so it costs O(hits + cells due), not O(live cells).
        Entries enter only through this fold: one written into self.dynamic
        directly sits in no bucket and never falls due.
        """
        tick = scan.tick
        if tick < self._last_fold:
            raise ValueError(f"tick {tick} is earlier than the last fold's, {self._last_fold}")
        pose = scan.pose
        ranges = scan.ranges
        near = ~(ranges >= scan.range_max - 1e-9)  # a NaN range stays in, and fails below
        dist = ranges[near]
        hx = pose.x + dist * scan.cos[near]
        hy = pose.y + dist * scan.sin[near]
        if not (np.isfinite(hx).all() and np.isfinite(hy).all()):
            raise ValueError("non-finite lidar hit point")
        col = np.floor((hx - self.origin.x) / self.resolution)
        row = np.floor((hy - self.origin.y) / self.resolution)
        inside = (col >= 0) & (col < self.width) & (row >= 0) & (row < self.height)
        col, row = col[inside].astype(np.intp), row[inside].astype(np.intp)
        free = self._open[row, col]
        expiry = tick + DEFAULT_TTL
        hits = dict.fromkeys(zip(col[free].tolist(), row[free].tolist()), expiry)  # in beam order
        # The dynamic layer only ever holds such hit cells, none static-lethal,
        # so a cell's composite cost changes exactly when it enters the layer
        # (a fresh hit) or leaves it (expired and not hit again).
        self._last_fold = tick
        dynamic, due = self.dynamic, self._due
        fresh = set(hits).difference(dynamic)
        expired = set()
        while due and due[0][0] <= tick:
            due_at, cells = due.popleft()
            for cell in cells:
                if dynamic.get(cell) == due_at:
                    del dynamic[cell]
                    expired.add(cell)
        dynamic.update(hits)
        if hits:
            if due and due[-1][0] == expiry:  # a second fold on the same tick
                due[-1] = (expiry, due[-1][1] + tuple(hits))
            else:
                due.append((expiry, tuple(hits)))
        return expired.difference(hits) | fresh


def _near_squared_distances(lethal: np.ndarray, k: int) -> np.ndarray:
    """Squared cell distance from each cell to the nearest True cell of
    lethal: exact wherever it is below k*k, and at least k*k elsewhere.

    The two passes of Meijster, Roerdink & Hesselink's distance transform,
    each bounded by k, as the module docstring describes. O(cells * k).
    """
    height, width = lethal.shape
    g = np.where(lethal, 0, k)
    for s in range(1, min(k, height)):
        np.minimum(g[s:], np.where(lethal[:-s], s, k), out=g[s:])
        np.minimum(g[:-s], np.where(lethal[s:], s, k), out=g[:-s])
    g *= g
    d2 = g.copy()
    for dc in range(1, min(k, width)):
        np.minimum(d2[:, dc:], g[:, :-dc] + dc * dc, out=d2[:, dc:])
        np.minimum(d2[:, :-dc], g[:, dc:] + dc * dc, out=d2[:, :-dc])
    return d2


def _move_offsets(stride: int) -> tuple[tuple[int, int, int, bool], ...]:
    """The moves rule on a padded snapshot of the given stride, as (offset
    to the neighbour, the two offsets that must be open for the move, is
    diagonal): E, W, N, S, then NE, SE, NW, SW. A cardinal move needs only
    its own cell open, so both its offsets are its own; a diagonal needs
    the two cardinal cells beside it too. A blocked cell has no moves, and
    the LETHAL border makes bounds checks unnecessary. Each search takes
    the table once and scans it inline for every expansion."""
    north, south = stride, -stride
    return (
        (1, 1, 1, False), (-1, -1, -1, False), (north, north, north, False),
        (south, south, south, False), (north + 1, 1, north, True), (south + 1, 1, south, True),
        (north - 1, -1, north, True), (south - 1, -1, south, True),
    )


def path_reads(path: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """The cells the moves rule reads for the path (both ends of every move,
    and both corner cells of a diagonal), each mapped to the last move that
    reads it; move k runs from path[k] to path[k + 1]."""
    reads: dict[tuple[int, int], int] = {}
    for k, ((uc, ur), (vc, vr)) in enumerate(zip(path, path[1:])):
        reads[uc, ur] = reads[vc, vr] = k
        if uc != vc and ur != vr:
            reads[vc, ur] = reads[uc, vr] = k
    return reads


def path_cost(dmap: DrivingMap, path: list[tuple[int, int]]) -> PathCost | None:
    """Canonical cost of a cell path on the current composite costmap; None
    when one of its moves is not allowed, that is, when a cell of its
    path_reads is not traversable."""
    if not all(dmap.traversable(c, r) for c, r in path_reads(path)):
        return None
    a = b = 0
    for (uc, ur), (vc, vr) in zip(path, path[1:]):
        if uc != vc and ur != vr:
            b += 100 + dmap.composite(vc, vr)
        else:
            a += 100 + dmap.composite(vc, vr)
    return PathCost(a, b)


def plan_global(
    dmap: DrivingMap, start: tuple[int, int], goal: tuple[int, int]
) -> tuple[list[tuple[int, int]], PathCost] | None:
    """An optimal path over the composite costmap and its cost; None when an
    endpoint is off the map or blocked, or the goal is unreachable.

    Identical inputs give an identical cell sequence (see _search).
    """
    if not (dmap.traversable(*start) and dmap.traversable(*goal)):
        return None
    path, g = _search(dmap, start, goal)
    if path is None:
        return None
    return path, decode(g[dmap.index(start)])


def _search(
    dmap: DrivingMap, start: tuple[int, int], goal: tuple[int, int]
) -> tuple[list[tuple[int, int]] | None, list[int | float]]:
    """A* backward from goal to start on a fresh snapshot: the path (None
    when no path joins them) and g, each settled cell's exact cost to the
    goal over the padded index, INF elsewhere. Both end cells must be open.

    A reached vertex is keyed (d + octile(start, cell), d) for its best cost
    d to the goal so far, and pops in (key, padded index) order; an entry
    whose d is no longer the vertex's best is stale and dropped. The search
    stops once the start pops, or when the queue runs dry. Expanding i
    relaxes its moves j, since the moves rule is symmetric, at the step
    from j into i: STRAIGHT or DIAG of costs[i].
    """
    costs = dmap.snapshot()
    stride = dmap.stride
    si, gi = dmap.index(start), dmap.index(goal)
    start_row, start_col = divmod(si, stride)
    straight_h, diag_h = dmap.octile_steps
    g: list[int | float] = [INF] * len(costs)
    best: list[int | float] = g.copy()
    best[gi] = 0
    heap = [(octile(start, goal), 0, gi)]
    push, pop = heapq.heappush, heapq.heappop
    moves = _move_offsets(stride)
    while heap:
        _, d, i = pop(heap)
        if d != best[i]:
            continue
        g[i] = d
        if i == si:
            break
        straight, diag = d + STRAIGHT[costs[i]], d + DIAG[costs[i]]
        for offset, a, b, diagonal in moves:
            j = i + offset
            through = diag if diagonal else straight
            if (through < best[j] and costs[j] < UNKNOWN_COST
                    and costs[i + a] < UNKNOWN_COST and costs[i + b] < UNKNOWN_COST):
                best[j] = through
                row, col = divmod(j, stride)
                dr, dc = abs(row - start_row), abs(col - start_col)
                if dc < dr:
                    push(heap, (through + straight_h[dr - dc] + diag_h[dc], through, j))
                else:
                    push(heap, (through + straight_h[dc - dr] + diag_h[dr], through, j))
    if g[si] == INF:
        return None, g
    return _extract(dmap, costs, g, si, gi), g


def _extract(
    dmap: DrivingMap, costs: list[int], g: list[int | float], si: int, gi: int
) -> list[tuple[int, int]] | None:
    """The path from si to gi that steps, from each cell, to the settled move
    with the least g + step, ties to the lower (row-major) index."""
    i = si
    path = [i]
    limit = dmap.width * dmap.height
    moves = _move_offsets(dmap.stride)
    while i != gi:
        best = None
        best_through = INF
        # i is open: the callers check the start, and each later i is a move
        for d, a, b, diagonal in moves:
            j = i + d
            c = costs[j]
            if (c >= UNKNOWN_COST or costs[i + a] >= UNKNOWN_COST
                    or costs[i + b] >= UNKNOWN_COST):
                continue
            g_next = g[j]
            if g_next == INF:
                continue
            through = g_next + (DIAG[c] if diagonal else STRAIGHT[c])
            if best is None or through < best_through or (
                through == best_through and j < best
            ):
                best = j
                best_through = through
        if best is None or len(path) > limit:
            return None
        i = best
        path.append(i)
    return [dmap.cell(i) for i in path]


class ReplanState:
    """One drive leg's search inputs: its map, its goal and its start (moved
    by each repair given a new one).

    Nothing else is kept between searches, since every repair searches
    afresh (see replan_incremental).
    """

    def __init__(self, dmap: DrivingMap, start: tuple[int, int], goal: tuple[int, int]):
        if not dmap.in_bounds(*start) or not dmap.in_bounds(*goal):
            raise ValueError("start and goal must lie inside the map")
        self.dmap = dmap
        self.start = start
        self.goal = goal


def replan_incremental(
    rs: ReplanState,
    changed_cells: set[tuple[int, int]],
    new_start: tuple[int, int] | None = None,
) -> list[tuple[int, int]] | None:
    """The leg's path on the costmap as it stands now, from its start (moved
    to new_start when one is given): plan_global's path for the same start,
    goal and costmap, from a fresh search.

    While the start or the goal cell is blocked there is no path, and None
    is returned at once without a search. None is also returned when both
    are open but no path joins them.

    changed_cells, the cells whose cost changed on the calling tick, is not
    read: a fresh search needs no record of what changed. It stays, and so
    do the names, because the benchmark's traced run hooks ReplanState and
    replan_incremental by name in semnav.mission, reads rs.dmap, rs.start and
    rs.goal, and counts len(changed_cells) (ROADMAP item 3 moves that
    measurement into the engine).
    """
    dmap = rs.dmap
    if new_start is not None:
        if not dmap.in_bounds(*new_start):
            raise ValueError("new start must lie inside the map")
        rs.start = new_start
    if not (dmap.traversable(*rs.start) and dmap.traversable(*rs.goal)):
        return None
    return _search(dmap, rs.start, rs.goal)[0]


# -- waypoint following --

def cells_to_points(dmap: DrivingMap, path: list[tuple[int, int]]) -> list[Point2]:
    return [dmap.center_of(*cell) for cell in path]


def nearest_waypoint(here: Point2, waypoints: list[Point2]) -> tuple[list[float], int]:
    """The distance from here to each waypoint, and the index of the nearest
    one (the first of equals)."""
    x, y = here.x, here.y
    # here.distance_to(point), bit for bit, without the method calls
    gaps = [math.hypot(x - point.x, y - point.y) for point in waypoints]
    return gaps, gaps.index(min(gaps))


# Pure-pursuit limits: forward speed (m/s), turn rate (rad/s), how far ahead
# along the path to aim (m), the arrival distance to the goal at which the
# mission stops driving (m) and the turn rate per radian of heading error.
V_MAX = 1.0
OMEGA_MAX = 1.5
LOOKAHEAD = 0.5
GOAL_TOLERANCE = 0.15
TURN_GAIN = 3.0


def follow_step(pose: Pose2, waypoints: list[Point2]) -> tuple[float, float]:
    """Rotate-then-drive pursuit, from the robot's pose, of the furthest
    waypoint within LOOKAHEAD.

    Large heading error (> 90°) turns in place; otherwise forward speed
    scales with the cosine of the error. Only the command is chosen here:
    `simulator.step` is what moves the robot.
    """
    if not waypoints:
        raise ValueError("follow_step needs at least one waypoint")
    here = pose.position
    gaps, nearest = nearest_waypoint(here, waypoints)
    target = waypoints[nearest]
    for i in range(nearest, len(waypoints)):
        if gaps[i] <= LOOKAHEAD:
            target = waypoints[i]

    err = normalize_angle(math.atan2(target.y - here.y, target.x - here.x) - pose.heading)
    if abs(err) <= math.pi / 2:
        v = V_MAX * max(0.0, math.cos(err))
    else:
        v = 0.0
    omega = max(-OMEGA_MAX, min(OMEGA_MAX, TURN_GAIN * err))
    return v, omega
