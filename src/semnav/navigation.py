"""Layered driving map, global planning, and incremental replanning.

The costmap stacks three layers and takes their maximum per cell: a static
layer from the metric map (occupied 254, unknown 253, free 0), an inflation
layer around lethal cells (200 within the robot radius, decaying linearly to
zero at twice the radius), and a dynamic layer of recent sensor hits (254
with a time-to-live), whose cells each scan yields in one numpy pass over its
beams. Cells at or above 253 are untraversable.

Inflation reads the squared cell distance d2 to the nearest lethal cell only
where d2 < 4*rc*rc (rc the robot radius in cells), and numpy computes it
exactly there and nowhere else. With k = ceil(2*rc), a column pass finds
each cell's distance g to the nearest lethal cell in its own column, capped
at k, and a row pass takes the minimum of dc*dc + g[row, col + dc]**2 over
|dc| < k. A nearest lethal cell with d2 < 4*rc*rc <= k*k lies fewer than k
rows and k columns away, so it is one of the candidates; every candidate is
either the squared distance to some lethal cell or at least k*k. So the
minimum is d2 wherever d2 < 4*rc*rc, and at least 4*rc*rc elsewhere.

Moving into a cell costs step_length * (1 + composite/100) meters, where
step_length is one resolution unit for cardinal moves and sqrt(2) units for
diagonal ones; diagonal moves additionally require both adjacent cardinal
cells to be traversable. Because every edge weight is (100 + c) or
(100 + c) * sqrt(2) scaled by resolution/100, any path length is exactly
resolution * (a + b*sqrt(2)) / 100 for non-negative integers a and b, and
sqrt(2) being irrational makes that pair unique per length.

All searches carry such a cost as one Python int, C(a, b) = a*UA + b*UB
with UA = 2**120 and UB = floor(sqrt(2) * 2**80) * 2**40 + 1. The encoding
is linear, so a move adds a precomputed STRAIGHT[c] or DIAG[c] and equal
pairs give equal ints whatever the order of the sums. C / 2**120 lies within
b * 2**-80 of a + b*sqrt(2), while two distinct pairs with a + b <= S differ
by at least 1 / (2*sqrt(2)*S); so comparing ints orders costs exactly as the
reals do while S < 4.6e11 (PAIR_SUM_LIMIT). UB is 1 modulo 2**40 and UA
is 0, so b = C & (2**40 - 1) and a = (C - b*UB) >> 120 decode a cost. INF is
math.inf, which compares correctly with any int. The initial planner, the
incremental replanner, and any from-scratch re-check therefore agree on
optimal cost bit-for-bit.

The incremental replanner is repaired lazily: the drive loop batches the
cells that change while its path stays drivable and repairs only once that
path is blocked or the robot has none. While start and goal lie in
different connected components a repair updates no vertex and runs no
search: it sets its changed cells aside, and the first call that finds
start and goal connected again updates their neighbourhoods once. That
gate, _connected, splits each row's traversable cells into runs and joins,
by union-find, every two runs in adjacent rows that share a column. A run
is connected within itself, and a 4-connected path passes from one run to
another only where two such runs share a column, so two cells share a root
exactly when they share a component. The search itself does work in
proportion to what changed: an expansion relaxes each predecessor's rhs in
O(1) (the moves rule is symmetric, so _moves lists them), rescans one only
when its minimum ran through a vertex whose g rose, and pushes no heap
entry a vertex already holds.

Searches run on a padded flat index. The map keeps its static costs once
more as a row-major Python list framed by a LETHAL border, so cell
(col, row) sits at (row+1)*(width+2) + col+1: no move needs a bounds check,
and the index is monotone in row-major order, so it breaks heap ties
exactly as the row-major cell order does. Each search entry point
(plan_global, ReplanState, replan_incremental, extract_path) takes one
snapshot, a copy of that list with the dynamic cells overlaid, and expands
neighbours on it with one helper, _moves; cells become (col, row) pairs
only at the API boundary. The hottest caller, the replanner's vertex
update, scans the same rule inline without building a list, and its keys
take the start's padded (row, col), kept on the state. The dynamic layer
stays a {cell: expiry} dict and the only source of truth, since callers
write it directly: a snapshot taken per call needs no invalidation. The
static array is never written after it is built.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Point2, Pose2, normalize_angle
from .mapgen import OCCUPIED, PAIR_SUM_LIMIT, UNKNOWN, GridFrame, MetricLayer, grid_pair_sum

LETHAL = 254
UNKNOWN_COST = 253
INSCRIBED = 200
DEFAULT_TTL = 30

# a cell and its eight neighbours, as (dcol, drow)
_NEIGHBOURHOOD = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


# Exact path costs as ints (see the module docstring).
UA = 1 << 120
UB = (math.isqrt(2 << 160) << 40) + 1
B_MASK = (1 << 40) - 1
INF = math.inf
# Orders are exact while every compared cost has a + b below PAIR_SUM_LIMIT
# (defined in mapgen, which sizes the grid); a search key adds g (a path),
# h (an octile distance) and km, and the map and km each get half of it.
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

        lethal = metric.cells == OCCUPIED
        if lethal.any():
            rc = robot_radius / metric.resolution
            # squared cell distance to the nearest lethal cell, exact below
            # 4*rc*rc, the only range read below
            d2 = _near_squared_distances(lethal, math.ceil(2.0 * rc))
            inflation = np.zeros_like(static)
            inflation[d2 <= rc * rc] = INSCRIBED
            band = (d2 > rc * rc) & (d2 < 4.0 * rc * rc)
            if band.any():
                d = np.sqrt(d2[band].astype(np.float64))
                inflation[band] = np.rint(200.0 * (2.0 * rc - d) / rc).astype(np.int16)
            static = np.maximum(static, inflation)

        self.static = static
        self.dynamic: dict[tuple[int, int], int] = {}  # cell -> expiry tick
        self.stride = self.width + 2
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

    def update_dynamic_layer(self, scan, pose: Pose2, tick: int) -> set[tuple[int, int]]:
        """Fold a lidar scan into the dynamic layer and age out old entries.

        Every hit lands as cost 254 with expiry tick + DEFAULT_TTL unless the
        cell is already static-lethal; hit cells are found for all beams at
        once and folded in beam order. Returns the cells whose composite cost
        differs from before the call. A non-finite hit point short of
        range_max raises ValueError before anything changes.
        """
        ranges = np.asarray(scan.ranges, dtype=float)
        heading = pose.heading + np.asarray(scan.angles, dtype=float)
        near = ~(ranges >= scan.range_max - 1e-9)  # a NaN range stays in, and fails below
        dist = ranges[near]
        hx = pose.x + dist * np.cos(heading[near])
        hy = pose.y + dist * np.sin(heading[near])
        if not (np.isfinite(hx).all() and np.isfinite(hy).all()):
            raise ValueError("non-finite lidar hit point")
        col = np.floor((hx - self.origin.x) / self.resolution)
        row = np.floor((hy - self.origin.y) / self.resolution)
        inside = (col >= 0) & (col < self.width) & (row >= 0) & (row < self.height)
        col, row = col[inside].astype(np.intp), row[inside].astype(np.intp)
        free = self.static[row, col] != LETHAL
        hits = dict.fromkeys(zip(col[free].tolist(), row[free].tolist()))  # in beam order
        # The dynamic layer only ever holds such non-static-lethal hit cells,
        # so a cell's composite cost changes exactly when it enters the layer
        # (a fresh hit) or leaves it (expired and not hit again).
        expired = {cell for cell, expiry in self.dynamic.items() if tick >= expiry}
        fresh = hits.keys() - self.dynamic.keys()
        for cell in expired:
            del self.dynamic[cell]
        for cell in hits:
            self.dynamic[cell] = tick + DEFAULT_TTL
        return (expired - hits.keys()) | fresh


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


def _octile(stride: int, i: int, j: int) -> int:
    # divmod gives (row, col); octile is symmetric in the two axes and the
    # padding offsets cancel, so this is octile() of the unpadded cells
    return octile(divmod(i, stride), divmod(j, stride))


def path_cost(dmap: DrivingMap, path: list[tuple[int, int]]) -> PathCost | None:
    """Canonical cost of a cell path on the current composite costmap; None
    when one of its moves is not allowed."""
    a = b = 0
    for (uc, ur), (vc, vr) in zip(path, path[1:]):
        diagonal = uc != vc and ur != vr
        if (
            not dmap.traversable(uc, ur)
            or not dmap.traversable(vc, vr)
            or (diagonal and not (dmap.traversable(vc, ur) and dmap.traversable(uc, vr)))
        ):
            return None
        if diagonal:
            b += 100 + dmap.composite(vc, vr)
        else:
            a += 100 + dmap.composite(vc, vr)
    return PathCost(a, b)


def plan_global(
    dmap: DrivingMap, start: tuple[int, int], goal: tuple[int, int]
) -> tuple[list[tuple[int, int]], PathCost] | None:
    """A* over the composite costmap; None when the goal is unreachable.

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


class ReplanState:
    """Incremental lifelong search bookkeeping (D*-Lite style).

    The search runs backward from the goal, so per-cell g values estimate
    remaining cost-to-goal and survive robot movement; km compensates the
    heuristic as the start slides. After each repair the extracted path
    cost equals a from-scratch plan on the same costmap. While start and
    goal are disconnected no search runs, here or in a repair, and a
    repair's changed cells wait in a set until they are connected again.

    An expansion of vertex i changes only g[i]. Since j is in _moves(i)
    exactly when i is in _moves(j), with the step j -> i costing STRAIGHT
    or DIAG of costs[i], a falling g[i] lowers each predecessor's rhs to at
    most g[i] + step, and a rising g[i] rescans only a predecessor whose rhs
    equalled the old g[i] + step. Costs are exact ints and every rhs is the
    minimum over its moves before each expansion, so this matches a full
    rescan bit for bit.

    g, rhs and the queue are keyed by the map's padded flat index and hold
    exact int costs (INF when unknown); each entry point takes one costmap
    snapshot and hands it down.
    """

    def __init__(self, dmap: DrivingMap, start: tuple[int, int], goal: tuple[int, int]):
        if not dmap.in_bounds(*start) or not dmap.in_bounds(*goal):
            raise ValueError("start and goal must lie inside the map")
        self.dmap = dmap
        self.start = start
        self.goal = goal
        self.km = 0
        self._last_start = start
        self._start_key = divmod(dmap.index(start), dmap.stride)  # padded (row, col)
        self._goal_index = dmap.index(goal)
        self.g: dict[int, int | float] = {}
        self.rhs: dict[int, int | float] = {self._goal_index: 0}
        self._heap: list[tuple[int | float, int | float, int]] = []
        self._key_of: dict[int, tuple[int | float, int | float]] = {}
        self._set_aside: set[tuple[int, int]] = set()  # changed while disconnected
        self._push(self._goal_index, self._calc_key(self._goal_index))
        if _connected(dmap, start, goal):
            self._compute(dmap.snapshot())

    # -- queue helpers --

    def _calc_key(self, i: int) -> tuple[int | float, int | float]:
        m = self.g.get(i, INF)
        r = self.rhs.get(i, INF)
        if r < m:
            m = r
        if m == INF:
            return (INF, INF)
        # _octile from the start, whose padded (row, col) is kept
        row, col = divmod(i, self.dmap.stride)
        dr = abs(row - self._start_key[0])
        dc = abs(col - self._start_key[1])
        lo, hi = (dc, dr) if dc < dr else (dr, dc)
        return (m + (hi - lo) * STRAIGHT[0] + lo * DIAG[0] + self.km, m)

    def _push(self, i: int, key: tuple[int | float, int | float]) -> None:
        self._key_of[i] = key
        heapq.heappush(self._heap, (key[0], key[1], i))

    def _peek(self) -> tuple[tuple[int | float, int | float], int] | None:
        while self._heap:
            k1, k2, i = self._heap[0]
            current = self._key_of.get(i)
            if current is not None and current == (k1, k2):
                return (k1, k2), i
            heapq.heappop(self._heap)  # stale or removed entry
        return None

    def _update_vertex(self, costs: list[int], i: int) -> None:
        if i != self._goal_index:
            # the minimum of g[j] + step over _moves(costs, stride, i), with
            # the same rule scanned inline rather than built as a list
            best = INF
            if costs[i] < UNKNOWN_COST:
                get = self.g.get
                stride = self.dmap.stride
                north, south = i + stride, i - stride
                ce, cw, cn, cs = costs[i + 1], costs[i - 1], costs[north], costs[south]
                e, w = ce < UNKNOWN_COST, cw < UNKNOWN_COST
                if e:
                    best = get(i + 1, INF) + STRAIGHT[ce]
                if w:
                    cand = get(i - 1, INF) + STRAIGHT[cw]
                    if cand < best:
                        best = cand
                for j, c in ((north, cn), (south, cs)):
                    if c >= UNKNOWN_COST:
                        continue
                    cand = get(j, INF) + STRAIGHT[c]
                    if cand < best:
                        best = cand
                    if e and costs[j + 1] < UNKNOWN_COST:
                        cand = get(j + 1, INF) + DIAG[costs[j + 1]]
                        if cand < best:
                            best = cand
                    if w and costs[j - 1] < UNKNOWN_COST:
                        cand = get(j - 1, INF) + DIAG[costs[j - 1]]
                        if cand < best:
                            best = cand
            self.rhs[i] = best
        self._queue(i)

    def _queue(self, i: int) -> None:
        """The queue half of a vertex update: an inconsistent vertex holds
        one entry at its current key (an equal key is already in the heap,
        so it is not pushed again), a consistent one none."""
        if self.g.get(i, INF) != self.rhs.get(i, INF):
            key = self._calc_key(i)
            if self._key_of.get(i) != key:
                self._push(i, key)
        else:
            self._key_of.pop(i, None)

    def _compute(self, costs: list[int]) -> None:
        stride = self.dmap.stride
        cardinal = (1, -1, stride, -stride)
        si = self.dmap.index(self.start)
        g, rhs, goal = self.g, self.rhs, self._goal_index
        while True:
            g_start = g.get(si, INF)
            rhs_start = rhs.get(si, INF)
            top = self._peek()
            if top is None:
                break
            key, i = top
            start_key = self._calc_key(si)
            if not (key < start_key or rhs_start != g_start):
                break
            heapq.heappop(self._heap)
            self._key_of.pop(i, None)
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
            g_old = g.get(i, INF)
            rhs_i = rhs.get(i, INF)
            if g_old > rhs_i:
                g[i] = rhs_i
                for j, _ in moves:
                    if j != goal:
                        through = rhs_i + (straight if j - i in cardinal else diag)
                        if through < rhs.get(j, INF):
                            rhs[j] = through
                    self._queue(j)
            else:
                g[i] = INF
                self._update_vertex(costs, i)
                for j, _ in moves:
                    if rhs.get(j, INF) == g_old + (straight if j - i in cardinal else diag):
                        self._update_vertex(costs, j)
                    else:
                        self._queue(j)

    def extract_path(self) -> list[tuple[int, int]] | None:
        return self._extract(self.dmap.snapshot())

    def _extract(self, costs: list[int]) -> list[tuple[int, int]] | None:
        dmap = self.dmap
        i = dmap.index(self.start)
        if costs[i] >= UNKNOWN_COST or self.rhs.get(i, INF) == INF:
            return None
        path = [i]
        limit = dmap.width * dmap.height
        while i != self._goal_index:
            best = None
            best_through = INF
            for j, step in _moves(costs, dmap.stride, i):
                g_next = self.g.get(j, INF)
                if g_next == INF:
                    continue
                through = g_next + step
                # ties go to the lower (row-major) index
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


def _connected(dmap: DrivingMap, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True when cells a and b are traversable and lie in one 4-connected
    component of the traversable cells. A diagonal move needs both of its
    cardinal cells traversable, so these are the components of the move
    graph: a and b are connected exactly when some path joins them."""
    if not dmap.traversable(*a) or not dmap.traversable(*b):
        return False
    # traversable cells, with one closed column after each row so that no
    # row run wraps into the next row
    width = dmap.width + 1
    mask = np.zeros((dmap.height, width), dtype=bool)
    mask[:, :-1] = dmap.static < UNKNOWN_COST
    if dmap.dynamic:
        mask.ravel()[[row * width + col for col, row in dmap.dynamic]] = False
    flat = mask.ravel()
    starts = flat.copy()
    starts[1:] &= ~flat[:-1]
    first = np.flatnonzero(starts)  # run r starts at flat index first[r]
    # an open cell with an open cell in the next row joins their two runs;
    # two runs share one interval of columns, so only its first is kept
    both = mask[:-1] & mask[1:]
    contacts = both.copy()
    contacts[:, 1:] &= ~both[:, :-1]
    top = np.flatnonzero(contacts)
    upper = np.searchsorted(first, top, "right") - 1
    lower = np.searchsorted(first, top + width, "right") - 1
    parent = list(range(first.size))
    for u, v in zip(upper.tolist(), lower.tolist()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]  # path halving
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    ends = [a[1] * width + a[0], b[1] * width + b[0]]
    ra, rb = (np.searchsorted(first, ends, "right") - 1).tolist()
    while parent[ra] != ra:
        ra = parent[ra]
    while parent[rb] != rb:
        rb = parent[rb]
    return ra == rb


def replan_incremental(
    rs: ReplanState,
    changed_cells: set[tuple[int, int]],
    new_start: tuple[int, int] | None = None,
) -> list[tuple[int, int]] | None:
    """Repair the search after costmap changes (and optionally a moved
    start), then extract the current optimal path.

    While start and goal are disconnected the changed cells are set aside
    on the state and None is returned at once, with no vertex updated and
    no search run: there is no path to find, and a repair would only drain
    the goal's component. The first call that finds them connected updates
    each in-bounds cell of the 3 x 3 blocks of every cell set aside so far
    once, in index order, on its own snapshot, then searches. That gives the
    rhs values an update on every call would: a vertex's rhs reads only its
    own block, a later change in that block puts it in a later block too,
    and g does not change while no search runs.
    """
    dmap = rs.dmap
    if new_start is not None and new_start != rs.start:
        if not dmap.in_bounds(*new_start):
            raise ValueError("new start must lie inside the map")
        km = rs.km + octile(rs._last_start, new_start)
        if sum(decode(km)) > PAIR_SUM_LIMIT // 2:
            raise ValueError("the start has moved too far for exact path costs")
        rs.km = km
        rs._last_start = new_start
        rs._start_key = divmod(dmap.index(new_start), dmap.stride)
        rs.start = new_start
    rs._set_aside |= changed_cells
    if not _connected(dmap, rs.start, rs.goal):
        return None
    costs = dmap.snapshot()
    width, height, stride = dmap.width, dmap.height, dmap.stride
    touched = {
        (row + dr + 1) * stride + col + dc + 1
        for col, row in rs._set_aside
        if 0 <= col < width and 0 <= row < height
        for dc, dr in _NEIGHBOURHOOD
        if 0 <= col + dc < width and 0 <= row + dr < height
    }
    rs._set_aside.clear()
    for i in sorted(touched):
        rs._update_vertex(costs, i)
    rs._compute(costs)
    return rs._extract(costs)


# -- waypoint following --

@dataclass
class RobotState:
    pose: Pose2


def cells_to_points(dmap: DrivingMap, path: list[tuple[int, int]]) -> list[Point2]:
    return [dmap.center_of(*cell) for cell in path]


# Pure-pursuit limits: forward speed (m/s), turn rate (rad/s), how far ahead
# along the path to aim (m), the arrival distance to the goal at which the
# mission stops driving (m) and the turn rate per radian of heading error.
V_MAX = 1.0
OMEGA_MAX = 1.5
LOOKAHEAD = 0.5
GOAL_TOLERANCE = 0.15
TURN_GAIN = 3.0


def follow_step(state: RobotState, waypoints: list[Point2]) -> tuple[float, float]:
    """Rotate-then-drive pursuit of the furthest waypoint within LOOKAHEAD.

    Large heading error (> 90°) turns in place; otherwise forward speed
    scales with the cosine of the error. Only the command is chosen here:
    `simulator.step` is what moves the robot.
    """
    if not waypoints:
        raise ValueError("follow_step needs at least one waypoint")
    pose = state.pose
    here = pose.position
    gaps = [here.distance_to(point) for point in waypoints]
    nearest = gaps.index(min(gaps))
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
