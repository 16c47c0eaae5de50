"""Layered driving map, global planning, and incremental replanning.

There is one grid search: the D*-Lite of ReplanState (Koenig & Likhachev,
AAAI 2002), run backward from the goal. It has two entry points.
plan_global is a fresh state's first search, and replan_incremental
repairs a state after cells change or the start moves (and runs that first
search when it is the state's first repair).

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

The search carries such a cost as one Python int, C(a, b) = a*UA + b*UB
with UA = 2**120 and UB = floor(sqrt(2) * 2**80) * 2**40 + 1. The encoding
is linear, so a move adds a precomputed STRAIGHT[c] or DIAG[c] and equal
pairs give equal ints whatever the order of the sums. C / 2**120 lies within
b * 2**-80 of a + b*sqrt(2), while two distinct pairs with a + b <= S differ
by at least 1 / (2*sqrt(2)*S); so comparing ints orders costs exactly as the
reals do while S < 4.6e11 (PAIR_SUM_LIMIT). UB is 1 modulo 2**40 and UA
is 0, so b = C & (2**40 - 1) and a = (C - b*UB) >> 120 decode a cost. INF is
math.inf, which compares correctly with any int. A repaired search and a
search from scratch therefore agree on optimal cost bit for bit.

The incremental replanner is repaired lazily: the drive loop batches the
cells that change while its path stays drivable and repairs only once that
path is blocked or the robot has none. While the start or the goal cell is
blocked there is no path, and a repair updates no vertex and runs no
search: it sets its changed cells aside, and the first call that finds
both cells open updates their neighbourhoods once. When both are open but
no path joins them the search runs and settles the goal's side of the map,
and later repairs go on from there. Of the changed cells' neighbourhoods
a repair updates only the vertices a search has reached: it skips one with
g == rhs == INF that is blocked or has no finite g among its eight
neighbours, since its rhs, the minimum of g + step over its moves, would
come out INF again, and a consistent vertex already holds no queue entry. The search itself
does work in proportion to what changed: an expansion relaxes each
predecessor's rhs in O(1) (the moves rule is symmetric, so a vertex's
moves are its predecessors), rescans one only when its minimum ran through
a vertex whose g rose, and pushes no heap entry a vertex already holds.

Searches run on a padded flat index. The map keeps its static costs once
more as a row-major Python list framed by a LETHAL border, so cell
(col, row) sits at (row+1)*(width+2) + col+1: no move needs a bounds check,
and the index is monotone in row-major order, so it breaks heap ties
exactly as the row-major cell order does. Each repair takes one snapshot,
a copy of that list with the dynamic cells overlaid; cells become
(col, row) pairs only at the API boundary. Every expansion scans the moves
rule inline, from one table of neighbour offsets per search
(_move_offsets), and takes the octile heuristic from two step tables per
state (_octile_steps) against the start's padded (row, col): no expansion
or push calls a helper or builds a move list, and the search writes its
key formula out wherever it queues a vertex. The start's own key needs no
heuristic: it is (min(g, rhs) + km, min(g, rhs)). The search state (g,
rhs and queue keys) is lists over the padded index too, allocated whole
when a ReplanState is built: each state holds three grid-sized lists
beside its snapshot, O(cells) memory, and a world too large for that
still ends in cli.main's MemoryError exit 1. The dynamic layer stays a
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
        self._open = static != LETHAL  # where a hit may enter the dynamic layer
        self.dynamic: dict[tuple[int, int], int] = {}  # cell -> expiry tick
        # (expiry, cells) per fold with hits, oldest first: see update_dynamic_layer
        self._due: deque[tuple[int, tuple[tuple[int, int], ...]]] = deque()
        self._last_fold = -math.inf
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

    def update_dynamic_layer(self, scan, tick: int) -> set[tuple[int, int]]:
        """Fold a lidar scan (a simulator.LidarScan, taken at scan.pose) into
        the dynamic layer and age out old entries.

        Every hit lands as cost 254 with expiry tick + DEFAULT_TTL unless the
        cell is already static-lethal; hit cells are found for all beams at
        once, from the scan's direction and range arrays, and folded in beam
        order. Returns the cells whose composite cost differs from before
        the call. A non-finite hit point short of range_max, or a tick
        earlier than the last fold's, raises ValueError before anything
        changes.

        Entries age out by due bucket: each fold queues its hit cells under
        their common expiry, and since every expiry is tick + DEFAULT_TTL and
        ticks never decrease, the buckets fall due in queue order. A fold
        pops only the buckets due at its tick and drops a cell of one only
        while its expiry is still that bucket's (a later hit moved it to a
        later bucket), so it costs O(hits + cells due), not O(live cells).
        Entries enter only through this fold: one written into self.dynamic
        directly sits in no bucket and never falls due.
        """
        if tick < self._last_fold:
            raise ValueError(f"tick {tick} is earlier than the last fold's, {self._last_fold}")
        pose = scan.pose
        ranges = scan.range_array
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
        # The dynamic layer only ever holds such non-static-lethal hit cells,
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


def path_reads(path: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """The cells path_cost reads for the path (both ends of every move, and
    both corner cells of a diagonal), each mapped to the last move that reads
    it; move k runs from path[k] to path[k + 1]."""
    reads: dict[tuple[int, int], int] = {}
    for k, ((uc, ur), (vc, vr)) in enumerate(zip(path, path[1:])):
        reads[uc, ur] = reads[vc, vr] = k
        if uc != vc and ur != vr:
            reads[vc, ur] = reads[uc, vr] = k
    return reads


def plan_global(
    dmap: DrivingMap, start: tuple[int, int], goal: tuple[int, int]
) -> tuple[list[tuple[int, int]], PathCost] | None:
    """An optimal path over the composite costmap and its cost; None when an
    endpoint is off the map or blocked, or the goal is unreachable.

    This is a fresh ReplanState's first search, run by its first repair, so
    identical inputs give an identical cell sequence.
    """
    if not dmap.in_bounds(*start) or not dmap.in_bounds(*goal):
        return None
    rs = ReplanState(dmap, start, goal)
    path = replan_incremental(rs, set())
    if path is None:
        return None
    return path, decode(rs.g[dmap.index(start)])


def _octile_steps(dmap: DrivingMap) -> tuple[list[int], list[int]]:
    """The octile distance's straight and diagonal parts by step count, up
    to the map's larger side: octile() is straight[hi - lo] + diag[lo] for
    the larger and smaller of the row and column distances."""
    reach = range(max(dmap.width, dmap.height) + 2)
    return [n * STRAIGHT[0] for n in reach], [n * DIAG[0] for n in reach]


class ReplanState:
    """Incremental lifelong search bookkeeping (D*-Lite style).

    The search runs backward from the goal, so per-cell g values estimate
    remaining cost-to-goal and survive robot movement; km compensates the
    heuristic as the start slides. A new state has searched nothing: it
    holds the goal's queue entry alone, and its first repair runs the whole
    search, which is plan_global. After each repair the extracted path
    cost equals a from-scratch plan on the same costmap. While the start or
    the goal cell is blocked a repair runs no search, and its changed cells
    wait in a set until both are open again.

    An expansion of vertex i changes only g[i]. Since j is a move of i
    exactly when i is a move of j, with the step j -> i costing STRAIGHT
    or DIAG of costs[i], a falling g[i] lowers each predecessor's rhs to at
    most g[i] + step, and a rising g[i] rescans only a predecessor whose rhs
    equalled the old g[i] + step. Costs are exact ints and every rhs is the
    minimum over its moves before each expansion, so this matches a full
    rescan bit for bit.

    A vertex with g == rhs holds no live queue key: every write to g or rhs
    is followed by the vertex's queue update, which clears the key of a
    consistent vertex. So a repair may skip a touched vertex with g == rhs
    == INF that is blocked or has no finite g around it: an update would set
    its rhs to INF and clear a key it does not hold, changing nothing.

    g, rhs and the queue's current keys (_key_of, None for a vertex with no
    live heap entry) are lists over the map's padded flat index, sized to
    the snapshot; g and rhs hold exact int costs, INF when unknown. Each
    repair takes one costmap snapshot and hands it down.
    """

    def __init__(self, dmap: DrivingMap, start: tuple[int, int], goal: tuple[int, int]):
        if not dmap.in_bounds(*start) or not dmap.in_bounds(*goal):
            raise ValueError("start and goal must lie inside the map")
        self.dmap = dmap
        self.start = start
        self.goal = goal
        self.km = 0
        self._start_key = divmod(dmap.index(start), dmap.stride)  # padded (row, col)
        self._goal_index = dmap.index(goal)
        size = (dmap.height + 2) * dmap.stride
        self.g: list[int | float] = [INF] * size
        self.rhs: list[int | float] = [INF] * size
        self.rhs[self._goal_index] = 0
        self._heap: list[tuple[int | float, int | float, int]] = []
        self._key_of: list[tuple[int | float, int | float] | None] = [None] * size
        self._straight, self._diag = _octile_steps(dmap)
        self._set_aside: set[tuple[int, int]] = set()  # changed while an end cell was blocked
        # the goal's key: rhs 0 plus the heuristic from the start
        key = (octile(start, goal), 0)
        self._key_of[self._goal_index] = key
        self._heap.append((*key, self._goal_index))

    def _update_vertex(self, costs: list[int], i: int) -> None:
        g, rhs = self.g, self.rhs
        stride = self.dmap.stride
        if i != self._goal_index:
            # the minimum of g[j] + step over i's moves, the rule scanned
            # inline with each diagonal after the cardinals it needs
            best = INF
            if costs[i] < UNKNOWN_COST:
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
            rhs[i] = best
        # the queue half: an inconsistent vertex holds one entry at its
        # current key (an equal key is already in the heap, so it is not
        # pushed again), a consistent one none
        m, r = g[i], rhs[i]
        if m == r:
            self._key_of[i] = None
            return
        if r < m:
            m = r
        row, col = divmod(i, stride)
        dr, dc = abs(row - self._start_key[0]), abs(col - self._start_key[1])
        if dc < dr:
            k1 = m + self._straight[dr - dc] + self._diag[dc] + self.km
        else:
            k1 = m + self._straight[dc - dr] + self._diag[dr] + self.km
        if self._key_of[i] != (k1, m):
            self._key_of[i] = (k1, m)
            heapq.heappush(self._heap, (k1, m, i))

    def _compute(self, costs: list[int]) -> None:
        stride = self.dmap.stride
        si = self.dmap.index(self.start)
        g, rhs, goal = self.g, self.rhs, self._goal_index
        key_of, heap, push, pop = self._key_of, self._heap, heapq.heappush, heapq.heappop
        straight_h, diag_h, km = self._straight, self._diag, self.km
        start_row, start_col = self._start_key
        moves = _move_offsets(stride)
        while True:
            # the top live entry: stale and removed ones are dropped
            while heap:
                k1, k2, i = heap[0]
                if key_of[i] == (k1, k2):
                    break
                pop(heap)
            else:
                break
            # the start's key, whose heuristic is 0
            m = rhs[si] if rhs[si] < g[si] else g[si]
            if not ((k1, k2) < (m + km, m) or rhs[si] != g[si]):
                break
            pop(heap)
            key_of[i] = None
            # i's key as it is now; an outdated entry goes back at it
            m = rhs[i] if rhs[i] < g[i] else g[i]
            row, col = divmod(i, stride)
            dr, dc = abs(row - start_row), abs(col - start_col)
            if dc < dr:
                fresh = m + straight_h[dr - dc] + diag_h[dc] + km
            else:
                fresh = m + straight_h[dc - dr] + diag_h[dr] + km
            if (k1, k2) < (fresh, m):
                key_of[i] = (fresh, m)
                push(heap, (fresh, m, i))
                continue
            g_old = g[i]
            rhs_i = rhs[i]
            falling = g_old > rhs_i
            if falling:
                g[i] = rhs_i
            else:
                g[i] = INF
                self._update_vertex(costs, i)
            # i's predecessors are its moves (see the class docstring); the
            # step from one into i costs STRAIGHT or DIAG of costs[i], and a
            # blocked i has none
            if costs[i] >= UNKNOWN_COST:
                continue
            straight, diag = STRAIGHT[costs[i]], DIAG[costs[i]]
            for d, a, b, diagonal in moves:
                j = i + d
                c = costs[j]
                if (c >= UNKNOWN_COST or costs[i + a] >= UNKNOWN_COST
                        or costs[i + b] >= UNKNOWN_COST):
                    continue
                step = diag if diagonal else straight
                if falling:
                    through = rhs_i + step
                    if j != goal and through < rhs[j]:
                        rhs[j] = through
                elif rhs[j] == g_old + step:
                    self._update_vertex(costs, j)
                    continue
                # j's queue half, as in _update_vertex: g[j] != rhs[j] makes
                # the smaller of the two finite
                m, r = g[j], rhs[j]
                if m == r:
                    key_of[j] = None
                    continue
                if r < m:
                    m = r
                row, col = divmod(j, stride)
                dr, dc = abs(row - start_row), abs(col - start_col)
                if dc < dr:
                    k1 = m + straight_h[dr - dc] + diag_h[dc] + km
                else:
                    k1 = m + straight_h[dc - dr] + diag_h[dr] + km
                if key_of[j] != (k1, m):
                    key_of[j] = (k1, m)
                    push(heap, (k1, m, j))

    def _extract(self, costs: list[int]) -> list[tuple[int, int]] | None:
        dmap = self.dmap
        g = self.g
        i = dmap.index(self.start)
        if self.rhs[i] == INF:
            return None
        path = [i]
        limit = dmap.width * dmap.height
        moves = _move_offsets(dmap.stride)
        while i != self._goal_index:
            best = None
            best_through = INF
            # i is open: replan_incremental checks the start, and each later i
            # is a move
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


def replan_incremental(
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
    it in a later block too, and g does not change while no search runs. Of
    those cells it skips the ones an update would leave as they are (see
    ReplanState): g == rhs == INF, and blocked or with no finite g around
    them. When both cells are open but no path joins them, the search
    settles the goal's side and None is returned.
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
    # a block's cells on the LETHAL border are in the set too; the skip
    # below tests costs[i] first, so it reads no neighbour of one
    touched = {
        (row + dr + 1) * stride + col + dc + 1
        for col, row in rs._set_aside
        if 0 <= col < width and 0 <= row < height
        for dc, dr in _NEIGHBOURHOOD
    }
    rs._set_aside.clear()
    g, rhs = rs.g, rs.rhs
    for i in sorted(touched):
        # an update would leave this vertex at rhs INF with no queue entry,
        # as it is (see ReplanState)
        if rhs[i] == INF and g[i] == INF and (
            costs[i] >= UNKNOWN_COST
            or INF == g[i + 1] == g[i - 1] == g[i + stride] == g[i - stride]
            == g[i + stride + 1] == g[i + stride - 1]
            == g[i - stride + 1] == g[i - stride - 1]
        ):
            continue
        rs._update_vertex(costs, i)
    rs._compute(costs)
    return rs._extract(costs)


# -- waypoint following --

@dataclass
class RobotState:
    pose: Pose2


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
