"""Planar geometry primitives: points, poses, polygon footprints, rasterization.

All coordinates are meters in a fixed world frame; headings are radians
normalized into (-pi, pi]. Footprints are simple polygons stored with
counter-clockwise winding. Boundary points count as inside everywhere, which
keeps rasterization deterministic. One even-odd test serves a single point and,
elementwise over numpy arrays, every cell center a footprint rasterizes; the
rasterized cells stay that bounding-box mask, a set with membership by index.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Set
from dataclasses import dataclass

import numpy as np


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]; one already there comes back unchanged."""
    if -math.pi < theta <= math.pi:
        return theta
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Pose2:
    x: float
    y: float
    heading: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise ValueError("non-finite pose")
        object.__setattr__(self, "heading", normalize_angle(self.heading))

    @property
    def position(self) -> Point2:
        return Point2(self.x, self.y)


@dataclass(frozen=True)
class Footprint:
    """Simple polygon outline of an element, CCW when valid.

    Construction only checks vertex count and finiteness; winding and
    self-intersection are reported by world validation so that malformed
    input can be diagnosed instead of rejected at parse time.
    """

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError(f"footprint needs >=3 vertices, got {len(self.vertices)}")

    def signed_area(self) -> float:
        """Shoelace area; positive for CCW winding."""
        area = 0.0
        pts = self.vertices
        for i in range(len(pts)):
            a = pts[i]
            b = pts[(i + 1) % len(pts)]
            area += a.x * b.y - b.x * a.y
        return 0.5 * area

    def is_simple(self) -> bool:
        """True when no two non-adjacent edges intersect."""
        edges = self.edges()
        n = len(edges)
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or j == (i + 1) % n or (j + 1) % n == i:
                    continue
                if _segments_intersect(edges[i][0], edges[i][1], edges[j][0], edges[j][1]):
                    return False
        return True

    def edges(self) -> list[tuple[Point2, Point2]]:
        pts = self.vertices
        return [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]

    def centroid(self) -> Point2:
        """Area centroid of the polygon."""
        area2 = 0.0
        cx = 0.0
        cy = 0.0
        pts = self.vertices
        for i in range(len(pts)):
            a = pts[i]
            b = pts[(i + 1) % len(pts)]
            cross = a.x * b.y - b.x * a.y
            area2 += cross
            cx += (a.x + b.x) * cross
            cy += (a.y + b.y) * cross
        if abs(area2) < 1e-12:
            # Degenerate polygon: fall back to vertex mean.
            n = len(pts)
            return Point2(sum(p.x for p in pts) / n, sum(p.y for p in pts) / n)
        return Point2(cx / (3.0 * area2), cy / (3.0 * area2))

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def _on_segment(px, py, a: Point2, b: Point2, eps: float = 1e-12):
    """Whether point (px, py) lies on segment a-b, within eps; px and py may
    be floats or arrays, answered elementwise with the same arithmetic."""
    ex, ey = b.x - a.x, b.y - a.y
    cross = ex * (py - a.y) - ey * (px - a.x)
    dot = (px - a.x) * ex + (py - a.y) * ey
    sq_len = ex**2 + ey**2
    return (abs(cross) <= eps * max(1.0, abs(ex) + abs(ey))) & (dot >= -eps) & (dot <= sq_len + eps)


def _segments_intersect(p1: Point2, p2: Point2, p3: Point2, p4: Point2) -> bool:
    def orient(a: Point2, b: Point2, c: Point2) -> float:
        return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    return (
        (d1 == 0 and _on_segment(p1.x, p1.y, p3, p4))
        or (d2 == 0 and _on_segment(p2.x, p2.y, p3, p4))
        or (d3 == 0 and _on_segment(p3.x, p3.y, p1, p2))
        or (d4 == 0 and _on_segment(p4.x, p4.y, p1, p2))
    )


def _contains(px, py, f: Footprint):
    """Even-odd containment of (px, py) in f, boundary inside; floats or arrays alike."""
    on_edge = inside = False
    for a, b in f.edges():
        on_edge = on_edge | _on_segment(px, py, a, b)
        if a.y != b.y:  # a horizontal edge never straddles py
            x_cross = a.x + (py - a.y) * (b.x - a.x) / (b.y - a.y)
            inside = inside ^ (((b.y > py) != (a.y > py)) & (px < x_cross))
    return on_edge | inside


def point_in_footprint(p: Point2, f: Footprint) -> bool:
    """Even-odd containment test; points on the boundary count as inside."""
    return bool(_contains(p.x, p.y, f))


class FootprintCells(Set):
    """The (col, row) cells of a rasterized footprint, as an immutable set.

    Held as a read-only boolean mask over the footprint's bounding box whose
    [0, 0] is cell `origin`, so membership is one index into the mask and
    no per-cell tuple exists until the set is iterated. Iteration is
    row-major (row, then column, ascending); the set operators give plain
    frozensets, and a FootprintCells equals and hashes as the frozenset of
    its cells.
    """

    __slots__ = ("mask", "origin", "_len")

    def __init__(self, mask: np.ndarray, origin: tuple[int, int]) -> None:
        self.mask = mask
        self.mask.flags.writeable = False
        self.origin = origin
        self._len = int(np.count_nonzero(mask))

    def __contains__(self, cell: object) -> bool:
        try:
            col, row = cell
            col = operator.index(col) - self.origin[0]
            row = operator.index(row) - self.origin[1]
        except (TypeError, ValueError):
            return False
        height, width = self.mask.shape
        return 0 <= col < width and 0 <= row < height and bool(self.mask[row, col])

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        rows, cols = np.nonzero(self.mask)
        return zip((cols + self.origin[0]).tolist(), (rows + self.origin[1]).tolist())

    def paint(self, grid: np.ndarray, value: int) -> None:
        """Set grid[row, col] = value for each of these cells that lies in
        grid, whose [0, 0] is cell (0, 0)."""
        (col0, row0), (height, width) = self.origin, self.mask.shape
        c0, r0 = max(col0, 0), max(row0, 0)
        c1, r1 = min(col0 + width, grid.shape[1]), min(row0 + height, grid.shape[0])
        if c0 < c1 and r0 < r1:
            grid[r0:r1, c0:c1][self.mask[r0 - row0 : r1 - row0, c0 - col0 : c1 - col0]] = value

    _from_iterable = frozenset
    __hash__ = Set._hash


def rasterize_footprint(f: Footprint, resolution: float, origin: Point2) -> FootprintCells:
    """Grid cells whose center lies in the footprint.

    Cell (ix, iy) covers [origin + ix*res, origin + (ix+1)*res) along x and
    likewise along y. The centers of the footprint's bounding box, padded by
    one cell, are tested in one array pass, and that mask is the result:
    membership is an index into it, and iteration is row-major.
    """
    if resolution <= 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    min_x, min_y, max_x, max_y = f.bounds()
    ix0 = math.floor((min_x - origin.x) / resolution) - 1
    ix1 = math.ceil((max_x - origin.x) / resolution) + 1
    iy0 = math.floor((min_y - origin.y) / resolution) - 1
    iy1 = math.ceil((max_y - origin.y) / resolution) + 1
    cx = origin.x + (np.arange(ix0, ix1 + 1) + 0.5) * resolution
    cy = origin.y + (np.arange(iy0, iy1 + 1) + 0.5) * resolution
    return FootprintCells(_contains(cx[np.newaxis, :], cy[:, np.newaxis], f), (ix0, iy0))
