"""Planar geometry primitives: points, poses, polygon footprints, rasterization.

All coordinates are meters in a fixed world frame; headings are radians
normalized into (-pi, pi]. Footprints are simple polygons stored with
counter-clockwise winding. Boundary points count as inside everywhere, which
keeps rasterization deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
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


def _on_segment(p: Point2, a: Point2, b: Point2, eps: float = 1e-12) -> bool:
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if abs(cross) > eps * max(1.0, abs(b.x - a.x) + abs(b.y - a.y)):
        return False
    dot = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)
    if dot < -eps:
        return False
    sq_len = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
    return dot <= sq_len + eps


def _segments_intersect(p1: Point2, p2: Point2, p3: Point2, p4: Point2) -> bool:
    def orient(a: Point2, b: Point2, c: Point2) -> float:
        return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and _on_segment(p1, p3, p4):
        return True
    if d2 == 0 and _on_segment(p2, p3, p4):
        return True
    if d3 == 0 and _on_segment(p3, p1, p2):
        return True
    if d4 == 0 and _on_segment(p4, p1, p2):
        return True
    return False


def point_in_footprint(p: Point2, f: Footprint) -> bool:
    """Even-odd containment test; points on the boundary count as inside."""
    for a, b in f.edges():
        if _on_segment(p, a, b):
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


def rasterize_footprint(
    f: Footprint, resolution: float, origin: Point2
) -> set[tuple[int, int]]:
    """Grid cells whose center lies in the footprint.

    Cell (ix, iy) covers [origin + ix*res, origin + (ix+1)*res) along x and
    likewise along y; its center is sampled with point_in_footprint.
    """
    if resolution <= 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    min_x, min_y, max_x, max_y = f.bounds()
    ix0 = math.floor((min_x - origin.x) / resolution) - 1
    ix1 = math.ceil((max_x - origin.x) / resolution) + 1
    iy0 = math.floor((min_y - origin.y) / resolution) - 1
    iy1 = math.ceil((max_y - origin.y) / resolution) + 1
    cells: set[tuple[int, int]] = set()
    for iy in range(iy0, iy1 + 1):
        cy = origin.y + (iy + 0.5) * resolution
        for ix in range(ix0, ix1 + 1):
            cx = origin.x + (ix + 0.5) * resolution
            if point_in_footprint(Point2(cx, cy), f):
                cells.add((ix, iy))
    return cells

