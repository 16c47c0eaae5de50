"""Geometry tests. Containment and rasterization are checked against
independent brute-force references, not against the implementation's own
algorithm."""

from __future__ import annotations

import math
import operator
import random

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from oracles import reference_point_in_footprint
from semnav.geometry import (
    Footprint,
    FootprintCells,
    Point2,
    Pose2,
    normalize_angle,
    point_in_footprint,
    rasterize_footprint,
)
from semnav.simulator import Walls


def rect_footprint(x0: float, y0: float, x1: float, y1: float) -> Footprint:
    """Axis-aligned rectangle as a CCW footprint."""
    return Footprint((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


# --- independent reference: winding number containment ---

def winding_number_inside(p: Point2, f: Footprint) -> bool:
    """Sum the signed angles subtended by each edge; nonzero winding means
    inside. Points on the boundary are treated as inside to mirror the
    documented convention."""
    for a, b in f.edges():
        # boundary check via collinearity + box test
        cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
        if abs(cross) < 1e-9:
            if min(a.x, b.x) - 1e-12 <= p.x <= max(a.x, b.x) + 1e-12 and min(
                a.y, b.y
            ) - 1e-12 <= p.y <= max(a.y, b.y) + 1e-12:
                return True
    total = 0.0
    for a, b in f.edges():
        ang1 = math.atan2(a.y - p.y, a.x - p.x)
        ang2 = math.atan2(b.y - p.y, b.x - p.x)
        delta = ang2 - ang1
        while delta > math.pi:
            delta -= 2.0 * math.pi
        while delta < -math.pi:
            delta += 2.0 * math.pi
        total += delta
    return abs(total) > math.pi  # ~2*pi when inside, ~0 when outside


def random_convex_footprint(rng: random.Random) -> Footprint:
    cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
    n = rng.randint(3, 8)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    # enforce distinct angles so no two vertices coincide
    if any(b - a < 1e-3 for a, b in zip(angles, angles[1:])):
        angles = [2 * math.pi * i / n for i in range(n)]
    radius = rng.uniform(0.5, 4.0)
    pts = tuple(Point2(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles)
    return Footprint(pts)


class TestNormalizeAngle:
    def test_half_open_interval(self):
        assert normalize_angle(math.pi) == pytest.approx(math.pi)
        assert normalize_angle(-math.pi) == pytest.approx(math.pi)
        assert normalize_angle(0.0) == 0.0

    @pytest.mark.parametrize(
        "theta", [0.3, math.nextafter(0.0, math.inf), -0.0, math.pi, -math.pi + 1e-12]
    )
    def test_angle_in_range_comes_back_unchanged(self, theta):
        # bit for bit: 0.3 + pi - pi would give 0.2999999999999998, a
        # subnormal would become 0.0, and -0.0 would lose its sign
        wrapped = normalize_angle(theta)
        assert math.copysign(1.0, wrapped) == math.copysign(1.0, theta)
        assert wrapped.hex() == theta.hex()

    def test_minus_pi_wraps_to_pi(self):
        assert normalize_angle(-math.pi) == math.pi

    def test_many_wraps(self):
        rng = random.Random(7)
        for _ in range(200):
            theta = rng.uniform(-50, 50)
            wrapped = normalize_angle(theta)
            assert -math.pi < wrapped <= math.pi
            assert math.isclose(math.sin(wrapped), math.sin(theta), abs_tol=1e-9)
            assert math.isclose(math.cos(wrapped), math.cos(theta), abs_tol=1e-9)


class TestPose2:
    def test_heading_normalized_on_construction(self):
        pose = Pose2(1.0, 2.0, 3.0 * math.pi)
        assert pose.heading == pytest.approx(math.pi)
        assert pose.position == Point2(1.0, 2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Pose2(0.0, float("inf"), 0.0)


class TestFootprint:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Footprint((Point2(0, 0), Point2(1, 0)))

    def test_signed_area_and_winding(self):
        square = rect_footprint(0, 0, 2, 3)
        assert square.signed_area() == pytest.approx(6.0)
        clockwise = Footprint(tuple(reversed(square.vertices)))
        assert clockwise.signed_area() == pytest.approx(-6.0)

    def test_simple_detection(self):
        bowtie = Footprint((Point2(0, 0), Point2(2, 2), Point2(2, 0), Point2(0, 2)))
        assert not bowtie.is_simple()
        assert rect_footprint(0, 0, 1, 1).is_simple()

    def test_centroid_of_square(self):
        fp = rect_footprint(1, 1, 3, 3)
        c = fp.centroid()
        assert c.x == pytest.approx(2.0)
        assert c.y == pytest.approx(2.0)


class TestContainment:
    def test_unit_square_examples(self):
        fp = rect_footprint(0, 0, 1, 1)
        assert point_in_footprint(Point2(0.5, 0.5), fp)
        assert not point_in_footprint(Point2(2.0, 2.0), fp)

    def test_boundary_counts_as_inside(self):
        fp = rect_footprint(0, 0, 1, 1)
        assert point_in_footprint(Point2(0.0, 0.5), fp)
        assert point_in_footprint(Point2(1.0, 1.0), fp)
        assert point_in_footprint(Point2(0.5, 0.0), fp)

    def test_matches_winding_number_reference(self):
        rng = random.Random(42)
        checked = 0
        while checked < 1200:
            fp = random_convex_footprint(rng)
            x0, y0, x1, y1 = fp.bounds()
            p = Point2(
                rng.uniform(x0 - 1.0, x1 + 1.0),
                rng.uniform(y0 - 1.0, y1 + 1.0),
            )
            # skip points hugging an edge: both methods are exact away from
            # the boundary, and the boundary itself is covered above
            near_edge = any(
                _point_segment_distance(p, a, b) < 1e-6 for a, b in fp.edges()
            )
            if near_edge:
                continue
            assert point_in_footprint(p, fp) == winding_number_inside(p, fp)
            checked += 1

    def test_concave_footprint(self):
        # L-shape: the notch must read as outside
        fp = Footprint(
            (
                Point2(0, 0),
                Point2(3, 0),
                Point2(3, 1),
                Point2(1, 1),
                Point2(1, 3),
                Point2(0, 3),
            )
        )
        assert point_in_footprint(Point2(0.5, 2.0), fp)
        assert not point_in_footprint(Point2(2.0, 2.0), fp)
        assert point_in_footprint(Point2(2.0, 0.5), fp)

    def test_vertex_order_rotation_invariance(self):
        rng = random.Random(9)
        for _ in range(50):
            fp = random_convex_footprint(rng)
            p = Point2(rng.uniform(-6, 6), rng.uniform(-6, 6))
            verts = fp.vertices
            k = rng.randrange(len(verts))
            rotated = Footprint(verts[k:] + verts[:k])
            assert point_in_footprint(p, fp) == point_in_footprint(p, rotated)


def _point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    vx, vy = b.x - a.x, b.y - a.y
    wx, wy = p.x - a.x, p.y - a.y
    seg_len2 = vx * vx + vy * vy
    if seg_len2 == 0.0:
        return p.distance_to(a)
    t = max(0.0, min(1.0, (wx * vx + wy * vy) / seg_len2))
    return p.distance_to(Point2(a.x + t * vx, a.y + t * vy))


RESOLUTIONS = (0.25, 0.1, 0.05)  # coarsest first: failures shrink towards it


def reference_cells(fp: Footprint, resolution: float, origin: Point2):
    """The frozenset of cells whose centre the scalar reference puts inside
    fp, found by testing every cell of fp's bounding box widened by two cells
    on each side, and that box's cells in a list."""
    x0, y0, x1, y1 = fp.bounds()
    col0 = int(math.floor((x0 - origin.x) / resolution)) - 2
    col1 = int(math.ceil((x1 - origin.x) / resolution)) + 2
    row0 = int(math.floor((y0 - origin.y) / resolution)) - 2
    row1 = int(math.ceil((y1 - origin.y) / resolution)) + 2
    box = [(col, row) for col in range(col0, col1 + 1) for row in range(row0, row1 + 1)]
    inside = frozenset(
        (col, row)
        for col, row in box
        if reference_point_in_footprint(
            Point2(origin.x + (col + 0.5) * resolution, origin.y + (row + 0.5) * resolution), fp
        )
    )
    return inside, box


@st.composite
def footprints(draw, resolution: float, origin: Point2) -> Footprint:
    """The shapes test_matches_exhaustive_center_scan draws: triangles of
    area above 0.05, concave L-shapes, and polygons whose vertices sit on
    cell centres."""
    kind = draw(st.sampled_from(["triangle", "ell", "centres"]))
    if kind == "triangle":
        coord = st.floats(0, 4)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=3))
        area = _footprint(pts).signed_area()
        assume(abs(area) > 0.05)
        return _footprint(pts if area > 0 else pts[::-1])
    if kind == "ell":
        x, y = draw(st.floats(0, 2)), draw(st.floats(0, 2))
        w, h = draw(st.floats(0.5, 2)), draw(st.floats(0.5, 2))
        a, b = draw(st.floats(0.1, 0.9)) * w, draw(st.floats(0.1, 0.9)) * h
        return _footprint([(x, y), (x + w, y), (x + w, y + b), (x + a, y + b),
                           (x + a, y + h), (x, y + h)])
    c0, r0 = draw(st.integers(-8, 8)), draw(st.integers(-8, 8))
    w, h = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    a, b = draw(st.integers(1, w - 1)), draw(st.integers(1, h - 1))
    shape = draw(st.sampled_from([
        [(0, 0), (w, 0), (w, b), (a, b), (a, h), (0, h)],  # L
        [(0, 0), (w, 0), (a, h)],  # triangle, slanted edges
        [(0, 0), (w, 0), (w, h), (a, b), (0, h)],  # notched
    ]))
    return _footprint([
        (origin.x + (c0 + c + 0.5) * resolution, origin.y + (r0 + r + 0.5) * resolution)
        for c, r in shape
    ])


class TestRasterize:
    def test_unit_square_at_tenth_meter(self):
        fp = rect_footprint(0, 0, 1, 1)
        cells = rasterize_footprint(fp, 0.1, Point2(0, 0))
        assert len(cells) == 100
        assert (0, 0) in cells and (9, 9) in cells
        assert (10, 5) not in cells

    def test_rejects_bad_resolution(self):
        fp = rect_footprint(0, 0, 1, 1)
        with pytest.raises(ValueError):
            rasterize_footprint(fp, 0.0, Point2(0, 0))
        with pytest.raises(ValueError):
            rasterize_footprint(fp, -0.5, Point2(0, 0))

    def test_matches_exhaustive_center_scan(self):
        rng = random.Random(17)
        cases = []
        for _ in range(40):
            pts = []
            while True:
                pts = [Point2(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(3)]
                area = Footprint(tuple(pts)).signed_area()
                if area < 0:
                    pts.reverse()
                if abs(area) > 0.05:
                    break
            resolution = rng.choice([0.05, 0.1, 0.25])
            origin = Point2(rng.uniform(-1, 0), rng.uniform(-1, 0))
            cases.append((Footprint(tuple(pts)), resolution, origin))
        for resolution in (0.05, 0.1, 0.25):
            for _ in range(10):
                # concave L-shapes anywhere, then polygons whose vertices sit
                # on cell centres, so edges run through centres and vertices
                x, y = rng.uniform(0, 2), rng.uniform(0, 2)
                w, h = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
                a, b = rng.uniform(0.1, 0.9) * w, rng.uniform(0.1, 0.9) * h
                ell = [(x, y), (x + w, y), (x + w, y + b), (x + a, y + b),
                       (x + a, y + h), (x, y + h)]
                origin = Point2(rng.uniform(-1, 0), rng.uniform(-1, 0))
                cases.append((_footprint(ell), resolution, origin))
                c0, r0 = rng.randint(0, 8), rng.randint(0, 8)
                w, h = rng.randint(2, 12), rng.randint(2, 12)
                a, b = rng.randint(1, w - 1), rng.randint(1, h - 1)
                shape = rng.choice([
                    [(0, 0), (w, 0), (w, b), (a, b), (a, h), (0, h)],  # L
                    [(0, 0), (w, 0), (a, h)],  # triangle, slanted edges
                    [(0, 0), (w, 0), (w, h), (a, b), (0, h)],  # notched
                ])
                centres = [
                    (origin.x + (c0 + c + 0.5) * resolution, origin.y + (r0 + r + 0.5) * resolution)
                    for c, r in shape
                ]
                cases.append((_footprint(centres), resolution, origin))

        for fp, resolution, origin in cases:
            got = rasterize_footprint(fp, resolution, origin)
            expected, _box = reference_cells(fp, resolution, origin)
            assert got == expected

    def test_membership_stops_at_the_mask_edge(self):
        # rasterized masks keep a one-cell empty border, so a full mask is
        # what shows an index that wraps or runs past the edge
        cells = FootprintCells(np.ones((2, 3), dtype=bool), (-1, 5))
        inside = {(col, row) for col in (-1, 0, 1) for row in (5, 6)}
        assert cells == inside and len(cells) == 6
        for col in range(-3, 4):
            for row in range(3, 9):
                assert ((col, row) in cells) is ((col, row) in inside)
        assert list(cells) == [(-1, 5), (0, 5), (1, 5), (-1, 6), (0, 6), (1, 6)]

    @pytest.mark.parametrize("origin", [(-1, 5), (2, 1), (-3, -2), (4, 0), (6, 0), (0, 9), (-5, 0)])
    def test_paint_sets_the_cells_inside_the_grid(self, origin):
        # a 7 x 4 grid against an L of cells: inside, crossing an edge or
        # a corner, and wholly outside
        mask = np.array([[1, 0, 0], [1, 0, 0], [1, 1, 1]], dtype=bool)
        cells = FootprintCells(mask, origin)
        grid = np.zeros((7, 4), dtype=np.uint8)
        cells.paint(grid, 3)
        expected = np.zeros_like(grid)
        for col, row in cells:
            if 0 <= col < 4 and 0 <= row < 7:
                expected[row, col] = 3
        assert np.array_equal(grid, expected)

    # no explain phase: on a failure it reruns the test some 1,400 times
    @settings(database=None, derandomize=True, max_examples=150, deadline=None,
              phases=set(Phase) - {Phase.explain})
    @given(data=st.data(), resolution=st.sampled_from(RESOLUTIONS),
           ox=st.floats(-1, 3), oy=st.floats(-1, 3))
    def test_cells_behave_as_the_reference_frozenset(self, data, resolution, ox, oy):
        # origins up to 3 m right of and above footprints drawn in [0, 4]^2
        # give negative cell indices
        origin = Point2(ox, oy)
        fp = data.draw(footprints(resolution, origin), label="footprint")
        other_fp = data.draw(footprints(resolution, origin), label="other")
        cells = rasterize_footprint(fp, resolution, origin)
        other = rasterize_footprint(other_fp, resolution, origin)
        expected, box = reference_cells(fp, resolution, origin)
        other_expected, _box = reference_cells(other_fp, resolution, origin)

        for col, row in box:
            member = (col, row) in expected
            assert ((col, row) in cells) is member
            assert ((np.int64(col), np.int32(row)) in cells) is member
        assert len(cells) == len(expected)
        assert set(cells) == expected
        assert cells == expected and expected == cells
        assert cells == set(expected) and set(expected) == cells
        assert not (cells != expected) and not (expected != cells)
        assert hash(cells) == hash(expected)
        differ = expected != other_expected
        assert (cells != other_expected) is differ and (other_expected != cells) is differ
        assert (cells != other) is differ and (cells == other) is not differ

        for op in (operator.or_, operator.and_, operator.sub, operator.xor):
            want = op(expected, other_expected)
            for left, right in ((cells, other), (cells, other_expected), (expected, other)):
                got = op(left, right)
                assert type(got) is frozenset and got == want
        for junk in (None, (1,), (1, 2, 3), "ab"):
            assert junk not in cells
        assert not cells.mask.flags.writeable


def _footprint(xy) -> Footprint:
    return Footprint(tuple(Point2(x, y) for x, y in xy))


def ray_hit(ox, oy, dx, dy, a, b):
    """The wall kernel's distance along one ray to one segment a-b."""
    walls = Walls(np.array([a.x]), np.array([a.y]), np.array([b.x - a.x]),
                  np.array([b.y - a.y]), np.array(["s"], dtype=object))
    return float(walls.ray_hits(ox, oy, dx, dy)[0, 0])


class TestRays:
    def test_ray_hits_segment_head_on(self):
        t = ray_hit(0, 0, 1, 0, Point2(2, -1), Point2(2, 1))
        assert t == pytest.approx(2.0)

    def test_ray_misses_parallel_segment(self):
        assert ray_hit(0, 0, 1, 0, Point2(1, 1), Point2(3, 1)) == math.inf

    def test_ray_behind_origin(self):
        # the line crosses behind the origin: a negative distance, which
        # every caller's window (t >= 0 or more) rejects
        assert ray_hit(0, 0, 1, 0, Point2(-2, -1), Point2(-2, 1)) == pytest.approx(-2.0)

    def test_random_rays_against_sampled_marching(self):
        """Every finite distance the kernel returns, ahead of the origin or
        behind it, puts the hit point on the segment."""
        rng = random.Random(23)
        for _ in range(300):
            a = Point2(rng.uniform(-4, 4), rng.uniform(-4, 4))
            b = Point2(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if a.distance_to(b) < 0.1:
                continue
            ang = rng.uniform(-math.pi, math.pi)
            dx, dy = math.cos(ang), math.sin(ang)
            t = ray_hit(0.0, 0.0, dx, dy, a, b)
            if t == math.inf:
                continue
            hit = Point2(t * dx, t * dy)
            assert _point_segment_distance(hit, a, b) < 1e-7
