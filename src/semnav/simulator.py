"""Deterministic 2D world simulation: scripted actors, unicycle robot,
exact-geometry lidar, and a semantic detector with line-of-sight occlusion.

Everything a run produces is a pure function of (world file, parameters,
seed): actors follow their waypoint cycles, sensor geometry is solved in
closed form rather than sampled on a grid, and the only randomness is the
optional lidar range noise drawn from one seeded generator. Space footprints
are floor regions, not obstacles — only static non-space elements and actor
disks return lidar echoes or occlude the semantic sensor. The static walls and
the elements' reference points are built once per world; one ray–segment
kernel serves the lidar, the motion clamp and, in one call per frame, every
line of sight; the lidar and the clamp give it only the walls within their
reach (Walls.within), which changes no result. The walls alone fix a
scan's per-beam wall distances for a given pose and lidar spec, so the
world state keeps the last scan's (WorldState.wall_ranges) and a scan from
the bit-identical pose with an equal spec reuses them, as the robot stands
still. A scan meets the actor disks within its range in one array pass,
skipped when none is, and clamps its noise in one more, on every call; the
noise, one Gaussian per beam in beam order, is one normal() call on the
world state's numpy Generator, seeded from the scenario seed and built only
when the lidar is noisy.
A LidarScan holds one read-only array per beam quantity (angle, range and
world-frame direction), and the costmap fold reads them as they are.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import Point2, Pose2, normalize_angle
from .mapgen import Lidar2dSpec, SensorSpec
from .world import WorldDescription

_MIN_HIT = 1e-9  # hits closer than this are the robot itself


@dataclass(frozen=True, eq=False)
class LidarScan:
    tick: int
    pose: Pose2
    range_max: float
    # one read-only array per beam quantity, in beam order: the angle from
    # pose.heading, the range, and the cos and sin of pose.heading + angle
    angles: np.ndarray
    ranges: np.ndarray
    cos: np.ndarray = field(repr=False)
    sin: np.ndarray = field(repr=False)

    @property
    def beam_count(self) -> int:
        return len(self.ranges)


@dataclass(frozen=True)
class Detection:
    """One semantic-sensor return: ground-truth class and world position."""

    symbol: str | None
    semantic_class: str
    position: Point2
    tick: int

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ValueError("detection tick must be >= 0")


@dataclass(frozen=True)
class SemanticFrame:
    tick: int
    pose: Pose2
    detections: tuple[Detection, ...]


@dataclass(frozen=True, eq=False)
class Walls:
    """Boundary segments of every static non-space footprint, as arrays:
    start (ax, ay), direction to the end (ex, ey) and owning element symbol,
    plus what the kernel and within() read, derived once from those."""

    ax: np.ndarray
    ay: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    owner: np.ndarray
    _columns: np.ndarray = field(init=False)  # (4, n, 1): ax, ay, ex, ey, one row per segment
    _bounds: np.ndarray = field(init=False)  # (n, 4): least x and y, then minus the greatest
    _ends: np.ndarray = field(init=False)  # (2, 2n): x, then y, of every start, then every end

    def __post_init__(self) -> None:
        columns = np.array((self.ax, self.ay, self.ex, self.ey), dtype=float).reshape(4, -1, 1)
        ax, ay, ex, ey = columns[..., 0]
        ends = np.array(((ax, ax + ex), (ay, ay + ey)))
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_bounds", np.concatenate((ends.min(1), -ends.max(1))).T.copy())
        object.__setattr__(self, "_ends", ends.reshape(2, -1))

    @classmethod
    def of(cls, world: WorldDescription) -> Walls:
        edges = [
            (rec.symbol, a, b)
            for rec in world.elements
            if not rec.is_space and rec.explicit.physical.is_static and rec.explicit.model2d
            for a, b in rec.explicit.model2d.edges()
        ]
        rows = np.asarray([(a.x, a.y, b.x - a.x, b.y - a.y) for _, a, b in edges], dtype=float)
        ax, ay, ex, ey = rows.reshape(-1, 4).T
        return cls(ax, ay, ex, ey, np.asarray([owner for owner, _, _ in edges], dtype=object))

    def within(self, ox: float, oy: float, reach: float, heading: float | None = None) -> np.ndarray:
        """Indices of the segments a ray from (ox, oy) can meet within reach:
        those whose bounding box meets the square of half-side reach + 1e-6
        around the point and, given a heading, that do not lie wholly behind
        the line through the point normal to it, with the same slack."""
        r = reach + 1e-6
        keep = (self._bounds <= (ox + r, oy + r, r - ox, r - oy)).all(axis=1)
        if heading is not None:
            fx, fy = math.cos(heading), math.sin(heading)
            ahead = np.dot((fx, fy), self._ends)
            keep &= np.maximum(ahead[: keep.size], ahead[keep.size :]) >= ox * fx + oy * fy - 1e-6
        return keep.nonzero()[0]

    def _crossings(self, ox: float, oy: float, dx, dy, segments, t_min: float) -> np.ndarray:
        """Distance t along each unit ray (ox, oy) + t*(dx, dy), one column
        per ray, to each segment at the given indices (all when None), one
        row per segment, or inf where the ray misses it or t < t_min."""
        ax, ay, ex, ey = self._columns if segments is None else self._columns.take(segments, 1)
        wx, wy = ax - ox, ay - oy
        denom = dx * ey
        denom -= dy * ex
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (wx * ey - wy * ex) / denom
            u = wx * dy
            u -= wy * dx
            u /= denom
        miss = np.abs(denom, out=denom) < 1e-15
        miss |= u < -1e-12
        miss |= u > 1.0 + 1e-12
        miss |= t < t_min
        np.putmask(t, miss, np.inf)
        return t

    def ray_hits(self, ox: float, oy: float, dx, dy, segments=None) -> np.ndarray:
        """The same distances, one row per ray and unbounded below: t may be
        negative (behind the origin), and callers window it."""
        return self._crossings(ox, oy, dx, dy, segments, -np.inf).T

    def nearest_hits(self, ox: float, oy: float, dx, dy, segments) -> np.ndarray:
        """Per ray, the least t >= _MIN_HIT over the given segments, or inf:
        the row minimum of ray_hits over the same values."""
        return self._crossings(ox, oy, dx, dy, segments, _MIN_HIT).min(axis=0, initial=np.inf)


class WallRanges(NamedTuple):
    """What lidar_scan computed last from the walls alone: the pose (its
    floats' bits) and lidar spec it was computed for and, as read-only
    arrays, the beams' world-frame directions and each beam's nearest wall
    distance (inf where it meets none)."""

    pose_bits: bytes
    lidar: Lidar2dSpec
    cos: np.ndarray
    sin: np.ndarray
    walls: np.ndarray


_pose_bits = struct.Struct("3d").pack  # (x, y, heading) -> 24 bytes


@dataclass
class WorldState:
    world: WorldDescription
    walls: Walls  # built once: the world is immutable
    landmarks: tuple[tuple[str, str, Point2], ...]  # (symbol, class, point), by symbol
    tick: int
    pose: Pose2  # the robot's
    actor_positions: dict[str, Point2]
    actor_targets: dict[str, int]  # index of the waypoint being approached
    static_collisions: int = 0
    actor_collisions: int = 0
    noise_sigma: float = 0.0
    rng: np.random.Generator | None = None  # the lidar noise's, when noise_sigma > 0
    trace: list[str] = field(default_factory=list)
    # the last scan's, reused at the same pose
    wall_ranges: WallRanges | None = field(default=None, repr=False, compare=False)


def _trace_record(ws: WorldState, v: float, omega: float) -> str:
    pose = ws.pose
    collisions = ws.static_collisions + ws.actor_collisions
    return (
        f"{ws.tick} {pose.x:.9f} {pose.y:.9f} {pose.heading:.9f} "
        f"{v:.9f} {omega:.9f} {collisions}"
    )


def make_world_state(
    world: WorldDescription, seed: int = 0, noise_sigma: float = 0.0
) -> WorldState:
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    ws = WorldState(
        world=world,
        walls=Walls.of(world),
        # a geometry-free element has no reference point and nothing to localize
        landmarks=tuple(
            (rec.symbol, rec.explicit.model3d.semantic_class, rec.position())
            for rec in sorted(world.elements, key=lambda r: r.symbol)
            if not rec.is_space and rec.explicit.model3d is not None
            and rec.explicit.model2d is not None
        ),
        tick=0,
        pose=world.robot_spawn,
        actor_positions={a.symbol: a.waypoints[0] for a in world.actors},
        actor_targets={
            a.symbol: 1 % len(a.waypoints) for a in world.actors
        },
        noise_sigma=noise_sigma,
        # only a noisy lidar imports numpy.random, which adds about 2 MB of RSS
        rng=np.random.default_rng(seed) if noise_sigma > 0.0 else None,
    )
    ws.trace.append(_trace_record(ws, 0.0, 0.0))
    return ws


def _advance_actor(
    position: Point2, target_index: int, waypoints: tuple[Point2, ...], distance: float
) -> tuple[Point2, int]:
    if len(waypoints) < 2:
        return position, target_index
    remaining = distance
    if remaining > position.distance_to(waypoints[target_index]):
        # only a step past the target can span a lap; whole laps end where
        # they began, and fmod is exact, so a shorter step is kept as it is
        lap = sum(a.distance_to(b) for a, b in zip(waypoints, waypoints[1:] + waypoints[:1]))
        if lap > 0.0:
            remaining = math.fmod(remaining, lap)
    snaps = 0
    while remaining > 1e-12:
        target = waypoints[target_index]
        gap = position.distance_to(target)
        if gap <= remaining:
            position = target
            remaining -= gap
            target_index = (target_index + 1) % len(waypoints)
            snaps = snaps + 1 if gap < 1e-12 else 0
            if snaps > len(waypoints):  # degenerate script: all points coincide
                break
            continue
        position = Point2(
            position.x + (target.x - position.x) * remaining / gap,
            position.y + (target.y - position.y) * remaining / gap,
        )
        break
    return position, target_index


def step(ws: WorldState, dt: float, robot_command: tuple[float, float]) -> WorldState:
    """Advance one tick in place: actors first, then the robot with motion
    clamped at the first static contact. Returns ws for chaining."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    v, omega = robot_command

    for actor in ws.world.actors:
        ws.actor_positions[actor.symbol], ws.actor_targets[actor.symbol] = _advance_actor(
            ws.actor_positions[actor.symbol],
            ws.actor_targets[actor.symbol],
            actor.waypoints,
            actor.speed * dt,
        )

    pose = ws.pose
    move = v * dt
    new_x = pose.x + move * math.cos(pose.heading)
    new_y = pose.y + move * math.sin(pose.heading)
    nearby = ws.walls.within(pose.x, pose.y, abs(move)) if abs(move) > 1e-15 else ()
    if len(nearby):
        ux = math.cos(pose.heading) * (1.0 if move >= 0 else -1.0)
        uy = math.sin(pose.heading) * (1.0 if move >= 0 else -1.0)
        t = ws.walls.ray_hits(pose.x, pose.y, ux, uy, nearby)[0]
        t = t[(t >= 0.0) & (t <= abs(move))]
        if t.size:
            allowed = max(0.0, float(t.min()) - _MIN_HIT)
            new_x = pose.x + ux * allowed
            new_y = pose.y + uy * allowed
            ws.static_collisions += 1
    ws.pose = Pose2(new_x, new_y, normalize_angle(pose.heading + omega * dt))

    here = ws.pose.position
    for actor in ws.world.actors:
        gap = here.distance_to(ws.actor_positions[actor.symbol])
        if gap < ws.world.robot_radius + actor.footprint_radius:
            ws.actor_collisions += 1

    ws.tick += 1
    ws.trace.append(_trace_record(ws, v, omega))
    return ws


# --- sensors ---

@functools.lru_cache(maxsize=8)
def _beam_angles(fov: float, beam_count: int) -> np.ndarray:
    """The beams' angles from the heading, -fov/2 + i * spacing for beam i,
    as a read-only array built once per lidar spec."""
    spacing = fov / (beam_count - 1) if beam_count > 1 else 0.0
    angles = -fov / 2.0 + np.arange(beam_count) * spacing
    angles.flags.writeable = False
    return angles


def lidar_scan(ws: WorldState, spec: SensorSpec) -> LidarScan:
    """Exact per-beam minimum intersection over static footprint edges and
    actor disks, capped at range_max, plus optional Gaussian range noise.

    The wall minimum is taken over the walls within range, from the values
    the per-beam minimum of Walls.ray_hits would take, so it is the same
    float. It is a function of the pose's floats and the spec alone (the
    walls never change), so a scan from the bit-identical pose with an
    equal spec reuses the last scan's (ws.wall_ranges); the actors and the
    noise are folded in afresh on every call. Only the actors whose disk
    comes within range_m + 1e-6 of the robot are folded in, since a farther
    disk meets every beam beyond range_m, where the range cap hides it, so
    the ranges are those of a pass over every actor. The noise is one
    normal() call for all beams on ws.rng, which draws what one call per
    beam, in beam order, would.
    """
    lidar = spec.lidar2d
    if lidar is None:
        raise ValueError("sensor spec has no 2D lidar")
    pose = ws.pose
    angles = _beam_angles(lidar.fov, lidar.beam_count)
    bits = _pose_bits(pose.x, pose.y, pose.heading)
    memo = ws.wall_ranges
    if memo is None or memo.pose_bits != bits or memo.lidar != lidar:
        absolute = angles + pose.heading
        dx = np.cos(absolute)
        dy = np.sin(absolute)
        # beams within a quarter turn of the heading meet nothing behind it
        facing = pose.heading if lidar.fov <= math.pi else None
        nearby = ws.walls.within(pose.x, pose.y, lidar.range_m, facing)
        best = ws.walls.nearest_hits(pose.x, pose.y, dx, dy, nearby)
        for array in (dx, dy, best):
            array.flags.writeable = False
        memo = ws.wall_ranges = WallRanges(bits, lidar, dx, dy, best)
    dx, dy, best = memo.cos, memo.sin, memo.walls

    reach = lidar.range_m + 1e-6  # the walls' slack (Walls.within)
    disks = []
    for actor in ws.world.actors:
        center = ws.actor_positions[actor.symbol]
        fx, fy = pose.x - center.x, pose.y - center.y
        if math.hypot(fx, fy) - actor.footprint_radius <= reach:
            disks.append((fx, fy, actor.footprint_radius**2))
    if disks:
        # every such disk at once: one row per disk, one column per beam
        fx, fy, radii2 = np.array(disks).T[..., None]
        b = fx * dx + fy * dy
        disc = b * b - (fx * fx + fy * fy - radii2)
        root = np.sqrt(np.maximum(disc, 0.0))
        # the near root where it is ahead, else the far one
        near = -b - root
        t = np.where(near >= _MIN_HIT, near, root - b)
        np.putmask(t, (disc < 0.0) | (t < _MIN_HIT), np.inf)
        best = np.minimum(best, t.min(axis=0))

    ranges = np.minimum(best, lidar.range_m)
    if ws.noise_sigma > 0.0:
        # one draw per beam, in beam order, from the mission's one generator
        noise = ws.rng.normal(0.0, ws.noise_sigma, ranges.size)
        ranges = np.minimum(lidar.range_m, np.maximum(_MIN_HIT, ranges + noise))
    ranges.flags.writeable = False
    return LidarScan(ws.tick, pose, lidar.range_m, angles, ranges, dx, dy)


def semantic_detect(ws: WorldState, spec: SensorSpec) -> SemanticFrame:
    """Elements and actors whose reference point lies in the sensor cone with
    clear line of sight. An element's own footprint never occludes it; the
    field-of-view boundary is inclusive."""
    sem = spec.semantic3d
    if sem is None:
        raise ValueError("sensor spec has no 3D semantic sensor")
    pose = ws.pose
    here = pose.position
    # elements, then actors, which report no symbol
    targets = ws.landmarks + tuple(
        (None, actor.class_label, ws.actor_positions[actor.symbol])
        for actor in sorted(ws.world.actors, key=lambda a: a.symbol)
    )
    # a segment properly between the sensor and a point occludes it, unless it
    # bounds the point's own element; a point at the sensor is never occluded
    in_cone, rays = [], []  # rays: (index in in_cone, dx, dy, gap, own symbol)
    for symbol, label, point in targets:
        gap = here.distance_to(point)
        if gap > sem.range_m:
            continue
        bearing = math.atan2(point.y - pose.y, point.x - pose.x)
        if gap > 1e-12 and abs(normalize_angle(bearing - pose.heading)) > sem.fov / 2 + 1e-12:
            continue
        if gap >= 1e-12:
            rays.append((len(in_cone), (point.x - pose.x) / gap, (point.y - pose.y) / gap, gap, symbol))
        in_cone.append(Detection(symbol=symbol, semantic_class=label, position=point, tick=ws.tick))
    occluded = np.zeros(len(in_cone), dtype=bool)
    if rays:
        index, dx, dy, gap, own = zip(*rays)
        t = ws.walls.ray_hits(pose.x, pose.y, dx, dy)
        between = (t > 1e-9) & (t < np.reshape(gap, (-1, 1)) - 1e-9)
        own = np.reshape(np.array(own, dtype=object), (-1, 1))
        occluded[list(index)] = (between & (ws.walls.owner != own)).any(axis=1)
    detections = tuple(d for d, hidden in zip(in_cone, occluded) if not hidden)
    return SemanticFrame(tick=ws.tick, pose=pose, detections=detections)


# --- tracing ---

def trace_to_csv(trace: list[str]) -> str:
    lines = ["tick,x,y,theta,v,omega,collisions"]
    lines.extend(record.replace(" ", ",") for record in trace)
    return "\n".join(lines) + "\n"


def trace_hash(trace: list[str]) -> str:
    """16-hex-digit digest of the canonical trace text; empty trace hashes to
    the blake2b-64 digest of the empty string."""
    digest = hashlib.blake2b("\n".join(trace).encode("ascii"), digest_size=8)
    return digest.hexdigest()
