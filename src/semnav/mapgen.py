"""Semantic-episodic map generation.

Compiles the knowledge currently reachable from a mission goal (the prefetch
closure in the tier store) into four layers: a metric occupancy grid, a
space-topology graph, per-symbol semantic annotations, and an append-only
episode log. What enters the map is gated by the robot's sensor fit: 2D
footprints are usable only with a 2D ranging sensor, 3D semantic classes
only with a 3D semantic sensor. Spaces are structural and always present.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (Footprint, FootprintCells, Point2, Pose2, point_in_footprint,
                       rasterize_footprint)
from .memory import TierStore
from .world import ElementRecord, Relation

log = logging.getLogger(__name__)

FREE, OCCUPIED, UNKNOWN = 0, 1, 2
_PGM_VALUES = {FREE: 255, OCCUPIED: 0, UNKNOWN: 128}

EPISODE_KINDS = (
    "MISSION_START",
    "WAYPOINT_REACHED",
    "REPLAN",
    "OBSTACLE_DETECTED",
    "NOVEL_OBJECT",
    "MISSION_COMPLETE",
)


class MapError(ValueError):
    """Map generation failed (for example no spaces were fetched)."""


# Path searches compare exact costs while every compared cost has a + b
# below this (see navigation); a map's paths and heuristics get half of it.
PAIR_SUM_LIMIT = 460_000_000_000


def grid_pair_sum(width: int, height: int) -> int:
    """The largest a + b that a path plus an octile distance can reach on a
    width x height grid: a path enters each cell at most once, at a step of
    at most 352, and an octile distance adds at most 100 per row and column.
    A grid is searchable while this stays within PAIR_SUM_LIMIT // 2."""
    return 352 * width * height + 100 * (width + height)


@dataclass(frozen=True)
class Lidar2dSpec:
    range_m: float
    fov: float
    beam_count: int

    def __post_init__(self) -> None:
        if self.range_m <= 0:
            raise ValueError("lidar range must be > 0")
        if not 0 < self.fov <= 2 * math.pi + 1e-12:
            raise ValueError("lidar fov must be in (0, 2*pi]")
        if self.beam_count < 1:
            raise ValueError("lidar needs at least one beam")


@dataclass(frozen=True)
class Semantic3dSpec:
    range_m: float
    fov: float

    def __post_init__(self) -> None:
        if self.range_m <= 0:
            raise ValueError("semantic sensor range must be > 0")
        if not 0 < self.fov <= 2 * math.pi + 1e-12:
            raise ValueError("semantic sensor fov must be in (0, 2*pi]")


@dataclass(frozen=True)
class SensorSpec:
    lidar2d: Lidar2dSpec | None = None
    semantic3d: Semantic3dSpec | None = None

    def __post_init__(self) -> None:
        if self.lidar2d is None and self.semantic3d is None:
            raise ValueError("a robot needs at least one sensor")


class GridFrame:
    """Cell maths of a width x height grid of square cells `resolution`
    meters on a side, whose cell (0, 0) has its lower-left corner at
    `origin`. The metric layer and the driving map inherit it, so one
    definition serves both."""

    def cell_of(self, p: Point2) -> tuple[int, int]:
        return (
            int(math.floor((p.x - self.origin.x) / self.resolution)),
            int(math.floor((p.y - self.origin.y) / self.resolution)),
        )

    def center_of(self, col: int, row: int) -> Point2:
        return Point2(
            self.origin.x + (col + 0.5) * self.resolution,
            self.origin.y + (row + 0.5) * self.resolution,
        )

    def in_bounds(self, col: int, row: int) -> bool:
        return 0 <= col < self.width and 0 <= row < self.height


@dataclass
class MetricLayer(GridFrame):
    resolution: float
    origin: Point2
    width: int
    height: int
    cells: np.ndarray  # shape (height, width), values FREE/OCCUPIED/UNKNOWN


@dataclass(frozen=True)
class TopologyEdge:
    a: str
    b: str
    cost: float


@dataclass
class TopologyLayer:
    nodes: dict[str, Point2]
    edges: list[TopologyEdge]

    def neighbors(self, symbol: str) -> list[tuple[str, float]]:
        out = []
        for edge in self.edges:
            if edge.a == symbol:
                out.append((edge.b, edge.cost))
            elif edge.b == symbol:
                out.append((edge.a, edge.cost))
        return sorted(out)

    def shortest_distance(self, a: str, b: str) -> float | None:
        """Uniform-cost search over the space graph."""
        if a not in self.nodes or b not in self.nodes:
            return None
        if a == b:
            return 0.0
        dist = {a: 0.0}
        heap = [(0.0, a)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, math.inf):
                continue
            if node == b:
                return d
            for nxt, cost in self.neighbors(node):
                nd = d + cost
                if nd < dist.get(nxt, math.inf):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
        return None


@dataclass
class Annotation:
    class_label: str
    space: str | None = None
    footprint_cells: FootprintCells | None = None  # bounding-box mask, membership by index
    semantic_class: str | None = None


@dataclass
class SemanticLayer:
    annotations: dict[str, Annotation] = field(default_factory=dict)


@dataclass(frozen=True)
class EpisodeEvent:
    tick: int
    kind: str
    pose: Pose2
    subject: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in EPISODE_KINDS:
            raise ValueError(f"unknown episode kind '{self.kind}'")
        if self.tick < 0:
            raise ValueError("episode tick must be >= 0")


@dataclass
class EpisodicLayer:
    events: list[EpisodeEvent] = field(default_factory=list)


@dataclass
class SemanticEpisodicMap:
    metric: MetricLayer
    topology: TopologyLayer
    semantic: SemanticLayer
    episodic: EpisodicLayer
    sensor_spec: SensorSpec

    def symbol_classes(self) -> dict[str, str]:
        return {sym: ann.class_label for sym, ann in self.semantic.annotations.items()}

    def topo_distance(self, a: str, b: str) -> float | None:
        return self.topology.shortest_distance(a, b)


def append_episode(emap: SemanticEpisodicMap, event: EpisodeEvent) -> None:
    events = emap.episodic.events
    if events and event.tick < events[-1].tick:
        raise ValueError(
            f"episode tick {event.tick} regresses below {events[-1].tick}"
        )
    events.append(event)


def _grid_bounds(footprints: list[Footprint], resolution: float) -> tuple[Point2, int, int]:
    xs0, ys0, xs1, ys1 = [], [], [], []
    for fp in footprints:
        x0, y0, x1, y1 = fp.bounds()
        xs0.append(x0)
        ys0.append(y0)
        xs1.append(x1)
        ys1.append(y1)
    origin = Point2(
        math.floor(min(xs0) / resolution) * resolution,
        math.floor(min(ys0) / resolution) * resolution,
    )
    width = max(1, int(math.ceil((max(xs1) - origin.x) / resolution - 1e-9)))
    height = max(1, int(math.ceil((max(ys1) - origin.y) / resolution - 1e-9)))
    return origin, width, height


def build_metric_layer(
    elements: list[ElementRecord], resolution: float
) -> tuple[MetricLayer, dict[str, FootprintCells]]:
    """Occupied = static non-space footprints; Free = space footprints minus
    Occupied; Unknown = everything else. Also returns the cells of every
    footprint, keyed by symbol and not clipped to the grid, so that no
    caller has to rasterize a footprint twice. Each footprint's cells are
    its bounding-box mask, and the grid is painted straight from the masks."""
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    drawn = [e for e in elements if e.explicit.model2d is not None]
    if not drawn:
        raise MapError("cannot size a metric layer with no footprints")
    origin, width, height = _grid_bounds([e.explicit.model2d for e in drawn], resolution)
    if grid_pair_sum(width, height) > PAIR_SUM_LIMIT // 2:  # before any cell is drawn
        raise MapError(f"a {width} x {height} grid is too large for exact path costs")
    footprint_cells = {
        e.symbol: rasterize_footprint(e.explicit.model2d, resolution, origin) for e in drawn
    }

    cells = np.full((height, width), UNKNOWN, dtype=np.uint8)

    for rec in drawn:
        if rec.is_space:
            footprint_cells[rec.symbol].paint(cells, FREE)
    for rec in drawn:
        if not rec.is_space and rec.explicit.physical.is_static:
            footprint_cells[rec.symbol].paint(cells, OCCUPIED)

    metric = MetricLayer(
        resolution=resolution, origin=origin, width=width, height=height, cells=cells
    )
    return metric, footprint_cells


def build_topology_layer(
    spaces: list[ElementRecord], relations: list[Relation]
) -> TopologyLayer:
    nodes: dict[str, Point2] = {}
    for space in sorted(spaces, key=lambda s: s.symbol):
        if space.explicit.model2d is None:
            log.warning("space '%s' has no footprint; skipped as topology node", space.symbol)
            continue
        nodes[space.symbol] = space.explicit.model2d.centroid()

    edges: dict[tuple[str, str], TopologyEdge] = {}
    for rel in relations:
        if rel.predicate not in ("adjacent", "connected"):
            continue
        if rel.subject not in nodes or rel.object not in nodes:
            log.debug("relation %s(%s,%s) skipped: not between mapped spaces",
                      rel.predicate, rel.subject, rel.object)
            continue
        key = tuple(sorted((rel.subject, rel.object)))
        if key in edges:
            continue
        cost = nodes[key[0]].distance_to(nodes[key[1]])
        if cost <= 0.0:
            log.warning("edge %s-%s skipped: coincident centroids", key[0], key[1])
            continue
        edges[key] = TopologyEdge(a=key[0], b=key[1], cost=cost)

    return TopologyLayer(nodes=nodes, edges=[edges[k] for k in sorted(edges)])


def _containing_space(rec: ElementRecord, spaces: list[ElementRecord]) -> str | None:
    names = {s.symbol for s in spaces}
    for rel in rec.implicit:
        if rel.predicate == "inside" and rel.object in names:
            return rel.object
    position = rec.position()
    if position is not None:
        for space in spaces:
            if space.explicit.model2d is not None and point_in_footprint(
                position, space.explicit.model2d
            ):
                return space.symbol
    return None


def generate_map(
    store: TierStore,
    sensor_spec: SensorSpec,
    mission_goal_symbol: str,
    resolution: float = 0.1,
) -> SemanticEpisodicMap:
    """Build all four layers from the goal's prefetch closure in the store.

    The records are the entries the prefetch fetched, in sorted-key order;
    the map reads the store no further. Elements outside the closure do not
    appear. Raises UnknownSymbolError for an unknown goal and MapError when
    the closure contains no spaces.
    """
    fetched = store.prefetch_mission(mission_goal_symbol)
    records: list[ElementRecord] = [fetched[key].payload for key in sorted(fetched)]

    spaces = [r for r in records if r.is_space]
    if not spaces:
        raise MapError(f"prefetch closure of '{mission_goal_symbol}' contains no spaces")

    has_lidar = sensor_spec.lidar2d is not None
    has_semantic = sensor_spec.semantic3d is not None

    metric_inputs = list(spaces)
    if has_lidar:
        metric_inputs += [r for r in records if not r.is_space]
    metric, footprint_cells = build_metric_layer(metric_inputs, resolution)

    relations = [rel for rec in records for rel in rec.implicit]
    topology = build_topology_layer(spaces, relations)

    semantic = SemanticLayer()
    for rec in records:
        # the metric layer drew exactly the footprints a sensor can relate
        # to the map: every space's, and the rest only with a lidar
        cells = footprint_cells.get(rec.symbol)
        semantic_class: str | None = None
        if rec.explicit.model3d is not None and has_semantic:
            semantic_class = rec.explicit.model3d.semantic_class
        if not rec.is_space and cells is None and semantic_class is None:
            continue  # no sensor can relate this element to the map
        semantic.annotations[rec.symbol] = Annotation(
            class_label=rec.symbolic.class_label,
            space=rec.symbol if rec.is_space else _containing_space(rec, spaces),
            footprint_cells=cells,
            semantic_class=semantic_class,
        )

    return SemanticEpisodicMap(
        metric=metric,
        topology=topology,
        semantic=semantic,
        episodic=EpisodicLayer(),
        sensor_spec=sensor_spec,
    )


# --- exports ---

def metric_to_pgm(metric: MetricLayer) -> bytes:
    """P5 grayscale: 255 free, 0 occupied, 128 unknown; top image row is the
    highest-y map row."""
    header = f"P5\n{metric.width} {metric.height}\n255\n".encode("ascii")
    lookup = np.zeros(256, dtype=np.uint8)
    for code, value in _PGM_VALUES.items():
        lookup[code] = value
    flipped = np.flipud(metric.cells)
    return header + lookup[flipped].tobytes()


def metric_sidecar(metric: MetricLayer) -> str:
    return (
        f"resolution: {metric.resolution:.9f}\n"
        f"origin: {metric.origin.x:.9f} {metric.origin.y:.9f}\n"
        f"width: {metric.width}\n"
        f"height: {metric.height}\n"
    )


def episodic_log(emap: SemanticEpisodicMap) -> str:
    """Episodic layer as one canonical line per event."""
    return "".join(
        f"{e.tick} {e.kind} {e.pose.x:.9f} {e.pose.y:.9f} {e.pose.heading:.9f} "
        f"{e.subject if e.subject is not None else '-'}\n"
        for e in emap.episodic.events
    )


def layers_to_text(emap: SemanticEpisodicMap) -> str:
    """Canonical dump of the non-metric layers: stable ordering and fixed
    decimal formatting so repeated generation is byte-identical."""
    lines: list[str] = ["[topology]"]
    for symbol in sorted(emap.topology.nodes):
        c = emap.topology.nodes[symbol]
        lines.append(f"node {symbol} {c.x:.9f} {c.y:.9f}")
    for edge in emap.topology.edges:
        lines.append(f"edge {edge.a} {edge.b} {edge.cost:.9f}")
    lines.append("[semantic]")
    for symbol in sorted(emap.semantic.annotations):
        ann = emap.semantic.annotations[symbol]
        parts = [symbol, f"class={ann.class_label}", f"space={ann.space or '-'}"]
        if ann.footprint_cells is not None:
            parts.append(f"cells={len(ann.footprint_cells)}")
        if ann.semantic_class is not None:
            parts.append(f"semantic_class={ann.semantic_class}")
        lines.append(" ".join(parts))
    lines.append("[episodic]")
    return "\n".join(lines) + "\n" + episodic_log(emap)
