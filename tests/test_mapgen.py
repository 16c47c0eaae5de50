"""Map generation: metric rasterization against a per-cell oracle, topology
costs, sensor gating, and the canonical exports."""

from __future__ import annotations

import math
import random
from importlib import resources

import numpy as np
import pytest

from oracles import reference_point_in_footprint
from semnav import mapgen
from semnav.geometry import Footprint, Point2, Pose2, rasterize_footprint
from semnav.mapgen import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    EpisodeEvent,
    EpisodicLayer,
    Lidar2dSpec,
    MapError,
    Semantic3dSpec,
    SemanticEpisodicMap,
    SemanticLayer,
    SensorSpec,
    TopologyLayer,
    append_episode,
    build_metric_layer,
    build_topology_layer,
    generate_map,
    layers_to_text,
    metric_sidecar,
    metric_to_pgm,
)
from semnav.memory import StoredEntry, TierId, TierStore, UnknownSymbolError
from semnav.planner import ground_actions, parse_action_template
from semnav.world import (
    ElementRecord,
    ExplicitModel,
    PhysicalInfo,
    Relation,
    SymbolicModel,
    parse_world,
)


def rect(x0, y0, x1, y1):
    return Footprint(
        (Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1))
    )


def make_record(symbol, class_label, footprint, *, is_space=False, is_static=True,
                relations=(), model3d=None):
    return ElementRecord(
        symbolic=SymbolicModel(symbol=symbol, class_label=class_label),
        explicit=ExplicitModel(
            model2d=footprint,
            model3d=model3d,
            physical=PhysicalInfo(is_static=is_static),
        ),
        implicit=tuple(relations),
        is_space=is_space,
    )


def demo_world():
    text = (resources.files("semnav") / "data" / "convention_center.world").read_text()
    return parse_world(text)


def seeded_store(world, configs=None):
    store = TierStore(configs)
    for rec in world.all_elements():
        store.put(
            StoredEntry(key=f"env/{rec.symbol}", payload=rec, size_units=1),
            TierId.CLOUD,
        )
    return store


BOTH = SensorSpec(lidar2d=Lidar2dSpec(6.0, math.pi, 181),
                  semantic3d=Semantic3dSpec(5.0, 1.2))
LIDAR_ONLY = SensorSpec(lidar2d=Lidar2dSpec(6.0, math.pi, 181))
SEMANTIC_ONLY = SensorSpec(semantic3d=Semantic3dSpec(5.0, 1.2))


# --- sensor spec validation ---

def test_sensor_spec_requires_a_sensor():
    with pytest.raises(ValueError):
        SensorSpec()


@pytest.mark.parametrize("bad", [
    lambda: Lidar2dSpec(0.0, math.pi, 10),
    lambda: Lidar2dSpec(5.0, 0.0, 10),
    lambda: Lidar2dSpec(5.0, 7.0, 10),
    lambda: Lidar2dSpec(5.0, math.pi, 0),
    lambda: Semantic3dSpec(-1.0, 1.0),
    lambda: Semantic3dSpec(4.0, 0.0),
])
def test_sensor_field_validation(bad):
    with pytest.raises(ValueError):
        bad()


# --- metric layer vs per-cell oracle ---

def oracle_code(center, spaces, obstacles):
    if any(reference_point_in_footprint(center, fp) for fp in obstacles):
        return OCCUPIED
    if any(reference_point_in_footprint(center, fp) for fp in spaces):
        return FREE
    return UNKNOWN


def test_metric_layer_matches_cell_oracle_on_random_rectangles():
    rng = random.Random(404)
    for _ in range(25):
        spaces, obstacles, records = [], [], []
        for i in range(rng.randint(1, 3)):
            x0, y0 = rng.uniform(-4, 2), rng.uniform(-4, 2)
            fp = rect(x0, y0, x0 + rng.uniform(1, 5), y0 + rng.uniform(1, 5))
            spaces.append(fp)
            records.append(make_record(f"room_{i}", "space", fp, is_space=True))
        for i in range(rng.randint(0, 4)):
            x0, y0 = rng.uniform(-3, 4), rng.uniform(-3, 4)
            fp = rect(x0, y0, x0 + rng.uniform(0.3, 2), y0 + rng.uniform(0.3, 2))
            obstacles.append(fp)
            records.append(make_record(f"crate_{i}", "crate", fp))
        res = rng.choice([0.1, 0.25, 0.5])
        layer, _ = build_metric_layer(records, res)
        for row in range(layer.height):
            for col in range(layer.width):
                expected = oracle_code(layer.center_of(col, row), spaces, obstacles)
                assert layer.cells[row, col] == expected, (col, row)


def test_metric_layer_ignores_non_static_footprints():
    space = make_record("room", "space", rect(0, 0, 2, 2), is_space=True)
    person = make_record("p1", "person", rect(0.9, 0.9, 1.1, 1.1), is_static=False)
    layer, _ = build_metric_layer([space, person], 0.2)
    col, row = layer.cell_of(Point2(1.0, 1.0))
    assert layer.cells[row, col] == FREE
    assert not (layer.cells == OCCUPIED).any()


def test_metric_layer_grid_alignment_and_bounds():
    space = make_record("room", "space", rect(0, 0, 16, 8), is_space=True)
    layer, _ = build_metric_layer([space], 0.1)
    assert (layer.origin.x, layer.origin.y) == (0.0, 0.0)
    assert (layer.width, layer.height) == (160, 80)
    assert (layer.cells == FREE).all()


def test_metric_layer_rejects_bad_resolution_and_empty_input():
    with pytest.raises(ValueError):
        build_metric_layer([make_record("r", "space", rect(0, 0, 1, 1), is_space=True)], 0.0)
    with pytest.raises(MapError):
        build_metric_layer([], 0.5)


# --- topology ---

def test_topology_costs_on_demo_world():
    world = demo_world()
    spaces = list(world.spaces)
    relations = [rel for rec in world.all_elements() for rel in rec.implicit]
    topo = build_topology_layer(spaces, relations)
    assert sorted(topo.nodes) == ["hall_a", "hall_b", "lobby"]
    pairs = {(e.a, e.b): e.cost for e in topo.edges}
    assert pairs[("hall_a", "lobby")] == pytest.approx(5.25, abs=1e-12)
    assert pairs[("hall_a", "hall_b")] == pytest.approx(5.5, abs=1e-12)
    assert topo.shortest_distance("lobby", "hall_b") == pytest.approx(10.75, abs=1e-12)
    assert topo.shortest_distance("lobby", "lobby") == 0.0
    assert topo.shortest_distance("lobby", "nowhere") is None


def test_topology_edges_deduplicated_and_non_space_skipped():
    a = make_record("a", "space", rect(0, 0, 2, 2), is_space=True)
    b = make_record("b", "space", rect(2, 0, 4, 2), is_space=True)
    relations = [
        Relation("connected", "a", "b"),
        Relation("connected", "b", "a"),
        Relation("adjacent", "a", "b"),
        Relation("adjacent", "a", "crate_9"),
    ]
    topo = build_topology_layer([a, b], relations)
    assert len(topo.edges) == 1
    assert topo.edges[0].cost == pytest.approx(2.0)


def test_topology_disconnected_components():
    a = make_record("a", "space", rect(0, 0, 2, 2), is_space=True)
    b = make_record("b", "space", rect(5, 5, 7, 7), is_space=True)
    topo = build_topology_layer([a, b], [])
    assert topo.shortest_distance("a", "b") is None


# --- sensor gating on the demo world ---

def test_two_d_annotations_subset_of_full_sensor_annotations():
    world = demo_world()
    map_2d = generate_map(seeded_store(world), LIDAR_ONLY, "hall_b")
    map_23 = generate_map(seeded_store(world), BOTH, "hall_b")
    keys_2d = set(map_2d.semantic.annotations)
    keys_23 = set(map_23.semantic.annotations)
    assert keys_2d < keys_23
    assert "banner_welcome" in keys_23 - keys_2d  # 3D-only element
    assert all(a.semantic_class is None for a in map_2d.semantic.annotations.values())
    assert map_23.semantic.annotations["booth_1"].semantic_class == "booth"
    assert map_23.semantic.annotations["banner_welcome"].footprint_cells is None


def test_semantic_only_robot_sees_no_static_obstacles():
    world = demo_world()
    emap = generate_map(seeded_store(world), SEMANTIC_ONLY, "hall_b")
    assert not (emap.metric.cells == OCCUPIED).any()
    assert (emap.metric.cells == FREE).any()  # spaces are structural
    assert "wall_south" not in emap.semantic.annotations  # no visible facet
    booth = emap.semantic.annotations["booth_1"]
    assert booth.semantic_class == "booth" and booth.footprint_cells is None
    # spaces keep their footprints: they are prior knowledge, not sensed
    assert emap.semantic.annotations["lobby"].footprint_cells


def test_lidar_robot_marks_walls_occupied():
    world = demo_world()
    emap = generate_map(seeded_store(world), LIDAR_ONLY, "hall_b")
    col, row = emap.metric.cell_of(Point2(8.0, 0.1))  # inside wall_south
    assert emap.metric.cells[row, col] == OCCUPIED
    col, row = emap.metric.cell_of(Point2(2.5, 4.0))  # lobby interior
    assert emap.metric.cells[row, col] == FREE


def test_annotation_space_assignment():
    world = demo_world()
    emap = generate_map(seeded_store(world), BOTH, "hall_b")
    ann = emap.semantic.annotations
    assert ann["booth_1"].space == "hall_a"  # via inside relation
    assert ann["stage_main"].space == "hall_b"
    assert ann["lobby"].space == "lobby"


def test_annotation_space_geometric_fallback():
    space = make_record("room", "space", rect(0, 0, 4, 4), is_space=True)
    crate = make_record("crate_1", "crate", rect(1, 1, 2, 2))  # no relations
    store = TierStore()
    for rec in (space, crate):
        store.put(StoredEntry(key=f"env/{rec.symbol}", payload=rec), TierId.CLOUD)
    # crate is only reachable via a relation hop, so link it explicitly
    crate_rel = make_record("crate_1", "crate", rect(1, 1, 2, 2),
                            relations=[Relation("inside", "crate_1", "room")])
    store.put(StoredEntry(key="env/crate_1", payload=crate_rel), TierId.CLOUD)
    emap = generate_map(store, LIDAR_ONLY, "room")
    assert emap.semantic.annotations["crate_1"].space == "room"

    # same store but the relation points at an unfetched symbol: fall back to
    # geometric containment of the centroid
    crate_odd = make_record("crate_1", "crate", rect(1, 1, 2, 2),
                            relations=[Relation("adjacent", "crate_1", "room")])
    store.put(StoredEntry(key="env/crate_1", payload=crate_odd), TierId.CLOUD)
    emap = generate_map(store, LIDAR_ONLY, "room")
    assert emap.semantic.annotations["crate_1"].space == "room"


# --- generate_map plumbing ---

def test_generate_map_unknown_goal():
    world = demo_world()
    with pytest.raises(UnknownSymbolError):
        generate_map(seeded_store(world), BOTH, "atrium")


def test_generate_map_no_spaces_in_closure():
    crate = make_record("crate_1", "crate", rect(0, 0, 1, 1))
    store = TierStore()
    store.put(StoredEntry(key="env/crate_1", payload=crate), TierId.CLOUD)
    with pytest.raises(MapError):
        generate_map(store, LIDAR_ONLY, "crate_1")


def test_generate_map_rasterizes_each_footprint_once(monkeypatch):
    calls = []

    def counting(footprint, resolution, origin):
        calls.append(footprint)
        return rasterize_footprint(footprint, resolution, origin)

    monkeypatch.setattr(mapgen, "rasterize_footprint", counting)
    world = demo_world()
    emap = generate_map(seeded_store(world), BOTH, "hall_b")
    drawn = {
        symbol: ann.footprint_cells
        for symbol, ann in emap.semantic.annotations.items()
        if ann.footprint_cells is not None
    }
    assert len(calls) == len(drawn) == 16
    # annotations keep each footprint's cells whole, not clipped to the grid
    for symbol, cells in drawn.items():
        footprint = world.find(symbol).explicit.model2d
        assert cells == rasterize_footprint(footprint, 0.1, emap.metric.origin)


def random_paint_elements(rng: random.Random) -> list[ElementRecord]:
    """One space and 1-4 static elements, rectangles or triangles, placed so
    that some cross the space's border and stretch the grid past it."""
    space = make_record("room", "space", rect(0, 0, rng.uniform(1, 3), rng.uniform(1, 3)),
                        is_space=True)
    elements = [space]
    for i in range(rng.randint(1, 4)):
        x0, y0 = rng.uniform(-1, 3), rng.uniform(-1, 3)
        w, h = rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
        if rng.random() < 0.5:
            fp = rect(x0, y0, x0 + w, y0 + h)
        else:
            apex = Point2(x0 + rng.uniform(0, w), y0 + h)
            fp = Footprint((Point2(x0, y0), Point2(x0 + w, y0), apex))
        elements.append(make_record(f"crate_{i}", "crate", fp))
    return elements


RANDOM_PAINT_CASES = [(None, resolution, seed) for resolution in (0.1, 0.25) for seed in range(4)]


@pytest.mark.parametrize(
    "anchor, resolution, seed",
    [("hall_b", None, None), ("lobby", None, None)] + RANDOM_PAINT_CASES,
    ids=["demo", "tour"] + [f"random-{res}-{seed}" for _, res, seed in RANDOM_PAINT_CASES],
)
def test_metric_layer_paints_like_a_cell_by_cell_loop(monkeypatch, anchor, resolution, seed):
    if anchor is not None:
        built = []

        def recording(elements, resolution):
            result = build_metric_layer(elements, resolution)
            built.append((elements, result))
            return result

        monkeypatch.setattr(mapgen, "build_metric_layer", recording)
        generate_map(seeded_store(demo_world()), BOTH, anchor)
        [(elements, (metric, footprint_cells))] = built
        expected = np.full((metric.height, metric.width), UNKNOWN, dtype=np.uint8)
        for spaces in (True, False):
            for rec in elements:
                if rec.explicit.model2d is None or rec.is_space != spaces:
                    continue
                if not spaces and not rec.explicit.physical.is_static:
                    continue
                for col, row in footprint_cells[rec.symbol]:
                    if 0 <= col < metric.width and 0 <= row < metric.height:
                        expected[row, col] = FREE if spaces else OCCUPIED
    else:
        # small worlds checked against the scalar reference at every cell
        # centre, sharing no rasterization with the package
        elements = random_paint_elements(random.Random(seed))
        metric, _ = build_metric_layer(elements, resolution)
        space, statics = elements[0].explicit.model2d, [e.explicit.model2d for e in elements[1:]]
        expected = np.array([
            [oracle_code(metric.center_of(col, row), [space], statics) for col in range(metric.width)]
            for row in range(metric.height)
        ], dtype=np.uint8)
    assert np.array_equal(metric.cells, expected)
    assert (metric.cells == OCCUPIED).any() and (metric.cells == FREE).any()


def test_generate_map_respects_prefetch_closure():
    world = demo_world()
    store = seeded_store(world)
    emap = generate_map(store, BOTH, "hall_b")
    # everything in the demo world relates back to the halls
    assert set(emap.topology.nodes) == {"lobby", "hall_a", "hall_b"}
    assert "visitor_3" not in emap.semantic.annotations  # actors are not records
    assert "booth_4" in emap.semantic.annotations


def test_map_satisfies_planner_grounding_protocol():
    world = demo_world()
    emap = generate_map(seeded_store(world), BOTH, "hall_b")
    template = parse_action_template(
        "action navigate(?from: space, ?to: space)\n"
        "  pre: at(robot, ?from)\n"
        "  add: at(robot, ?to)\n"
        "  del: at(robot, ?from)\n"
        "  cost: topo_distance(?from, ?to)\n"
    )
    grounded = {g.name: g.cost for g in ground_actions([template], emap)}
    assert grounded["navigate(lobby,hall_a)"] == pytest.approx(5.25)
    assert grounded["navigate(lobby,hall_b)"] == pytest.approx(10.75)
    assert len(grounded) == 6


# --- episodes ---

def empty_map():
    metric, _ = build_metric_layer(
        [make_record("room", "space", rect(0, 0, 1, 1), is_space=True)], 0.5
    )
    return SemanticEpisodicMap(
        metric=metric,
        topology=TopologyLayer(nodes={}, edges=[]),
        semantic=SemanticLayer(),
        episodic=EpisodicLayer(),
        sensor_spec=LIDAR_ONLY,
    )


def test_episode_append_and_tick_monotonicity():
    emap = empty_map()
    pose = Pose2(0.0, 0.0, 0.0)
    append_episode(emap, EpisodeEvent(0, "MISSION_START", pose))
    append_episode(emap, EpisodeEvent(4, "REPLAN", pose))
    append_episode(emap, EpisodeEvent(4, "OBSTACLE_DETECTED", pose, subject="p1"))
    with pytest.raises(ValueError):
        append_episode(emap, EpisodeEvent(3, "MISSION_COMPLETE", pose))
    assert [e.tick for e in emap.episodic.events] == [0, 4, 4]


def test_episode_event_validation():
    with pytest.raises(ValueError):
        EpisodeEvent(0, "PARTY", Pose2(0, 0, 0))
    with pytest.raises(ValueError):
        EpisodeEvent(-1, "REPLAN", Pose2(0, 0, 0))


# --- exports ---

def test_pgm_export_layout():
    space = make_record("room", "space", rect(0, 0, 1, 0.5), is_space=True)
    crate = make_record("crate", "crate", rect(0, 0, 0.5, 0.25))
    layer, _ = build_metric_layer([space, crate], 0.25)
    data = metric_to_pgm(layer)
    assert data.startswith(b"P5\n4 2\n255\n")
    pixels = data[len(b"P5\n4 2\n255\n"):]
    assert len(pixels) == 8
    # top image row is the map's top row (all free); bottom row starts occupied
    assert pixels[0:4] == bytes([255, 255, 255, 255])
    assert pixels[4:8] == bytes([0, 0, 255, 255])
    sidecar = metric_sidecar(layer)
    assert "resolution: 0.250000000" in sidecar
    assert "width: 4" in sidecar and "height: 2" in sidecar


def test_layer_text_is_stable_across_generations():
    world = demo_world()
    first = layers_to_text(generate_map(seeded_store(world), BOTH, "hall_b"))
    second = layers_to_text(generate_map(seeded_store(world), BOTH, "hall_b"))
    assert first == second
    assert first.splitlines()[0] == "[topology]"
    assert "edge hall_a hall_b 5.500000000" in first


def test_layer_text_includes_episodes():
    emap = empty_map()
    append_episode(emap, EpisodeEvent(2, "REPLAN", Pose2(1.0, 2.0, 0.5), subject=None))
    text = layers_to_text(emap)
    assert "2 REPLAN 1.000000000 2.000000000 0.500000000 -" in text


def test_unknown_value_report():
    # a cell outside every space is reported unknown, not free
    space = make_record("room", "space", rect(0, 0, 1, 1), is_space=True)
    far = make_record("annex", "space", rect(3, 3, 4, 4), is_space=True)
    layer, _ = build_metric_layer([space, far], 0.5)
    col, row = layer.cell_of(Point2(2.0, 2.0))
    assert layer.cells[row, col] == UNKNOWN
