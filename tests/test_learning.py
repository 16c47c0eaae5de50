"""Novelty detection thresholds, Horn-rule inference against the naive
fixpoint oracle, and learned write-back semantics."""

from __future__ import annotations

import math
import random

import pytest

from oracles import naive_fixpoint
from semnav.geometry import Footprint, Point2
from semnav.learning import (
    DISPLACED_OBJECT,
    NEW_OBJECT,
    NoveltyEvent,
    Rule,
    commit_learned,
    detect_novelty,
    infer_facts,
    parse_rules,
)
from semnav.mapgen import Lidar2dSpec, SensorSpec, generate_map
from semnav.memory import StoredEntry, TierConfig, TierId, TierStore
from semnav.planner import Fact, parse_fact
from semnav.simulator import Detection
from semnav.world import (
    ElementRecord,
    ExplicitModel,
    Model3d,
    PhysicalInfo,
    Relation,
    SymbolicModel,
)


def rect(x0, y0, x1, y1):
    return Footprint((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


def element(symbol, class_label, footprint, semantic_class=None, *, is_space=False,
            relations=()):
    model3d = Model3d(height=2.0, semantic_class=semantic_class) if semantic_class else None
    return ElementRecord(
        symbolic=SymbolicModel(symbol=symbol, class_label=class_label),
        explicit=ExplicitModel(model2d=footprint, model3d=model3d,
                               physical=PhysicalInfo()),
        implicit=tuple(relations),
        is_space=is_space,
    )


def store_with(*records):
    store = TierStore()
    for rec in records:
        store.put(StoredEntry(key=f"env/{rec.symbol}", payload=rec), TierId.CLOUD)
    return store


def room_and_booth():
    room = element("room", "space", rect(0, 0, 10, 10), is_space=True)
    booth = element("booth_1", "booth", rect(4.6, 4.6, 5.4, 5.4), "booth",
                    relations=[Relation("inside", "booth_1", "room")])
    return room, booth


def map_for(store, goal="room"):
    return generate_map(store, SensorSpec(lidar2d=Lidar2dSpec(5.0, math.pi, 61)), goal)


# --- rule parsing ---

def test_parse_rules_happy_path():
    text = (
        "# spatial closeness\n"
        "\n"
        "near(?x, ?t) :- inside(?x, ?s), adjacent(?s, ?t)\n"
    )
    rules = parse_rules(text)
    assert len(rules) == 1
    assert rules[0].head == parse_fact("near(?x,?t)")
    assert rules[0].body == (parse_fact("inside(?x,?s)"), parse_fact("adjacent(?s,?t)"))


def test_parse_rules_rejects_missing_separator():
    with pytest.raises(ValueError, match="line 1"):
        parse_rules("near(?x,?t)\n")


def test_unsafe_rule_rejected():
    with pytest.raises(ValueError, match="unsafe"):
        parse_rules("near(?x, ?ghost) :- inside(?x, ?s)\n")
    with pytest.raises(ValueError, match="unsafe"):
        Rule(head=parse_fact("p(?a)"), body=())


def test_ground_headed_rule_with_empty_body_allowed():
    (rule,) = parse_rules("origin(base) :- \n")
    assert rule.body == ()
    assert infer_facts([], [rule]) == frozenset({parse_fact("origin(base)")})


# --- novelty detection ---

def test_detection_at_stored_centroid_is_old_news():
    room, booth = room_and_booth()
    store = store_with(room, booth)
    det = Detection(symbol="booth_1", semantic_class="booth",
                    position=Point2(5.0, 5.0), tick=3)
    assert detect_novelty([det], store, tick=3) == []


def test_unmatched_detection_becomes_new_object():
    room, booth = room_and_booth()
    store = store_with(room, booth)
    det = Detection(symbol=None, semantic_class="person",
                    position=Point2(2.0, 2.0), tick=5)
    events = detect_novelty([det], store, tick=5)
    assert len(events) == 1
    assert events[0].kind == NEW_OBJECT
    assert events[0].symbol == "learned_0"
    assert events[0].prior_position is None


def test_same_class_but_out_of_match_radius_is_new():
    room, booth = room_and_booth()
    store = store_with(room, booth)
    det = Detection(None, "booth", Point2(5.0, 6.5), tick=0)  # 1.5 m away
    events = detect_novelty([det], store, tick=0)
    assert [e.kind for e in events] == [NEW_OBJECT]


def test_displacement_threshold_matches_distance_oracle():
    rng = random.Random(8080)
    for case in range(120):
        room, booth = room_and_booth()
        store = store_with(room, booth)
        radius = rng.uniform(0.3, 0.95)
        angle = rng.uniform(0, 2 * math.pi)
        observed = Point2(5.0 + radius * math.cos(angle),
                          5.0 + radius * math.sin(angle))
        events = detect_novelty(
            [Detection(None, "booth", observed, tick=0)], store, tick=0
        )
        # oracle: direct distance computation against the stored centroid
        expected_distance = math.hypot(observed.x - 5.0, observed.y - 5.0)
        if expected_distance > 0.5:
            assert [e.kind for e in events] == [DISPLACED_OBJECT], f"case {case}"
            assert events[0].symbol == "booth_1"
            assert events[0].prior_position == Point2(5.0, 5.0)
        else:
            assert events == [], f"case {case}"


def test_matches_nearest_stored_element():
    room, _ = room_and_booth()
    booth_a = element("booth_a", "booth", rect(4.6, 4.6, 5.4, 5.4), "booth")
    booth_b = element("booth_b", "booth", rect(5.4, 4.6, 6.2, 5.4), "booth")
    store = store_with(room, booth_a, booth_b)
    det = Detection(None, "booth", Point2(5.65, 5.0), tick=0)  # nearer booth_b
    events = detect_novelty([det], store, tick=0)
    assert events == []  # 0.15 m from booth_b's centroid: no displacement


def test_learned_numbering_continues_after_existing_entries():
    room, booth = room_and_booth()
    store = store_with(room, booth)
    learned = element("learned_3", "person", rect(1, 1, 1.5, 1.5), "person")
    store.put(StoredEntry(key="env/learned_3", payload=learned, provenance="learned"),
              TierId.ONDEMAND)
    dets = [
        Detection(None, "person", Point2(8.0, 8.0), tick=1),
        Detection(None, "person", Point2(8.0, 2.0), tick=1),
    ]
    events = detect_novelty(dets, store, tick=1)
    assert [e.symbol for e in events] == ["learned_4", "learned_5"]


def test_novelty_event_validation():
    with pytest.raises(ValueError):
        NoveltyEvent("SURPRISE", "s", "c", Point2(0, 0), None, 0)
    with pytest.raises(ValueError):
        NoveltyEvent(DISPLACED_OBJECT, "s", "c", Point2(0, 0), None, 0)


# --- inference ---

def test_empty_rule_set_returns_facts():
    facts = [parse_fact("at(robot,lobby)")]
    assert infer_facts(facts, []) == frozenset(facts)


def test_single_rule_application():
    rules = parse_rules("near(?x,?t) :- inside(?x,?s), adjacent(?s,?t)\n")
    facts = [parse_fact("inside(b,hall_a)"), parse_fact("adjacent(hall_a,lobby)")]
    closure = infer_facts(facts, rules)
    assert parse_fact("near(b,lobby)") in closure
    assert len(closure) == 3


def test_transitive_chaining_reaches_fixpoint():
    rules = parse_rules("reach(?a,?c) :- reach(?a,?b), edge(?b,?c)\n"
                        "reach(?a,?b) :- edge(?a,?b)\n")
    facts = [parse_fact(f"edge(n{i},n{i + 1})") for i in range(5)]
    closure = infer_facts(facts, rules)
    assert parse_fact("reach(n0,n5)") in closure
    reaches = {f for f in closure if f.predicate == "reach"}
    assert len(reaches) == 15  # all ordered pairs i<j over 6 nodes


def random_instance(rng):
    symbols = [f"s{i}" for i in range(rng.randint(2, 5))]
    predicates = [f"p{i}" for i in range(rng.randint(1, 4))]
    facts = set()
    for _ in range(rng.randint(1, 20)):
        pred = rng.choice(predicates)
        arity = rng.randint(1, 2)
        facts.add(Fact(pred, tuple(rng.choice(symbols) for _ in range(arity))))
    rules = []
    for _ in range(rng.randint(0, 5)):
        variables = ["?x", "?y"][: rng.randint(1, 2)]
        body = []
        for _ in range(rng.randint(1, 2)):
            pred = rng.choice(predicates)
            arity = rng.randint(1, 2)
            args = tuple(
                rng.choice(variables + symbols[:1]) for _ in range(arity)
            )
            body.append(Fact(pred, args))
        body_vars = {v for f in body for v in f.variables()}
        if not body_vars:
            body_vars = {"?x"}
            body.append(Fact(predicates[0], ("?x",)))
        head_pred = rng.choice(predicates)
        head_args = tuple(rng.choice(sorted(body_vars)) for _ in range(rng.randint(1, 2)))
        rules.append(Rule(head=Fact(head_pred, head_args), body=tuple(body)))
    return facts, rules


def test_inference_matches_naive_oracle_on_random_instances():
    rng = random.Random(1999)
    for case in range(60):
        facts, rules = random_instance(rng)
        assert infer_facts(facts, rules) == naive_fixpoint(facts, rules), f"case {case}"


# --- committing ---

def test_commit_nothing_changes_nothing():
    room, booth = room_and_booth()
    store = store_with(room, booth)
    emap = map_for(store)
    keys_before = store.keys_anywhere()
    assert commit_learned([], frozenset(), store, emap) == 0
    assert store.keys_anywhere() == keys_before
    assert emap.episodic.events == []


def test_commit_new_object_writes_learned_entry_and_episode():
    room, booth = room_and_booth()
    store = store_with(room, booth)
    emap = map_for(store)
    event = NoveltyEvent(NEW_OBJECT, "learned_0", "person", Point2(2.0, 3.0), None, 12)
    written = commit_learned([event], frozenset(), store, emap)
    assert written == 1
    entry = store.entries(TierId.ONDEMAND)[-1]
    assert entry.key == "env/learned_0"
    assert entry.provenance == "learned" and entry.version == 1
    record = entry.payload
    assert record.symbolic.class_label == "person"
    assert not record.explicit.physical.is_static
    assert record.position() == Point2(2.0, 3.0)
    assert record.implicit == (Relation("inside", "learned_0", "room"),)
    assert [e.kind for e in emap.episodic.events] == ["NOVEL_OBJECT"]
    assert emap.episodic.events[0].subject == "learned_0"
    # write-back propagates the learned entry to the cloud at mission end
    assert store.flush_writeback() == 1
    cloud_keys = {e.key for e in store.entries(TierId.CLOUD)}
    assert "env/learned_0" in cloud_keys


def test_commit_displaced_bumps_version_and_moves_footprint():
    room, booth = room_and_booth()
    store = store_with(room, booth)
    emap = map_for(store)
    event = NoveltyEvent(DISPLACED_OBJECT, "booth_1", "booth",
                         Point2(5.8, 5.0), Point2(5.0, 5.0), 20)
    assert commit_learned([event], frozenset(), store, emap) == 1
    refreshed = store.get("env/booth_1").entry
    assert refreshed.version == 2 and refreshed.provenance == "learned"
    assert refreshed.payload.position() == Point2(5.8, 5.0)
    # detecting the booth at its new spot is no longer novel
    det = Detection(None, "booth", Point2(5.8, 5.0), tick=21)
    assert detect_novelty([det], store, tick=21) == []


def test_commit_inferred_facts_skips_known_ones():
    room, booth = room_and_booth()
    store = store_with(room, booth)
    known = parse_fact("near(booth_1,room)")
    store.put(StoredEntry(key=f"knowledge/{'near(booth_1,room)'}", payload=known),
              TierId.CLOUD)
    emap = map_for(store)
    inferred = {known, parse_fact("reach(room,room)")}
    assert commit_learned([], inferred, store, emap) == 1
    assert "knowledge/reach(room,room)" in store.keys_anywhere()


def test_commit_logs_when_ondemand_overflows(caplog):
    room, booth = room_and_booth()
    store = TierStore({TierId.ONDEMAND: TierConfig(capacity=1, latency=1)})
    for rec in (room, booth):
        store.put(StoredEntry(key=f"env/{rec.symbol}", payload=rec), TierId.CLOUD)
    emap = map_for(store)
    events = [
        NoveltyEvent(NEW_OBJECT, "learned_0", "person", Point2(1.0, 1.0), None, 1),
        NoveltyEvent(NEW_OBJECT, "learned_1", "person", Point2(9.0, 9.0), None, 1),
    ]
    with caplog.at_level("INFO", logger="semnav.learning"):
        assert commit_learned(events, frozenset(), store, emap) == 2
    assert any("evicted" in message for message in caplog.messages)
    assert len(store.entries(TierId.ONDEMAND)) == 1


def test_idempotent_frame_after_commit():
    room, booth = room_and_booth()
    store = store_with(room, booth)
    emap = map_for(store)
    frame = [Detection(None, "person", Point2(7.0, 7.0), tick=2)]
    events = detect_novelty(frame, store, tick=2)
    assert len(events) == 1
    commit_learned(events, frozenset(), store, emap)
    assert detect_novelty(frame, store, tick=2) == []
