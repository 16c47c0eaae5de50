"""Tier store: probe/promote lookup, LRU eviction, versions, prefetch,
write-back. Trace behavior is cross-checked against the
list-based replay model in oracles.py."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semnav.memory import (
    DEFAULT_CONFIGS,
    OversizeEntryError,
    StoredEntry,
    TierConfig,
    TierId,
    TierStore,
    UnknownSymbolError,
)
from semnav.planner import Fact
from semnav.world import parse_world

from oracles import ReplayTierModel, bfs_closure, resident

DATA = Path(__file__).resolve().parents[1] / "src" / "semnav" / "data"
FACT = Fact("seen", ("booth_1",))


def entry(key: str, size: int = 1, provenance: str = "authored") -> StoredEntry:
    return StoredEntry(key=key, payload=FACT, size_units=size, provenance=provenance)


def small_store(**caps) -> TierStore:
    configs = {
        TierId.STM: TierConfig(caps.get("stm", 2), 0),
        TierId.ONDEMAND: TierConfig(caps.get("ondemand", 3), 1),
        TierId.NETWORK: TierConfig(caps.get("network", 8), 5),
        TierId.CLOUD: TierConfig(None, 50),
    }
    return TierStore(configs)


class TestLookup:
    def test_stm_hit_is_free(self):
        store = small_store()
        store.put(entry("knowledge/a"), TierId.STM)
        result = store.get("knowledge/a")
        assert result.served_from is TierId.STM
        assert result.accumulated_latency == 0

    def test_cloud_hit_pays_full_chain_and_promotes(self):
        store = TierStore()
        store.put(entry("knowledge/a"), TierId.CLOUD)
        result = store.get("knowledge/a")
        assert result.served_from is TierId.CLOUD
        assert result.accumulated_latency == 0 + 1 + 5 + 50
        for tier in TierId:
            assert resident(store, "knowledge/a", tier)
        # second lookup is now a free STM hit
        assert store.get("knowledge/a").accumulated_latency == 0

    def test_not_found_returns_none_and_counts_misses(self):
        store = TierStore()
        assert store.get("knowledge/nope") is None
        for tier in TierId:
            assert store.stats.per_tier[tier].misses == 1
            assert store.stats.per_tier[tier].hits == 0

    def test_miss_counted_only_on_probed_tiers(self):
        store = TierStore()
        store.put(entry("knowledge/a"), TierId.ONDEMAND)
        store.get("knowledge/a")
        assert store.stats.per_tier[TierId.STM].misses == 1
        assert store.stats.per_tier[TierId.ONDEMAND].hits == 1
        assert store.stats.per_tier[TierId.NETWORK].misses == 0
        assert store.stats.per_tier[TierId.CLOUD].misses == 0


class TestPutAndEviction:
    def test_put_then_present(self):
        store = small_store()
        store.put(entry("knowledge/a"), TierId.ONDEMAND)
        assert resident(store, "knowledge/a", TierId.ONDEMAND)
        assert store.stats.per_tier[TierId.ONDEMAND].evictions == 0

    def test_lru_eviction_order(self):
        store = small_store(ondemand=2)
        store.put(entry("knowledge/a"), TierId.ONDEMAND)
        store.put(entry("knowledge/b"), TierId.ONDEMAND)
        store.get("knowledge/a")  # refresh a
        store.put(entry("knowledge/c"), TierId.ONDEMAND)
        assert not resident(store, "knowledge/b", TierId.ONDEMAND)
        assert resident(store, "knowledge/a", TierId.ONDEMAND)
        assert resident(store, "knowledge/c", TierId.ONDEMAND)

    def test_oversize_rejected(self):
        store = small_store(ondemand=3)
        with pytest.raises(OversizeEntryError):
            store.put(entry("knowledge/big", size=4), TierId.ONDEMAND)

    def test_overwrite_bumps_version(self):
        store = small_store()
        for expected in (1, 2, 3):
            store.put(entry("knowledge/a"), TierId.ONDEMAND)
            assert store.entries(TierId.ONDEMAND)[-1].version == expected

    def test_put_invalidates_stale_copies(self):
        store = TierStore()
        store.put(entry("knowledge/a"), TierId.CLOUD)
        store.get("knowledge/a")  # copies everywhere
        store.put(entry("knowledge/a"), TierId.ONDEMAND)  # version 2
        result = store.get("knowledge/a")
        assert result.entry.version == 2
        assert result.served_from is TierId.ONDEMAND

    def test_capacity_respected_by_size_units(self):
        store = small_store(ondemand=3)
        store.put(entry("knowledge/a", size=2), TierId.ONDEMAND)
        store.put(entry("knowledge/b", size=2), TierId.ONDEMAND)
        assert store.used_units(TierId.ONDEMAND) <= 3
        assert not resident(store, "knowledge/a", TierId.ONDEMAND)

    def test_bad_keys_rejected(self):
        with pytest.raises(ValueError):
            StoredEntry(key="bogus", payload=FACT)
        with pytest.raises(ValueError):
            StoredEntry(key="wrongns/x", payload=FACT)


class TestPrefetch:
    @staticmethod
    def seeded_store():
        world = parse_world((DATA / "convention_center.world").read_text())
        store = TierStore()
        for rec in world.all_elements():
            store.put(StoredEntry(key=f"env/{rec.symbol}", payload=rec), TierId.CLOUD)
        return world, store

    def test_unknown_goal_raises(self):
        _, store = self.seeded_store()
        with pytest.raises(UnknownSymbolError):
            store.prefetch_mission("warehouse_9")

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 12)
            symbols = [f"s{i}" for i in range(n)]
            world = parse_world((DATA / "convention_center.world").read_text())
            donor = world.elements[0]
            store = TierStore()
            edges: dict[str, set[str]] = {}
            from semnav.world import ElementRecord, Relation, SymbolicModel

            for i, sym in enumerate(symbols):
                rels = []
                for _ in range(rng.randint(0, 2)):
                    other = rng.choice(symbols)
                    if other != sym:
                        pred = rng.choice(["inside", "adjacent", "connected"])
                        rels.append(Relation(pred, sym, other))
                        edges.setdefault(sym, set()).add(other)
                rec = ElementRecord(
                    symbolic=SymbolicModel(sym, "thing"),
                    explicit=donor.explicit,
                    implicit=tuple(rels),
                )
                store.put(StoredEntry(key=f"env/{sym}", payload=rec), TierId.CLOUD)
            goal = rng.choice(symbols)
            expected = {f"env/{s}" for s in bfs_closure(edges, goal)}
            fetched = store.prefetch_mission(goal)
            assert fetched.keys() == expected
            stored = store.peek()
            assert all(entry is stored[key] for key, entry in fetched.items())

    def test_at_relations_do_not_count_as_prefetch_edges(self):
        from semnav.world import ElementRecord, Relation, SymbolicModel

        world = parse_world((DATA / "convention_center.world").read_text())
        donor = world.elements[0]
        store = TierStore()
        rec_a = ElementRecord(
            symbolic=SymbolicModel("a", "thing"),
            explicit=donor.explicit,
            implicit=(Relation("at", "a", "b"),),
        )
        rec_b = ElementRecord(symbolic=SymbolicModel("b", "thing"), explicit=donor.explicit)
        store.put(StoredEntry(key="env/a", payload=rec_a), TierId.CLOUD)
        store.put(StoredEntry(key="env/b", payload=rec_b), TierId.CLOUD)
        fetched = store.prefetch_mission("a")
        assert fetched.keys() == {"env/a"}
        assert fetched["env/a"] is store.peek()["env/a"]


class TestWriteBack:
    def test_learned_ondemand_entries_flushed_with_equal_version(self):
        store = TierStore()
        store.put(entry("env/learned_1", provenance="learned"), TierId.ONDEMAND)
        store.put(entry("env/learned_1", provenance="learned"), TierId.ONDEMAND)  # v2
        written = store.flush_writeback()
        assert written == 1
        cloud = [e for e in store.entries(TierId.CLOUD) if e.key == "env/learned_1"]
        assert len(cloud) == 1 and cloud[0].version == 2
        assert cloud[0].provenance == "learned"

    def test_authored_entries_not_queued(self):
        store = TierStore()
        store.put(entry("env/wall"), TierId.ONDEMAND)
        assert store.flush_writeback() == 0
        assert not resident(store, "env/wall", TierId.CLOUD)

    def test_learned_outside_ondemand_not_queued(self):
        store = TierStore()
        store.put(entry("env/learned_9", provenance="learned"), TierId.NETWORK)
        assert store.flush_writeback() == 0

    def test_flush_respects_cloud_capacity(self):
        store = TierStore({
            TierId.STM: TierConfig(2, 0),
            TierId.ONDEMAND: TierConfig(8, 1),
            TierId.NETWORK: TierConfig(8, 5),
            TierId.CLOUD: TierConfig(2, 50),
        })
        for i in range(5):
            store.put(entry(f"env/learned_{i}", provenance="learned"), TierId.ONDEMAND)
        assert store.flush_writeback() == 5
        assert store.used_units(TierId.CLOUD) == 2
        assert [e.key for e in store.entries(TierId.CLOUD)] == ["env/learned_3", "env/learned_4"]
        assert store.stats.per_tier[TierId.CLOUD].evictions == 3


class TestTraceAgainstReplayModel:
    def test_random_trace_matches_reference_replay(self):
        configs = {
            TierId.STM: TierConfig(3, 0),
            TierId.ONDEMAND: TierConfig(5, 1),
            TierId.NETWORK: TierConfig(9, 5),
            TierId.CLOUD: TierConfig(None, 50),
        }
        store = TierStore(configs)
        model = ReplayTierModel(configs)
        rng = random.Random(99)
        keys = [f"knowledge/k{i}" for i in range(12)]

        for step in range(2000):
            key = rng.choice(keys)
            if rng.random() < 0.5:
                tier = rng.choice([TierId.ONDEMAND, TierId.NETWORK, TierId.CLOUD])
                provenance = rng.choice(["authored", "learned"])
                store.put(entry(key, provenance=provenance), tier)
                model.put(key, 1, provenance, tier)
            else:
                got = store.get(key)
                expected = model.get(key)
                if expected is None:
                    assert got is None
                else:
                    tier, latency, version = expected
                    assert got.served_from is tier
                    assert got.accumulated_latency == latency
                    assert got.entry.version == version
                    assert resident(store, key, TierId.STM)
            for tier in TierId:
                cap = configs[tier].capacity
                if cap is not None:
                    assert store.used_units(tier) <= cap

        for tier in TierId:
            assert [e.key for e in store.entries(tier)] == model.keys_in_order(tier)
            stat = store.stats.per_tier[tier]
            assert stat.hits == model.hits[tier]
            assert stat.misses == model.misses[tier]
            assert stat.evictions == model.evictions[tier]
            assert stat.latency == model.latency[tier]
        assert store._writeback == model.writeback


KEYS = st.sampled_from([f"knowledge/k{i}" for i in range(6)])
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"), KEYS, st.integers(1, 3),
            st.sampled_from(["authored", "learned"]), st.sampled_from(list(TierId)),
        ),
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("flush")),
    ),
    min_size=10,  # shorter runs rarely fill a tier and then flush past it
    max_size=60,
)


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(capacities=st.lists(st.integers(1, 5), min_size=4, max_size=4), ops=OPS)
def test_no_tier_ever_holds_more_than_its_capacity(capacities, ops):
    configs = {
        tier: TierConfig(capacity, latency)
        for tier, capacity, latency in zip(TierId, capacities, (0, 1, 5, 50))
    }
    store = TierStore(configs)
    for op in ops:
        if op[0] == "put":
            _, key, size, provenance, tier = op
            if size > configs[tier].capacity:
                with pytest.raises(OversizeEntryError):
                    store.put(entry(key, size, provenance), tier)
            else:
                store.put(entry(key, size, provenance), tier)
        elif op[0] == "get":
            store.get(op[1])
        else:
            store.flush_writeback()
        for tier in TierId:
            assert store.used_units(tier) <= configs[tier].capacity, (op, tier)


class TestConfig:
    def test_latency_must_be_non_decreasing(self):
        bad = dict(DEFAULT_CONFIGS)
        bad[TierId.NETWORK] = TierConfig(256, 0)
        bad[TierId.ONDEMAND] = TierConfig(64, 3)
        with pytest.raises(ValueError):
            TierStore(bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TierConfig(capacity=0, latency=1)
        with pytest.raises(ValueError):
            TierConfig(capacity=4, latency=-1)
