"""Tiered knowledge store: STM working memory backed by on-demand, network,
and cloud tiers.

Lookups probe tiers from fastest to slowest, pay each probed tier's simulated
latency, and promote hits into every faster tier so repeated access gets
cheaper. Each tier evicts least-recently-used entries when its capacity is
exceeded. Learned knowledge written to the on-demand tier is queued and
flushed to the cloud at mission end.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from enum import IntEnum

NAMESPACES = ("env", "behavior", "knowledge")


class TierId(IntEnum):
    """Probe order: lower value = faster tier, searched first."""

    STM = 0
    ONDEMAND = 1
    NETWORK = 2
    CLOUD = 3


class UnknownSymbolError(LookupError):
    """A goal names no symbol, or one absent from every tier; the message
    says which."""


class OversizeEntryError(ValueError):
    """Entry larger than the target tier's total capacity."""


@dataclass(frozen=True)
class StoredEntry:
    key: str
    payload: object
    version: int = 1
    size_units: int = 1
    provenance: str = "authored"

    def __post_init__(self) -> None:
        namespace, _, rest = self.key.partition("/")
        if namespace not in NAMESPACES or not rest:
            raise ValueError(f"key '{self.key}' must look like <namespace>/<name>")
        if self.size_units <= 0:
            raise ValueError("size_units must be positive")
        if self.version < 1:
            raise ValueError("version must be >= 1")
        if self.provenance not in ("authored", "learned"):
            raise ValueError(f"unknown provenance '{self.provenance}'")

    @property
    def namespace(self) -> str:
        return self.key.partition("/")[0]

    @property
    def name(self) -> str:
        return self.key.partition("/")[2]


@dataclass(frozen=True)
class TierConfig:
    capacity: int | None  # None = unbounded (cloud)
    latency: int  # simulated ticks charged per probe

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity <= 0:
            raise ValueError("capacity must be positive (or None for unbounded)")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")


DEFAULT_CONFIGS: dict[TierId, TierConfig] = {
    TierId.STM: TierConfig(capacity=16, latency=0),
    TierId.ONDEMAND: TierConfig(capacity=64, latency=1),
    TierId.NETWORK: TierConfig(capacity=256, latency=5),
    TierId.CLOUD: TierConfig(capacity=None, latency=50),
}


def merged_configs(
    overrides: dict[TierId, TierConfig] | None = None,
) -> dict[TierId, TierConfig]:
    """DEFAULT_CONFIGS with overrides applied. Raises ValueError unless
    latencies are non-decreasing from STM to CLOUD."""
    configs = dict(DEFAULT_CONFIGS)
    if overrides:
        configs.update(overrides)
    for faster, slower in zip(sorted(TierId), sorted(TierId)[1:]):
        if configs[faster].latency > configs[slower].latency:
            raise ValueError("latencies must be non-decreasing from STM to CLOUD")
    return configs


@dataclass(frozen=True)
class FetchResult:
    entry: StoredEntry
    served_from: TierId
    accumulated_latency: int


@dataclass
class TierStatEntry:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    latency: int = 0


@dataclass
class TierStats:
    per_tier: dict[TierId, TierStatEntry] = field(
        default_factory=lambda: {tier: TierStatEntry() for tier in TierId}
    )

    def as_dict(self) -> dict[str, dict[str, int]]:
        return {
            tier.name: {
                "hits": s.hits,
                "misses": s.misses,
                "evictions": s.evictions,
                "latency": s.latency,
            }
            for tier, s in sorted(self.per_tier.items())
        }


class TierStore:
    """Four-tier LRU store with probe/promote lookup semantics."""

    def __init__(self, configs: dict[TierId, TierConfig] | None = None):
        self.configs = merged_configs(configs)
        # key -> entry, insertion order = recency (first = least recent)
        self._tiers: dict[TierId, OrderedDict[str, StoredEntry]] = {
            tier: OrderedDict() for tier in TierId
        }
        self._writeback: set[str] = set()
        self.stats = TierStats()

    # -- inspection helpers --

    def entries(self, tier: TierId) -> list[StoredEntry]:
        """Entries in recency order, least recent first."""
        return list(self._tiers[tier].values())

    def used_units(self, tier: TierId) -> int:
        return sum(e.size_units for e in self._tiers[tier].values())

    def keys_anywhere(self) -> set[str]:
        return set(self.peek())

    def peek(self) -> dict[str, StoredEntry]:
        """Every stored entry by key, the first copy in TierId order, without
        probing: no statistics or recency change. Copies of one key across
        tiers share a version, so any copy serves."""
        found: dict[str, StoredEntry] = {}
        for tier in TierId:
            for key, entry in self._tiers[tier].items():
                found.setdefault(key, entry)
        return found

    # -- core operations --

    def get(self, key: str) -> FetchResult | None:
        latency = 0
        for tier in sorted(TierId):
            stat = self.stats.per_tier[tier]
            latency += self.configs[tier].latency
            stat.latency += self.configs[tier].latency
            entry = self._tiers[tier].get(key)
            if entry is None:
                stat.misses += 1
                continue
            stat.hits += 1
            self._tiers[tier].move_to_end(key)
            for faster in sorted(TierId):
                if faster >= tier:
                    break
                self._insert(faster, entry)
            return FetchResult(entry=entry, served_from=tier, accumulated_latency=latency)
        return None

    def put(self, entry: StoredEntry, tier: TierId) -> None:
        capacity = self.configs[tier].capacity
        if capacity is not None and entry.size_units > capacity:
            raise OversizeEntryError(
                f"entry '{entry.key}' ({entry.size_units} units) exceeds "
                f"{tier.name} capacity {capacity}"
            )
        versions = [
            t[entry.key].version for t in self._tiers.values() if entry.key in t
        ]
        stored = replace(entry, version=max(versions) + 1 if versions else 1)
        # drop stale copies so no tier can serve an outdated version
        for other in TierId:
            if other is not tier:
                self._tiers[other].pop(entry.key, None)
        self._insert(tier, stored)
        if stored.provenance == "learned" and tier is TierId.ONDEMAND:
            self._writeback.add(stored.key)

    def _insert(self, tier: TierId, entry: StoredEntry) -> None:
        """Place entry as most-recent in tier, evicting LRU entries to fit.
        Entries wider than the whole tier are skipped (promotion must not
        fail a successful lookup)."""
        capacity = self.configs[tier].capacity
        if capacity is not None and entry.size_units > capacity:
            return
        bucket = self._tiers[tier]
        bucket.pop(entry.key, None)
        bucket[entry.key] = entry
        if capacity is None:
            return
        used = self.used_units(tier)
        while used > capacity:
            victim_key, victim = next(iter(bucket.items()))
            bucket.popitem(last=False)
            used -= victim.size_units
            self.stats.per_tier[tier].evictions += 1

    # -- prefetch --

    def _relation_edges(self) -> dict[str, set[str]]:
        """Undirected symbol adjacency from every env record's relations."""
        edges: dict[str, set[str]] = {}
        for entry in self.peek().values():
            if entry.namespace != "env":
                continue
            for rel in entry.payload.implicit:  # type: ignore[attr-defined]
                if rel.predicate not in ("inside", "adjacent", "connected"):
                    continue
                edges.setdefault(rel.subject, set()).add(rel.object)
                edges.setdefault(rel.object, set()).add(rel.subject)
        return edges

    def prefetch_mission(self, goal_symbol: str) -> dict[str, StoredEntry]:
        """Fetch the goal element and its whole relation component: every
        element linked to it by inside/adjacent/connected, taken undirected.
        Each is read once, in sorted-key order; returns the fetched entries
        by key, so a caller needs no second read."""
        goal_key = f"env/{goal_symbol}"
        if goal_key not in self.keys_anywhere():
            raise UnknownSymbolError(f"unknown goal symbol '{goal_symbol}'")
        edges = self._relation_edges()
        closure = {goal_symbol}
        frontier = [goal_symbol]
        while frontier:
            for neighbor in edges.get(frontier.pop(), ()):
                if neighbor not in closure:
                    closure.add(neighbor)
                    frontier.append(neighbor)
        fetched: dict[str, StoredEntry] = {}
        for symbol in sorted(closure):
            result = self.get(f"env/{symbol}")
            if result is not None:
                fetched[result.entry.key] = result.entry
        return fetched

    # -- write-back --

    def flush_writeback(self) -> int:
        """Copy queued learned entries still in ONDEMAND to CLOUD, preserving
        versions and evicting CLOUD's least recently used entries to fit its
        capacity. Returns the number of entries written."""
        written = 0
        ondemand = self._tiers[TierId.ONDEMAND]
        for key in sorted(self._writeback):
            entry = ondemand.get(key)
            if entry is None or entry.provenance != "learned":
                continue
            self._insert(TierId.CLOUD, entry)
            written += 1
        self._writeback.clear()
        return written
