"""Learning from observation: novelty detection, rule inference, write-back.

Semantic detections are compared against the knowledge store to spot objects
that are new or have moved; safe Horn rules derive additional facts from the
current fact set; both kinds of discovery are committed to the on-demand
tier with learned provenance so they flow back to slower tiers at mission
end.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace

from .geometry import Footprint, Point2, Pose2
from .mapgen import EpisodeEvent, SemanticEpisodicMap, append_episode
from .memory import StoredEntry, TierId, TierStore
from .planner import Fact, _parse_fact_list, format_fact, parse_fact
from .simulator import Detection
from .world import ElementRecord, ExplicitModel, Model3d, PhysicalInfo, Relation, SymbolicModel

log = logging.getLogger(__name__)

MATCH_RADIUS = 1.0
DISPLACEMENT_THRESHOLD = 0.5
LEARNED_FOOTPRINT_SIDE = 0.5
LEARNED_HEIGHT = 1.0

NEW_OBJECT = "NEW_OBJECT"
DISPLACED_OBJECT = "DISPLACED_OBJECT"


@dataclass(frozen=True)
class NoveltyEvent:
    kind: str  # NEW_OBJECT or DISPLACED_OBJECT
    symbol: str
    semantic_class: str
    position: Point2
    prior_position: Point2 | None
    tick: int

    def __post_init__(self) -> None:
        if self.kind not in (NEW_OBJECT, DISPLACED_OBJECT):
            raise ValueError(f"unknown novelty kind '{self.kind}'")
        if self.kind == DISPLACED_OBJECT and self.prior_position is None:
            raise ValueError("displaced events need a prior position")


@dataclass(frozen=True)
class Rule:
    """Safe Horn clause: every head variable must appear in the body."""

    head: Fact
    body: tuple[Fact, ...]

    def __post_init__(self) -> None:
        body_vars = {v for pattern in self.body for v in pattern.variables()}
        unbound = self.head.variables() - body_vars
        if unbound:
            raise ValueError(
                f"unsafe rule: head variables {sorted(unbound)} not bound in body"
            )


def parse_rules(text: str) -> list[Rule]:
    """One rule per line: `head :- fact1, fact2`. Blank lines and # comments
    are skipped."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":-" not in line:
            raise ValueError(f"line {lineno}: rule needs ':-'")
        head_text, _, body_text = line.partition(":-")
        try:
            head = parse_fact(head_text.strip())
            body = _parse_fact_list(body_text.strip()) if body_text.strip() else ()
            rules.append(Rule(head=head, body=body))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return rules


# --- novelty detection ---

_LEARNED_NAME = re.compile(r"^learned_(\d+)$")


def _next_learned_index(store: TierStore) -> int:
    highest = -1
    for key in store.keys_anywhere():
        match = _LEARNED_NAME.match(key.partition("/")[2])
        if match and key.startswith("env/"):
            highest = max(highest, int(match.group(1)))
    return highest + 1


def detect_novelty(detections: list[Detection], store: TierStore, tick: int) -> list[NoveltyEvent]:
    """Compare one sensor frame against stored knowledge.

    A detection matches the nearest stored element of the same semantic
    class within MATCH_RADIUS. No match → NEW_OBJECT (symbol `learned_<n>`);
    a match displaced by more than DISPLACEMENT_THRESHOLD → DISPLACED_OBJECT;
    otherwise the detection is old news.
    """
    # peek, not get: the learning pass inspects knowledge, it does not consume it
    stored = {e.name: e.payload for e in store.peek().values() if e.namespace == "env"}
    events: list[NoveltyEvent] = []
    next_index = _next_learned_index(store)
    for det in detections:
        best: tuple[float, str, Point2] | None = None
        for symbol in sorted(stored):
            record = stored[symbol]
            if record.explicit.model3d is None:
                continue
            if record.explicit.model3d.semantic_class != det.semantic_class:
                continue
            position = record.position()
            if position is None:
                continue
            d = position.distance_to(det.position)
            if d <= MATCH_RADIUS and (best is None or d < best[0]):
                best = (d, symbol, position)
        if best is None:
            events.append(
                NoveltyEvent(
                    kind=NEW_OBJECT,
                    symbol=f"learned_{next_index}",
                    semantic_class=det.semantic_class,
                    position=det.position,
                    prior_position=None,
                    tick=tick,
                )
            )
            next_index += 1
        elif best[0] > DISPLACEMENT_THRESHOLD:
            events.append(
                NoveltyEvent(
                    kind=DISPLACED_OBJECT,
                    symbol=best[1],
                    semantic_class=det.semantic_class,
                    position=det.position,
                    prior_position=best[2],
                    tick=tick,
                )
            )
    return events


# --- forward chaining ---

def _match(pattern: Fact, fact: Fact, binding: dict[str, str]) -> dict[str, str] | None:
    if pattern.predicate != fact.predicate or len(pattern.args) != len(fact.args):
        return None
    extended = dict(binding)
    for pat_arg, fact_arg in zip(pattern.args, fact.args):
        if pat_arg.startswith("?"):
            bound = extended.get(pat_arg)
            if bound is None:
                extended[pat_arg] = fact_arg
            elif bound != fact_arg:
                return None
        elif pat_arg != fact_arg:
            return None
    return extended


def _rule_heads(rule: Rule, facts: frozenset[Fact] | set[Fact]) -> set[Fact]:
    bindings: list[dict[str, str]] = [{}]
    for pattern in rule.body:
        narrowed = []
        for binding in bindings:
            for fact in facts:
                extended = _match(pattern, fact, binding)
                if extended is not None:
                    narrowed.append(extended)
        bindings = narrowed
        if not bindings:
            return set()
    return {rule.head.substitute(b) for b in bindings}


def infer_facts(facts, rules: list[Rule]) -> frozenset[Fact]:
    """Least fixpoint of forward chaining over ground facts."""
    closure = set(facts)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            derived = _rule_heads(rule, closure)
            fresh = derived - closure
            if fresh:
                closure |= fresh
                changed = True
    return frozenset(closure)


# --- committing learned knowledge ---

def _square_footprint(center: Point2, side: float) -> Footprint:
    h = side / 2.0
    return Footprint(
        (
            Point2(center.x - h, center.y - h),
            Point2(center.x + h, center.y - h),
            Point2(center.x + h, center.y + h),
            Point2(center.x - h, center.y + h),
        )
    )


def _containing_space_symbol(emap: SemanticEpisodicMap, p: Point2) -> str | None:
    cell = emap.metric.cell_of(p)
    for symbol in sorted(emap.topology.nodes):
        ann = emap.semantic.annotations.get(symbol)
        if ann is not None and ann.footprint_cells and cell in ann.footprint_cells:
            return symbol
    return None


def _new_record(event: NoveltyEvent, emap: SemanticEpisodicMap) -> ElementRecord:
    relations: tuple[Relation, ...] = ()
    space = _containing_space_symbol(emap, event.position)
    if space is not None:
        relations = (Relation("inside", event.symbol, space),)
    return ElementRecord(
        symbolic=SymbolicModel(symbol=event.symbol, class_label=event.semantic_class),
        explicit=ExplicitModel(
            model2d=_square_footprint(event.position, LEARNED_FOOTPRINT_SIDE),
            model3d=Model3d(height=LEARNED_HEIGHT, semantic_class=event.semantic_class),
            physical=PhysicalInfo(is_static=False),
        ),
        implicit=relations,
    )


def _displaced_record(record: ElementRecord, position: Point2) -> ElementRecord:
    fp = record.explicit.model2d
    old = record.position()
    if fp is None or old is None:
        return record
    dx, dy = position.x - old.x, position.y - old.y
    moved = Footprint(tuple(Point2(p.x + dx, p.y + dy) for p in fp.vertices))
    return replace(record, explicit=replace(record.explicit, model2d=moved))


def commit_learned(
    events: list[NoveltyEvent],
    inferred: frozenset[Fact] | set[Fact],
    store: TierStore,
    emap: SemanticEpisodicMap,
) -> int:
    """Write novelty events and newly inferred facts into the on-demand tier
    with learned provenance; log each event into the episodic layer."""
    evictions_before = store.stats.per_tier[TierId.ONDEMAND].evictions
    written = 0
    stored = store.peek()
    for event in events:
        if event.kind == NEW_OBJECT:
            record = _new_record(event, emap)
        else:
            prior = stored.get(f"env/{event.symbol}")
            if prior is None:
                log.warning("displaced symbol '%s' vanished from the store", event.symbol)
                continue
            record = _displaced_record(prior.payload, event.position)
        store.put(
            StoredEntry(key=f"env/{event.symbol}", payload=record, provenance="learned"),
            TierId.ONDEMAND,
        )
        written += 1
        append_episode(
            emap,
            EpisodeEvent(
                tick=event.tick,
                kind="NOVEL_OBJECT",
                pose=Pose2(event.position.x, event.position.y, 0.0),
                subject=event.symbol,
            ),
        )
    known = store.keys_anywhere()
    for fact in sorted(inferred, key=format_fact):
        key = f"knowledge/{format_fact(fact)}"
        if key in known:
            continue
        store.put(StoredEntry(key=key, payload=fact, provenance="learned"), TierId.ONDEMAND)
        written += 1
    evicted = store.stats.per_tier[TierId.ONDEMAND].evictions - evictions_before
    if evicted:
        log.info("on-demand tier evicted %d entries while committing", evicted)
    return written
