"""Behavior planning: grounds action templates against map symbols and
searches for a minimum-cost action sequence reaching the mission goal.

Actions follow add/delete-list semantics over ground facts with a closed
world. Costs are constants or `topo_distance(?a,?b)`, resolved against the
map's space topology at grounding time, which couples task plans to map
geometry. Search is forward A* with an admissible goal-count heuristic and a
lexicographic tie-break so equal-cost plans resolve deterministically.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import re
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Fact:
    predicate: str
    args: tuple[str, ...]

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.predicate):
            raise ValueError(f"bad predicate '{self.predicate}'")

    def is_ground(self) -> bool:
        return not any(a.startswith("?") for a in self.args)

    def variables(self) -> set[str]:
        return {a for a in self.args if a.startswith("?")}

    def substitute(self, binding: dict[str, str]) -> "Fact":
        return Fact(self.predicate, tuple(binding.get(a, a) for a in self.args))


def parse_fact(text: str) -> Fact:
    text = text.strip()
    match = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\((.*)\)", text)
    if not match:
        raise ValueError(f"bad fact '{text}' (expected pred(arg,...))")
    predicate, arg_text = match.groups()
    args = tuple(a.strip() for a in arg_text.split(",")) if arg_text.strip() else ()
    for arg in args:
        name = arg[1:] if arg.startswith("?") else arg
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"bad argument '{arg}' in fact '{text}'")
    return Fact(predicate, args)


def format_fact(fact: Fact) -> str:
    return f"{fact.predicate}({','.join(fact.args)})"


def _parse_fact_list(text: str) -> tuple[Fact, ...]:
    """Split a comma-separated fact list, respecting parentheses."""
    facts = []
    depth = 0
    token = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            if token.strip():
                facts.append(parse_fact(token))
            token = ""
        else:
            token += ch
    if token.strip():
        facts.append(parse_fact(token))
    return tuple(facts)


@dataclass(frozen=True)
class ActionTemplate:
    name: str
    params: tuple[tuple[str, str], ...]  # (?var, class_label)
    preconditions: frozenset[Fact]
    add_effects: frozenset[Fact]
    del_effects: frozenset[Fact]
    cost_spec: float | tuple[str, str, str]  # constant or ("topo_distance", ?a, ?b)

    def __post_init__(self) -> None:
        declared = {var for var, _ in self.params}
        used = set().union(
            *(f.variables() for f in self.preconditions | self.add_effects | self.del_effects),
            set(),
        )
        free = used - declared
        if free:
            raise ValueError(f"action '{self.name}' uses undeclared variables {sorted(free)}")
        if isinstance(self.cost_spec, tuple):
            _, a, b = self.cost_spec
            if a not in declared or b not in declared:
                raise ValueError(f"action '{self.name}' cost references undeclared variables")
        elif not self.cost_spec > 0:
            raise ValueError(f"action '{self.name}' cost must be positive")


@dataclass(frozen=True)
class GroundAction:
    template: str  # e.g. navigate
    args: tuple[str, ...]  # the symbols bound to its params, e.g. (lobby, hall_a)
    preconditions: frozenset[Fact]
    add_effects: frozenset[Fact]
    del_effects: frozenset[Fact]
    cost: float
    name: str = field(init=False)  # template(args), e.g. navigate(lobby,hall_a)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", f"{self.template}({','.join(self.args)})")
        if not self.cost > 0:
            raise ValueError(f"ground action '{self.name}' cost must be positive")


@dataclass(frozen=True)
class Mission:
    goal: frozenset[Fact]
    start_space: str

    def __post_init__(self) -> None:
        if not self.goal:
            raise ValueError("mission goal must be non-empty")
        for fact in self.goal:
            if not fact.is_ground():
                raise ValueError(f"mission goal fact {format_fact(fact)} is not ground")


@dataclass(frozen=True)
class BehaviorPlan:
    actions: tuple[GroundAction, ...]
    total_cost: float


# --- behavior database text format ---

def parse_action_template(block: str) -> ActionTemplate:
    """Parse one text block:

    action navigate(?from:space, ?to:space)
    pre: at(robot,?from), connected(?from,?to)
    add: at(robot,?to)
    del: at(robot,?from)
    cost: topo_distance(?from,?to)
    """
    lines = [ln.strip() for ln in block.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("action "):
        raise ValueError("template block must start with 'action <name>(...)'")
    head = re.fullmatch(r"action\s+([A-Za-z_][A-Za-z0-9_]*)\((.*)\)", lines[0])
    if not head:
        raise ValueError(f"bad action header '{lines[0]}'")
    name, param_text = head.groups()
    params: list[tuple[str, str]] = []
    if param_text.strip():
        for chunk in param_text.split(","):
            pm = re.fullmatch(r"\s*(\?[A-Za-z_][A-Za-z0-9_]*)\s*:\s*([A-Za-z_][A-Za-z0-9_]*)\s*", chunk)
            if not pm:
                raise ValueError(f"bad parameter '{chunk.strip()}' in action '{name}'")
            params.append((pm.group(1), pm.group(2)))

    sections: dict[str, str] = {"pre": "", "add": "", "del": "", "cost": ""}
    for line in lines[1:]:
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in sections:
            raise ValueError(f"unexpected line '{line}' in action '{name}'")
        sections[key] = rest.strip()
    if not sections["cost"]:
        raise ValueError(f"action '{name}' is missing its cost line")

    cost_text = sections["cost"]
    topo = re.fullmatch(
        r"topo_distance\(\s*(\?[A-Za-z_][A-Za-z0-9_]*)\s*,\s*(\?[A-Za-z_][A-Za-z0-9_]*)\s*\)",
        cost_text,
    )
    cost_spec: float | tuple[str, str, str]
    if topo:
        cost_spec = ("topo_distance", topo.group(1), topo.group(2))
    else:
        try:
            cost_spec = float(cost_text)
        except ValueError:
            raise ValueError(f"bad cost '{cost_text}' in action '{name}'") from None
        if not math.isfinite(cost_spec):
            raise ValueError(f"non-finite cost in action '{name}'")

    return ActionTemplate(
        name=name,
        params=tuple(params),
        preconditions=frozenset(_parse_fact_list(sections["pre"])),
        add_effects=frozenset(_parse_fact_list(sections["add"])),
        del_effects=frozenset(_parse_fact_list(sections["del"])),
        cost_spec=cost_spec,
    )


def parse_behavior_db(text: str) -> list[ActionTemplate]:
    """Parse a whole behavior database: blank-line/comment tolerant, one
    block per `action` header."""
    blocks: list[list[str]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("action "):
            blocks.append([stripped])
        elif blocks:
            blocks[-1].append(stripped)
        else:
            raise ValueError(f"stray line before first action block: '{stripped}'")
    return [parse_action_template("\n".join(b)) for b in blocks]


# --- grounding ---

def ground_actions(templates, emap) -> list[GroundAction]:
    """Instantiate templates with every type-consistent symbol binding.

    `emap` supplies `symbol_classes() -> {symbol: class_label}` and
    `topo_distance(a, b) -> meters or None`. Groundings are skipped when a
    topo_distance cost is unresolvable/zero or when add and delete effects
    collide (e.g. navigate from a space to itself).
    """
    classes = emap.symbol_classes()
    by_class: dict[str, list[str]] = {}
    for symbol in sorted(classes):
        by_class.setdefault(classes[symbol], []).append(symbol)

    grounded: list[GroundAction] = []
    seen: set[str] = set()
    for template in templates:
        pools = []
        unknown = None
        for _var, cls in template.params:
            if cls not in by_class:
                unknown = cls
                break
            pools.append(by_class[cls])
        if unknown is not None:
            log.warning("action '%s' skipped: no symbols of class '%s'", template.name, unknown)
            continue
        for combo in itertools.product(*pools):
            binding = {var: symbol for (var, _), symbol in zip(template.params, combo)}
            add = frozenset(f.substitute(binding) for f in template.add_effects)
            dele = frozenset(f.substitute(binding) for f in template.del_effects)
            if add & dele:
                continue
            if isinstance(template.cost_spec, tuple):
                _, va, vb = template.cost_spec
                cost = emap.topo_distance(binding[va], binding[vb])
                if cost is None or cost <= 0.0:
                    continue
            else:
                cost = template.cost_spec
            action = GroundAction(
                template=template.name,
                args=combo,
                preconditions=frozenset(f.substitute(binding) for f in template.preconditions),
                add_effects=add,
                del_effects=dele,
                cost=cost,
            )
            if action.name in seen:
                continue
            seen.add(action.name)
            grounded.append(action)
    return grounded


# --- search ---

def plan(
    initial_facts, mission: Mission, actions: list[GroundAction]
) -> BehaviorPlan | None:
    """A* over fact states; returns a minimum-cost plan or None if the goal
    is unreachable. Ties on f-value break toward the lexicographically
    smallest action-name sequence, and the popped goal entry's name sequence
    is the plan. Raises ValueError when two actions share a name."""
    by_name = {a.name: a for a in actions}
    if len(by_name) != len(actions):
        raise ValueError("action names must be unique")
    goal = mission.goal
    start = frozenset(initial_facts)
    if goal <= start:
        return BehaviorPlan(actions=(), total_cost=0.0)

    min_cost = min((a.cost for a in actions), default=0.0)
    # One action can satisfy several goal facts at once; divide by the best
    # per-action goal yield so the estimate stays a lower bound.
    max_yield = max((len(a.add_effects & goal) for a in actions), default=0)
    max_yield = max(max_yield, 1)

    def heuristic(state: frozenset[Fact]) -> float:
        unsatisfied = len(goal - state)
        return math.ceil(unsatisfied / max_yield) * min_cost

    ordered = sorted(actions, key=lambda a: a.name)
    # per-state best (cost, action-name sequence); a route also wins when it
    # ties on cost with a lexicographically smaller name sequence, so equal-
    # cost plans resolve to the smallest sequence overall. A push must improve
    # its state's best, and a name sequence fixes its state, so no two entries
    # share (f, names) and the heap never compares states.
    best: dict[frozenset[Fact], tuple[float, tuple[str, ...]]] = {start: (0.0, ())}
    open_heap: list[tuple[float, tuple[str, ...], float, frozenset[Fact]]] = [
        (heuristic(start), (), 0.0, start)
    ]
    while open_heap:
        _f, names, g, state = heapq.heappop(open_heap)
        if best[state] != (g, names):
            continue
        if goal <= state:
            return BehaviorPlan(actions=tuple(by_name[n] for n in names), total_cost=g)
        for action in ordered:
            if not action.preconditions <= state:
                continue
            nxt = frozenset((state - action.del_effects) | action.add_effects)
            ng = g + action.cost
            nxt_names = names + (action.name,)
            incumbent = best.get(nxt)
            if incumbent is not None and (ng, nxt_names) >= incumbent:
                continue
            best[nxt] = (ng, nxt_names)
            heapq.heappush(open_heap, (ng + heuristic(nxt), nxt_names, ng, nxt))
    return None
