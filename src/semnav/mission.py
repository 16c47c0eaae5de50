"""Mission orchestration: one sequential pipeline per mission.

A mission runs prefetch, map generation, task planning, waypoint driving,
and learning strictly in that order, all configured from a plain-text
scenario file. Every stage is deterministic given (scenario, seed), so two
runs of the same scenario produce byte-identical reports and traces.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .geometry import Point2, Pose2
from .learning import Rule, commit_learned, detect_novelty, infer_facts, parse_rules
from .mapgen import (
    EpisodeEvent,
    Lidar2dSpec,
    Semantic3dSpec,
    SemanticEpisodicMap,
    SensorSpec,
    append_episode,
    generate_map,
)
from .memory import (
    DEFAULT_CONFIGS,
    StoredEntry,
    TierConfig,
    TierId,
    TierStore,
    UnknownSymbolError,
    merged_configs,
)
from .navigation import (
    GOAL_TOLERANCE,
    DrivingMap,
    ReplanState,
    cells_to_points,
    follow_step,
    nearest_waypoint,
    path_cost,
    path_reads,
    plan_global,
    replan_incremental,
)
from .planner import (
    ActionTemplate,
    BehaviorPlan,
    Fact,
    GroundAction,
    Mission,
    _parse_fact_list,
    format_fact,
    ground_actions,
    parse_behavior_db,
    plan,
)
from .simulator import (
    WorldState,
    lidar_scan,
    make_world_state,
    semantic_detect,
    step,
    trace_hash,
)
from .world import (
    WorldDescription,
    WorldSemanticError,
    WorldSyntaxError,
    parse_world,
    validate_world,
)

DATA_DIR_ENV = "SEMNAV_DATA_DIR"

# Ticks a navigate action may sit without any grid route before its topology
# edge is declared blocked and the task planner is re-run. Two dynamic-layer
# lifetimes: a crossing actor clears well within one.
BLOCKED_TICKS = 60

FAIL_UNKNOWN_GOAL = "unknown goal symbol"
FAIL_UNSOLVABLE = "unsolvable"
FAIL_UNREACHABLE = "unreachable"
FAIL_TIMEOUT = "timeout"


class ScenarioError(ValueError):
    """The scenario file is structurally valid INI but describes no runnable
    mission (missing keys, bad values, inconsistent sections)."""


def data_dir() -> Path:
    """Bundled asset directory, overridable via SEMNAV_DATA_DIR."""
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path(str(resources.files("semnav").joinpath("data")))


def read_utf8(path: Path, what: str, error: type[Exception]) -> str:
    """The text of an input file; error, naming the file as what, when its
    bytes are not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from None


def resolve_input(name: str, base: Path) -> Path:
    """Resolve a scenario-referenced file: absolute as-is, else relative to
    the scenario's directory, else the bundled data directory."""
    raw = Path(name)
    if raw.is_absolute():
        if not raw.exists():
            raise FileNotFoundError(f"input file not found: {raw}")
        return raw
    for candidate in (base / raw, data_dir() / raw):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(
        f"input file '{name}' not found beside the scenario ({base}) "
        f"or in the data directory ({data_dir()})"
    )


# --- scenario file ---

@dataclass(frozen=True)
class Scenario:
    world_path: Path
    behaviors_path: Path
    rules_path: Path
    sensor_spec: SensorSpec
    tier_configs: dict[TierId, TierConfig]
    goal: tuple[Fact, ...]
    start_space: str | None  # None: derive from the robot spawn point
    seed: int
    dt: float
    max_ticks: int
    noise_sigma: float
    resolution: float

    def __post_init__(self) -> None:
        if self.max_ticks <= 0:
            raise ScenarioError("max_ticks must be > 0")
        if not 0 < self.dt < math.inf:
            raise ScenarioError("dt must be a finite number > 0")
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        if not 0 <= self.noise_sigma < math.inf:
            raise ScenarioError("noise_sigma must be a finite number >= 0")
        if not 0 < self.resolution < math.inf:
            raise ScenarioError("resolution must be a finite number > 0")
        if not self.goal:
            raise ScenarioError("mission goal must contain at least one fact")
        for fact in self.goal:
            if not fact.is_ground():
                raise ScenarioError(f"goal fact {format_fact(fact)} is not ground")


_SECTION_KEYS: dict[str, set[str]] = {
    "world": {"path", "behaviors", "rules"},
    "sensors": {"lidar.range", "lidar.fov", "lidar.beams", "semantic.range", "semantic.fov"},
    "tiers": {
        f"{tier}.{knob}"
        for tier in ("stm", "ondemand", "network", "cloud")
        for knob in ("capacity", "latency")
    },
    "mission": {"goal", "start"},
    "sim": {"seed", "dt", "max_ticks", "noise_sigma", "resolution"},
}

_TIER_BY_NAME = {tier.name.lower(): tier for tier in TierId}


def _typed(section: str, key: str, raw: str, kind: type) -> object:
    """raw as an int or a finite float; ScenarioError otherwise."""
    try:
        value = kind(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ScenarioError(
            f"[{section}] {key} must be {'an integer' if kind is int else 'a finite number'}, "
            f"got '{raw}'"
        )
    return value


def _checked(section: str, build: Callable[..., object], **fields: object) -> object:
    """build(**fields), its range checks reported as a ScenarioError of the
    section the fields came from."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {exc}") from None


def _build_sensor_spec(items: dict[str, str]) -> SensorSpec:
    lidar_keys = {k for k in items if k.startswith("lidar.")}
    semantic_keys = {k for k in items if k.startswith("semantic.")}
    lidar = None
    semantic = None
    if lidar_keys:
        missing = {"lidar.range", "lidar.fov", "lidar.beams"} - lidar_keys
        if missing:
            raise ScenarioError(f"[sensors] incomplete lidar block, missing {sorted(missing)}")
        lidar = _checked(
            "sensors",
            Lidar2dSpec,
            range_m=_typed("sensors", "lidar.range", items["lidar.range"], float),
            fov=_typed("sensors", "lidar.fov", items["lidar.fov"], float),
            beam_count=_typed("sensors", "lidar.beams", items["lidar.beams"], int),
        )
    if semantic_keys:
        missing = {"semantic.range", "semantic.fov"} - semantic_keys
        if missing:
            raise ScenarioError(f"[sensors] incomplete semantic block, missing {sorted(missing)}")
        semantic = _checked(
            "sensors",
            Semantic3dSpec,
            range_m=_typed("sensors", "semantic.range", items["semantic.range"], float),
            fov=_typed("sensors", "semantic.fov", items["semantic.fov"], float),
        )
    if lidar is None and semantic is None:
        raise ScenarioError("[sensors] must configure a lidar and/or a semantic sensor")
    return SensorSpec(lidar2d=lidar, semantic3d=semantic)


def _build_tier_configs(items: dict[str, str]) -> dict[TierId, TierConfig]:
    knobs: dict[TierId, dict[str, object]] = {}
    for key, raw in items.items():
        tier_name, _, knob = key.partition(".")
        tier = _TIER_BY_NAME[tier_name]
        if knob == "capacity":
            value: object = None if raw.lower() in ("none", "unbounded") else _typed(
                "tiers", key, raw, int
            )
        else:
            value = _typed("tiers", key, raw, int)
        knobs.setdefault(tier, {})[knob] = value
    configs = {
        tier: _checked(
            "tiers",
            TierConfig,
            capacity=overrides.get("capacity", DEFAULT_CONFIGS[tier].capacity),
            latency=overrides.get("latency", DEFAULT_CONFIGS[tier].latency),
        )
        for tier, overrides in knobs.items()
    }
    return _checked("tiers", merged_configs, overrides=configs)


def load_scenario(path: Path | str) -> Scenario:
    """Parse and validate one scenario file.

    Raises FileNotFoundError for missing files, configparser.Error for
    malformed INI text, and ScenarioError for a file that is not UTF-8 text
    or for valid INI that fails the scenario schema.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scenario file not found: {path}")
    text = read_utf8(path, "scenario file", ScenarioError)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text, source=str(path))

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ScenarioError(f"unknown scenario section [{section}]")
        unknown = set(parser[section]) - _SECTION_KEYS[section]
        if unknown:
            raise ScenarioError(f"unknown key(s) {sorted(unknown)} in [{section}]")
    for required in ("world", "sensors", "mission"):
        if not parser.has_section(required):
            raise ScenarioError(f"scenario is missing the [{required}] section")

    world_section = dict(parser["world"])
    if "path" not in world_section:
        raise ScenarioError("[world] must name a world file via 'path'")
    base = path.parent
    world_path = resolve_input(world_section["path"], base)
    behaviors_path = resolve_input(world_section.get("behaviors", "behaviors.txt"), base)
    rules_path = resolve_input(world_section.get("rules", "rules.txt"), base)

    sensor_spec = _build_sensor_spec(dict(parser["sensors"]))
    tier_configs = _build_tier_configs(dict(parser["tiers"]) if parser.has_section("tiers") else {})

    mission_section = dict(parser["mission"])
    if "goal" not in mission_section:
        raise ScenarioError("[mission] must state a goal")
    try:
        goal = _parse_fact_list(mission_section["goal"])
    except ValueError as exc:
        raise ScenarioError(f"[mission] goal: {exc}") from None

    sim_section = dict(parser["sim"]) if parser.has_section("sim") else {}
    return Scenario(
        world_path=world_path,
        behaviors_path=behaviors_path,
        rules_path=rules_path,
        sensor_spec=sensor_spec,
        tier_configs=tier_configs,
        goal=goal,
        start_space=mission_section.get("start"),
        seed=_typed("sim", "seed", sim_section.get("seed", "0"), int),
        dt=_typed("sim", "dt", sim_section.get("dt", "0.1"), float),
        max_ticks=_typed("sim", "max_ticks", sim_section.get("max_ticks", "2000"), int),
        noise_sigma=_typed("sim", "noise_sigma", sim_section.get("noise_sigma", "0.0"), float),
        resolution=_typed("sim", "resolution", sim_section.get("resolution", "0.1"), float),
    )


# --- report ---

@dataclass(frozen=True)
class MissionReport:
    success: bool
    failure_code: str | None
    goal: str
    start_space: str
    world_name: str
    ticks_used: int
    distance_m: float
    collisions_static: int
    collisions_actor: int
    replan_count: int
    learned_count: int
    written_back: int
    tier_stats: dict[str, dict[str, int]]
    episodes: tuple[dict[str, object], ...]
    trace_digest: str

    def __post_init__(self) -> None:
        counters = (
            self.ticks_used,
            self.collisions_static,
            self.collisions_actor,
            self.replan_count,
            self.learned_count,
            self.written_back,
        )
        if any(c < 0 for c in counters) or self.distance_m < 0:
            raise ValueError("mission report counters must be >= 0")


def report_to_json(report: MissionReport) -> str:
    """Canonical serialization: sorted keys, two-space indent, floats rounded
    to nine decimals, trailing newline."""
    payload = {**vars(report), "distance_m": round(report.distance_m, 9)}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class MissionRun:
    """Full mission artifacts; `report` alone is the public contract, the
    rest exists for exports and tests."""

    report: MissionReport
    scenario: Scenario
    world: WorldDescription
    store: TierStore
    emap: SemanticEpisodicMap | None
    world_state: WorldState | None
    behavior_plan: BehaviorPlan | None


# --- store seeding and symbolic state ---

def seed_store(
    world: WorldDescription,
    templates: list[ActionTemplate],
    configs: dict[TierId, TierConfig] | None = None,
) -> TierStore:
    """Fresh tier store holding the authored world knowledge in the cloud
    tier: one env record per element and one behavior entry per template."""
    store = TierStore(configs)
    for rec in world.all_elements():
        store.put(StoredEntry(key=f"env/{rec.symbol}", payload=rec), TierId.CLOUD)
    for template in templates:
        store.put(StoredEntry(key=f"behavior/{template.name}", payload=template), TierId.CLOUD)
    return store


def initial_facts(store: TierStore, start_space: str) -> frozenset[Fact]:
    """Symbolic mission state from long-term memory: the robot's location,
    every element relation (connectivity symmetrized — corridors carry
    traffic both ways), and all stored knowledge facts."""
    facts = {Fact("at", ("robot", start_space))}
    for entry in store.peek().values():
        if entry.namespace == "env":
            for rel in entry.payload.implicit:
                facts.add(Fact(rel.predicate, (rel.subject, rel.object)))
                if rel.predicate in ("connected", "adjacent"):
                    facts.add(Fact(rel.predicate, (rel.object, rel.subject)))
        elif entry.namespace == "knowledge":
            facts.add(entry.payload)
    return frozenset(facts)


def _goal_symbols(goal: tuple[Fact, ...]) -> list[str]:
    """Environment symbols a goal refers to ('robot' names the agent, not a
    stored element)."""
    symbols: list[str] = []
    for fact in goal:
        for arg in fact.args:
            if arg != "robot" and arg not in symbols:
                symbols.append(arg)
    return symbols


def goal_anchor(goal: tuple[Fact, ...]) -> str:
    """The environment symbol whose prefetch closure seeds map generation:
    the last symbol the goal mentions. Raises UnknownSymbolError when the
    goal names none."""
    symbols = _goal_symbols(goal)
    if not symbols:
        raise UnknownSymbolError("goal names no environment symbol")
    return symbols[-1]


# --- execution engine ---

def _route(dmap: DrivingMap, path: list[tuple[int, int]] | None) -> tuple[list, dict]:
    """A driven path's waypoints and the cells its moves read (path_reads)."""
    return (cells_to_points(dmap, path), path_reads(path)) if path else ([], {})


class MissionEngine:
    """Drives one mission through the sequential pipeline.

    Build it with a loaded scenario, call run() once. Not reusable: all
    mutable mission state lives on the instance. build_map() and plan_task()
    are run()'s first two stages, and a caller may stop after them.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        world = parse_world(read_utf8(scenario.world_path, "world file", WorldSyntaxError))
        errors = [d for d in validate_world(world) if d.severity == "error"]
        if errors:
            raise WorldSemanticError("; ".join(str(d) for d in errors))
        self.world = world
        self.templates = parse_behavior_db(
            read_utf8(scenario.behaviors_path, "behaviors file", ValueError)
        )
        self.rules: list[Rule] = parse_rules(
            read_utf8(scenario.rules_path, "rules file", ValueError)
        )
        self.store = seed_store(world, self.templates, scenario.tier_configs)

        start = scenario.start_space
        spawn_space = world.space_containing(world.robot_spawn.position)
        if start is None:
            if spawn_space is None:
                raise ScenarioError("robot spawn lies in no space; state [mission] start")
            start = spawn_space
        elif world.find(start) is None or not world.find(start).is_space:
            raise ScenarioError(f"[mission] start '{start}' is not a space in this world")
        elif spawn_space is not None and spawn_space != start:
            raise ScenarioError(
                f"[mission] start '{start}' contradicts the robot spawn in '{spawn_space}'"
            )
        self.start_space = start

        self.emap: SemanticEpisodicMap | None = None
        self.ws: WorldState | None = None
        self.dmap: DrivingMap | None = None
        self.behavior_plan: BehaviorPlan | None = None
        # initial_facts only peeks the store: prefetch and map generation
        # leave its result unchanged
        self.state_facts: set[Fact] = set(initial_facts(self.store, start))
        self.distance = 0.0
        self.replans = 0
        self.learned = 0
        # the last tick a lidar scan was folded into the costmap: a leg that
        # starts where the last one ended does not scan that tick again
        self._scanned_tick: int | None = None

    # -- helpers --

    def _episode(self, kind: str, subject: str | None = None) -> None:
        assert self.emap is not None
        if self.ws is None:
            pose = self.world.robot_spawn
            tick = 0
        else:
            pose = self.ws.pose
            tick = self.ws.tick
        append_episode(
            self.emap,
            EpisodeEvent(
                tick=tick,
                kind=kind,
                pose=pose,
                subject=subject,
            ),
        )

    def _step(self, command: tuple[float, float]) -> None:
        self.distance += abs(command[0]) * self.scenario.dt
        step(self.ws, self.scenario.dt, command)

    def _lm_pass(self) -> None:
        """Learning-module pass at an action boundary: observe the semantic
        frame where the robot stands, then extend stored knowledge with the
        inference closure."""
        spec = self.scenario.sensor_spec
        if spec.semantic3d is None or self.emap is None or self.ws is None:
            return
        frame = semantic_detect(self.ws, spec)
        events = detect_novelty(list(frame.detections), self.store, frame.tick)
        closure = infer_facts(self.state_facts, self.rules)
        inferred = closure - self.state_facts
        self.state_facts |= inferred
        self.learned += commit_learned(events, inferred, self.store, self.emap)

    def _apply(self, action: GroundAction) -> None:
        self.state_facts -= action.del_effects
        self.state_facts |= action.add_effects

    def _report(self, success: bool, failure_code: str | None) -> MissionRun:
        written_back = self.store.flush_writeback()
        episodes: tuple[dict[str, object], ...] = ()
        if self.emap is not None:
            episodes = tuple(
                {
                    "kind": e.kind,
                    "pose": [round(e.pose.x, 9), round(e.pose.y, 9), round(e.pose.heading, 9)],
                    "subject": e.subject,
                    "tick": e.tick,
                }
                for e in self.emap.episodic.events
            )
        trace = self.ws.trace if self.ws is not None else []
        report = MissionReport(
            success=success,
            failure_code=failure_code,
            goal=", ".join(format_fact(f) for f in self.scenario.goal),
            start_space=self.start_space,
            world_name=self.world.name,
            ticks_used=self.ws.tick if self.ws is not None else 0,
            distance_m=self.distance,
            collisions_static=self.ws.static_collisions if self.ws is not None else 0,
            collisions_actor=self.ws.actor_collisions if self.ws is not None else 0,
            replan_count=self.replans,
            learned_count=self.learned,
            written_back=written_back,
            tier_stats=self.store.stats.as_dict(),
            episodes=episodes,
            trace_digest=trace_hash(trace),
        )
        return MissionRun(
            report=report,
            scenario=self.scenario,
            world=self.world,
            store=self.store,
            emap=self.emap,
            world_state=self.ws,
            behavior_plan=self.behavior_plan,
        )

    # -- the navigation inner loop --

    def _drive_to(self, destination: str) -> str:
        """Drive the robot to a space centroid. Returns 'ok', 'blocked'
        (no grid route survived a full dynamic-layer lifetime), or
        'timeout'."""
        scenario = self.scenario
        ws, dmap = self.ws, self.dmap
        target = self.world.find(destination)
        goal_cell = dmap.cell_of(target.position())
        goal_point = dmap.center_of(*goal_cell)
        start_cell = dmap.cell_of(ws.pose.position)
        has_lidar = scenario.sensor_spec.lidar2d is not None

        initial = plan_global(dmap, start_cell, goal_cell)
        rs = ReplanState(dmap, start_cell, goal_cell)
        path = None if initial is None else initial[0]
        waypoints, reads = _route(dmap, path)
        stall = 0

        while True:
            if ws.tick >= scenario.max_ticks:
                return "timeout"
            changed: set[tuple[int, int]] = set()
            if has_lidar and ws.tick != self._scanned_tick:
                self._scanned_tick = ws.tick
                scan = lidar_scan(ws, scenario.sensor_spec)
                changed = dmap.update_dynamic_layer(scan)
            if changed:
                # The driven path is kept while its remaining stretch stays
                # drivable. Only once it is blocked, or while the robot has
                # none, does the planner search again from here and swap its
                # path in (a replan counted), so equal-cost extraction flips
                # don't register as replans.
                if path is not None and self._ahead_is_blocked(
                    path, reads, waypoints, ws.pose
                ):
                    self._episode("OBSTACLE_DETECTED")
                    path = None
                if path is None:
                    here = dmap.cell_of(ws.pose.position)
                    new_path = replan_incremental(rs, changed, here)
                    if new_path is not None:
                        self.replans += 1
                        self._episode("REPLAN", subject=destination)
                    path = new_path
                    waypoints, reads = _route(dmap, path)
            if ws.pose.position.distance_to(goal_point) <= GOAL_TOLERANCE:
                return "ok"  # arrived, whatever the costmap momentarily says
            if path is None:
                stall += 1
                if stall > BLOCKED_TICKS:
                    return "blocked"
                self._step((0.0, 0.0))
                continue
            stall = 0
            self._step(follow_step(ws.pose, waypoints))

    def _ahead_is_blocked(
        self, path: list[tuple[int, int]], reads: dict, waypoints: list[Point2], pose: Pose2
    ) -> bool:
        """True when the path's remaining stretch (from the waypoint nearest
        the robot onward) is no longer drivable on the current costmap; reads
        and waypoints are the path's path_reads and cells_to_points.

        path_cost decides, but it is called only when it could say no. A
        driven path was extracted move by move on a snapshot of this costmap,
        and static costs never change, so only a dynamic cell can block one
        of its moves, and only a cell that move reads. So while no cell the
        path's moves read is in the dynamic layer, or each such cell is read
        only by moves before the nearest waypoint, the stretch is drivable.
        """
        dmap = self.dmap
        marked = reads.keys() & dmap.dynamic.keys()
        if not marked:
            return False
        _, nearest = nearest_waypoint(pose.position, waypoints)
        if max(reads[cell] for cell in marked) < nearest:
            return False
        return path_cost(dmap, path[nearest:]) is None

    def _replan_behavior(self, blocked_src: str, blocked_dst: str) -> list[GroundAction] | None:
        """Topology-level replan after a blocked edge: drop the connectivity
        facts for that edge and solve the task again from the current state."""
        self.state_facts.discard(Fact("connected", (blocked_src, blocked_dst)))
        self.state_facts.discard(Fact("connected", (blocked_dst, blocked_src)))
        self.replans += 1
        self._episode("REPLAN", subject=blocked_dst)
        new_plan = self.plan_task()
        return None if new_plan is None else list(new_plan.actions)

    # -- pipeline --

    def check_goal(self) -> None:
        """Raise UnknownSymbolError naming the first goal symbol that no tier
        stores."""
        stored = self.store.keys_anywhere()
        for symbol in _goal_symbols(self.scenario.goal):
            if f"env/{symbol}" not in stored:
                raise UnknownSymbolError(f"unknown goal symbol '{symbol}'")

    def build_map(self) -> SemanticEpisodicMap:
        """Check the goal, prefetch its anchor's knowledge closure and
        generate the map. Raises UnknownSymbolError when the goal names no
        environment symbol or one that no tier stores."""
        self.check_goal()
        scenario = self.scenario
        self.emap = generate_map(
            self.store, scenario.sensor_spec, goal_anchor(scenario.goal), scenario.resolution
        )
        return self.emap

    def plan_task(self) -> BehaviorPlan | None:
        """Solve the task from the current symbolic state over the actions
        grounded on the map; None when no action sequence reaches the goal."""
        mission = Mission(goal=frozenset(self.scenario.goal), start_space=self.start_space)
        grounded = ground_actions(self.templates, self.emap)
        return plan(frozenset(self.state_facts), mission, grounded)

    def run(self) -> MissionRun:
        scenario = self.scenario
        try:
            self.build_map()
        except UnknownSymbolError:
            return self._report(False, FAIL_UNKNOWN_GOAL)
        self._episode("MISSION_START")
        self.behavior_plan = self.plan_task()
        if self.behavior_plan is None:
            return self._report(False, FAIL_UNSOLVABLE)

        self.ws = make_world_state(self.world, scenario.seed, scenario.noise_sigma)
        self.dmap = DrivingMap(self.emap.metric, self.world.robot_radius)

        queue = list(self.behavior_plan.actions)
        while queue:
            action = queue.pop(0)
            args = action.args
            if action.template == "navigate" and len(args) == 2:
                outcome = self._drive_to(args[1])
                if outcome == "timeout":
                    return self._report(False, FAIL_TIMEOUT)
                if outcome == "blocked":
                    replacement = self._replan_behavior(args[0], args[1])
                    if replacement is None:
                        return self._report(False, FAIL_UNREACHABLE)
                    queue = replacement
                    continue
                self._apply(action)
                self._episode("WAYPOINT_REACHED", subject=args[1])
            else:
                self._apply(action)
            self._lm_pass()

        if not self.behavior_plan.actions:
            self._lm_pass()  # trivial mission: still observe the spawn frame
        self._episode("MISSION_COMPLETE")
        return self._report(True, None)


def execute_mission(scenario: Scenario) -> MissionRun:
    """Run one mission and keep every artifact (report, store, map, trace)."""
    return MissionEngine(scenario).run()
