"""Environment ontology and the world-description file format.

Every environment element carries three facets: a symbolic model (how it is
named), an explicit model (what sensors can retrieve: 2D outline and/or a 3D
semantic body plus physical flags), and an implicit model (relations to other
elements). Worlds are loaded from a strict XML subset; unknown tags or
attributes are rejected so the format stays a testable contract.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .geometry import Footprint, Point2, Pose2, point_in_footprint

RELATION_PREDICATES = ("inside", "adjacent", "connected", "at")


class WorldError(Exception):
    """Base class for world-description failures."""


class WorldSyntaxError(WorldError):
    """Malformed XML; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class WorldSchemaError(WorldError):
    """Unknown tag/attribute, missing attribute, or malformed value."""


class WorldSemanticError(WorldError):
    """Structurally valid document that violates world-level rules."""


@dataclass(frozen=True)
class SymbolicModel:
    symbol: str
    class_label: str
    display_name: str = ""
    aliases: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.symbol:
            raise ValueError("symbol must be non-empty")
        if not self.class_label:
            raise ValueError(f"element '{self.symbol}' has empty class label")
        if not self.display_name:
            object.__setattr__(self, "display_name", self.symbol)


@dataclass(frozen=True)
class Model3d:
    height: float
    semantic_class: str

    def __post_init__(self) -> None:
        if not self.height > 0.0:
            raise ValueError(f"3d model height must be > 0, got {self.height}")


@dataclass(frozen=True)
class PhysicalInfo:
    is_static: bool = True
    material_tag: str = "generic"


@dataclass(frozen=True)
class ExplicitModel:
    model2d: Footprint | None = None
    model3d: Model3d | None = None
    physical: PhysicalInfo = PhysicalInfo()

    def __post_init__(self) -> None:
        if self.model2d is None and self.model3d is None:
            raise ValueError("explicit model needs model2d and/or model3d")


@dataclass(frozen=True)
class Relation:
    predicate: str
    subject: str
    object: str

    def __post_init__(self) -> None:
        if self.predicate not in RELATION_PREDICATES:
            raise ValueError(f"unknown relation predicate '{self.predicate}'")


@dataclass(frozen=True)
class ElementRecord:
    symbolic: SymbolicModel
    explicit: ExplicitModel
    implicit: tuple[Relation, ...] = ()
    is_space: bool = False

    @property
    def symbol(self) -> str:
        return self.symbolic.symbol

    def position(self) -> Point2 | None:
        """Reference point: footprint centroid when a 2D model exists."""
        if self.explicit.model2d is not None:
            return self.explicit.model2d.centroid()
        return None


@dataclass(frozen=True)
class ActorScript:
    symbol: str
    class_label: str
    footprint_radius: float
    speed: float
    waypoints: tuple[Point2, ...]

    def __post_init__(self) -> None:
        if self.speed < 0.0:
            raise ValueError(f"actor '{self.symbol}' speed must be >= 0")
        if self.footprint_radius <= 0.0:
            raise ValueError(f"actor '{self.symbol}' radius must be > 0")
        if len(self.waypoints) < 1:
            raise ValueError(f"actor '{self.symbol}' needs at least one waypoint")


@dataclass(frozen=True)
class WorldDescription:
    name: str
    spaces: tuple[ElementRecord, ...]
    elements: tuple[ElementRecord, ...]
    actors: tuple[ActorScript, ...]
    robot_spawn: Pose2
    robot_radius: float

    def all_elements(self) -> tuple[ElementRecord, ...]:
        return self.spaces + self.elements

    def find(self, symbol: str) -> ElementRecord | None:
        for rec in self.all_elements():
            if rec.symbol == symbol:
                return rec
        return None

    def space_containing(self, p: Point2) -> str | None:
        for s in self.spaces:
            if s.explicit.model2d is not None and point_in_footprint(p, s.explicit.model2d):
                return s.symbol
        return None


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    symbol: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.symbol}: {self.message}"


# Allowed tags/attributes of the XML subset; anything else is rejected.
_ELEMENT_CHILDREN = {"symbol", "explicit2d", "explicit3d", "physical", "relation"}
_ATTRS = {
    "world": {"name"},
    "symbol": {"name", "class", "display", "aliases"},
    "explicit2d": set(),
    "footprint": set(),
    "explicit3d": {"height", "semantic"},
    "physical": {"static", "material"},
    "relation": {"pred", "object"},
    "actor": {"id", "class", "speed", "radius"},
    "waypoints": set(),
    "robot": {"spawn", "radius"},
    "space": set(),
    "element": set(),
}


def _check_attrs(node: ET.Element) -> None:
    allowed = _ATTRS.get(node.tag)
    if allowed is None:
        raise WorldSchemaError(f"unknown tag <{node.tag}>")
    for key in node.attrib:
        if key not in allowed:
            raise WorldSchemaError(f"unknown attribute '{key}' on <{node.tag}>")


def _require(node: ET.Element, attr: str) -> str:
    value = node.get(attr)
    if value is None:
        raise WorldSchemaError(f"<{node.tag}> missing required attribute '{attr}'")
    return value


# World numbers are metres, metres per second or radians. No building comes
# near this bound; numbers far past it overflow squares and grid sizes.
MAX_MAGNITUDE = 1e6


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise WorldSchemaError(f"bad number '{text}' in {where}") from None
    if not math.isfinite(value):
        raise WorldSchemaError(f"non-finite number '{text}' in {where}")
    if abs(value) > MAX_MAGNITUDE:
        raise WorldSchemaError(f"number '{text}' in {where} exceeds {MAX_MAGNITUDE:g} in magnitude")
    return value


def _parse_bool(text: str, where: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise WorldSchemaError(f"bad boolean '{text}' in {where} (use true/false)")


def _parse_points(text: str, where: str) -> list[Point2]:
    points = []
    for token in text.split():
        parts = token.split(",")
        if len(parts) != 2:
            raise WorldSchemaError(f"bad point '{token}' in {where} (expected x,y)")
        points.append(Point2(_parse_float(parts[0], where), _parse_float(parts[1], where)))
    return points


def _parse_element_record(node: ET.Element) -> ElementRecord:
    _check_attrs(node)
    symbolic: SymbolicModel | None = None
    model2d: Footprint | None = None
    model3d: Model3d | None = None
    physical = PhysicalInfo()
    relations: list[Relation] = []

    for child in node:
        _check_attrs(child)
        if child.tag not in _ELEMENT_CHILDREN:
            raise WorldSchemaError(f"unexpected <{child.tag}> inside <{node.tag}>")
        if child.tag == "symbol":
            name = _require(child, "name")
            aliases = frozenset((child.get("aliases") or "").split())
            symbolic = SymbolicModel(
                symbol=name,
                class_label=_require(child, "class"),
                display_name=child.get("display") or "",
                aliases=aliases,
            )
        elif child.tag == "explicit2d":
            fp_nodes = list(child)
            if len(fp_nodes) != 1 or fp_nodes[0].tag != "footprint":
                raise WorldSchemaError("<explicit2d> must contain exactly one <footprint>")
            _check_attrs(fp_nodes[0])
            pts = _parse_points(fp_nodes[0].text or "", "<footprint>")
            try:
                model2d = Footprint(tuple(pts))
            except ValueError as exc:
                raise WorldSchemaError(str(exc)) from None
        elif child.tag == "explicit3d":
            height = _parse_float(_require(child, "height"), "<explicit3d>")
            try:
                model3d = Model3d(height=height, semantic_class=_require(child, "semantic"))
            except ValueError as exc:
                raise WorldSchemaError(str(exc)) from None
        elif child.tag == "physical":
            physical = PhysicalInfo(
                is_static=_parse_bool(_require(child, "static"), "<physical>"),
                material_tag=child.get("material") or "generic",
            )
        elif child.tag == "relation":
            pred = _require(child, "pred")
            if pred not in RELATION_PREDICATES:
                raise WorldSchemaError(f"unknown relation predicate '{pred}'")
            relations.append(Relation(pred, subject="", object=_require(child, "object")))

    if symbolic is None:
        raise WorldSchemaError(f"<{node.tag}> is missing its <symbol> child")
    try:
        explicit = ExplicitModel(model2d=model2d, model3d=model3d, physical=physical)
    except ValueError as exc:
        raise WorldSchemaError(f"element '{symbolic.symbol}': {exc}") from None
    bound = tuple(Relation(r.predicate, symbolic.symbol, r.object) for r in relations)
    return ElementRecord(
        symbolic=symbolic, explicit=explicit, implicit=bound, is_space=node.tag == "space"
    )


def parse_world(text: str) -> WorldDescription:
    """Parse a world-description document (strict XML subset)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise WorldSyntaxError(str(exc.msg if hasattr(exc, "msg") else exc), line, column) from None

    if root.tag != "world":
        raise WorldSchemaError(f"root tag must be <world>, got <{root.tag}>")
    _check_attrs(root)
    name = _require(root, "name")

    spaces: list[ElementRecord] = []
    elements: list[ElementRecord] = []
    actors: list[ActorScript] = []
    robot_spawn: Pose2 | None = None
    robot_radius: float | None = None

    for child in root:
        if child.tag in ("space", "element"):
            record = _parse_element_record(child)
            (spaces if child.tag == "space" else elements).append(record)
        elif child.tag == "actor":
            _check_attrs(child)
            wp_nodes = list(child)
            if len(wp_nodes) != 1 or wp_nodes[0].tag != "waypoints":
                raise WorldSchemaError("<actor> must contain exactly one <waypoints>")
            _check_attrs(wp_nodes[0])
            waypoints = _parse_points(wp_nodes[0].text or "", "<waypoints>")
            try:
                actors.append(
                    ActorScript(
                        symbol=_require(child, "id"),
                        class_label=_require(child, "class"),
                        footprint_radius=_parse_float(_require(child, "radius"), "<actor>"),
                        speed=_parse_float(_require(child, "speed"), "<actor>"),
                        waypoints=tuple(waypoints),
                    )
                )
            except ValueError as exc:
                raise WorldSchemaError(str(exc)) from None
        elif child.tag == "robot":
            _check_attrs(child)
            if robot_spawn is not None:
                raise WorldSchemaError("duplicate <robot> tag")
            parts = _require(child, "spawn").split()
            if len(parts) != 3:
                raise WorldSchemaError("<robot spawn> must be 'x y theta'")
            robot_spawn = Pose2(
                _parse_float(parts[0], "<robot>"),
                _parse_float(parts[1], "<robot>"),
                _parse_float(parts[2], "<robot>"),
            )
            robot_radius = _parse_float(_require(child, "radius"), "<robot>")
        else:
            raise WorldSchemaError(f"unknown tag <{child.tag}> under <world>")

    if robot_spawn is None or robot_radius is None:
        raise WorldSchemaError("world is missing its <robot> tag")

    seen: set[str] = set()
    for symbol in [r.symbol for r in spaces + elements] + [a.symbol for a in actors]:
        if symbol in seen:
            raise WorldSemanticError(f"duplicate symbol '{symbol}'")
        seen.add(symbol)

    return WorldDescription(
        name=name,
        spaces=tuple(spaces),
        elements=tuple(elements),
        actors=tuple(actors),
        robot_spawn=robot_spawn,
        robot_radius=robot_radius,
    )


def validate_world(world: WorldDescription) -> list[Diagnostic]:
    """Check world invariants; empty result means the world is clean."""
    diags: list[Diagnostic] = []
    known = {r.symbol for r in world.all_elements()} | {a.symbol for a in world.actors}

    for rec in world.all_elements():
        fp = rec.explicit.model2d
        if fp is not None:
            area = fp.signed_area()
            if abs(area) < 1e-12:
                diags.append(Diagnostic("error", rec.symbol, "footprint has zero area"))
            elif area < 0.0:
                diags.append(Diagnostic("error", rec.symbol, "footprint not counter-clockwise"))
            elif not fp.is_simple():
                diags.append(Diagnostic("error", rec.symbol, "footprint self-intersects"))
        for rel in rec.implicit:
            if rel.subject == rel.object:
                diags.append(
                    Diagnostic("error", rec.symbol, f"relation {rel.predicate} relates symbol to itself")
                )
            elif rel.object not in known:
                diags.append(
                    Diagnostic(
                        "warning",
                        rec.symbol,
                        f"dangling relation object '{rel.object}' ({rel.predicate})",
                    )
                )

    for space in world.spaces:
        if space.explicit.model2d is None:
            diags.append(Diagnostic("error", space.symbol, "space has no 2D footprint"))

    spawn_point = world.robot_spawn.position
    for rec in world.elements:
        fp = rec.explicit.model2d
        if fp is not None and rec.explicit.physical.is_static and point_in_footprint(spawn_point, fp):
            diags.append(
                Diagnostic("error", "robot", f"spawn lies inside static element '{rec.symbol}'")
            )
    if world.spaces and world.space_containing(spawn_point) is None:
        diags.append(Diagnostic("warning", "robot", "spawn is not inside any declared space"))

    return diags
