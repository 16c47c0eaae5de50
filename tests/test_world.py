"""World-description parsing, validation, and canonical serialization."""

from __future__ import annotations

import pytest

from semnav.geometry import Point2
from semnav.world import (
    Diagnostic,
    ElementRecord,
    ExplicitModel,
    Model3d,
    PhysicalInfo,
    Relation,
    SymbolicModel,
    WorldDescription,
    WorldSchemaError,
    WorldSemanticError,
    WorldSyntaxError,
    parse_world,
    validate_world,
)


def _fmt(value: float) -> str:
    return repr(float(value))


def serialize_element(rec: ElementRecord) -> str:
    """One-line canonical <space>/<element> fragment."""
    tag = "space" if rec.is_space else "element"
    sym = rec.symbolic
    attrs = f'name="{sym.symbol}" class="{sym.class_label}"'
    if sym.display_name != sym.symbol:
        attrs += f' display="{sym.display_name}"'
    if sym.aliases:
        attrs += f' aliases="{" ".join(sorted(sym.aliases))}"'
    out = [f"<{tag}>", f"<symbol {attrs}/>"]
    if rec.explicit.model2d is not None:
        pts = " ".join(f"{_fmt(p.x)},{_fmt(p.y)}" for p in rec.explicit.model2d.vertices)
        out.append(f"<explicit2d><footprint>{pts}</footprint></explicit2d>")
    if rec.explicit.model3d is not None:
        m3 = rec.explicit.model3d
        out.append(f'<explicit3d height="{_fmt(m3.height)}" semantic="{m3.semantic_class}"/>')
    phys = rec.explicit.physical
    out.append(
        f'<physical static="{"true" if phys.is_static else "false"}" material="{phys.material_tag}"/>'
    )
    for rel in rec.implicit:
        out.append(f'<relation pred="{rel.predicate}" object="{rel.object}"/>')
    out.append(f"</{tag}>")
    return "".join(out)


def serialize_world(world: WorldDescription) -> str:
    """Canonical document text; parse_world(serialize_world(w)) == w."""
    out: list[str] = [f'<world name="{world.name}">']
    for record in world.all_elements():
        out.append("  " + serialize_element(record))
    for actor in world.actors:
        out.append(
            f'  <actor id="{actor.symbol}" class="{actor.class_label}" '
            f'speed="{_fmt(actor.speed)}" radius="{_fmt(actor.footprint_radius)}">'
        )
        pts = " ".join(f"{_fmt(p.x)},{_fmt(p.y)}" for p in actor.waypoints)
        out.append(f"    <waypoints>{pts}</waypoints>")
        out.append("  </actor>")
    spawn = world.robot_spawn
    out.append(
        f'  <robot spawn="{_fmt(spawn.x)} {_fmt(spawn.y)} {_fmt(spawn.heading)}" '
        f'radius="{_fmt(world.robot_radius)}"/>'
    )
    out.append("</world>")
    return "\n".join(out) + "\n"


MINIMAL = """
<world name="tiny">
  <space>
    <symbol name="room_a" class="space"/>
    <explicit2d><footprint>0,0 4,0 4,4 0,4</footprint></explicit2d>
  </space>
  <robot spawn="1 1 0" radius="0.2"/>
</world>
"""

FULL = """
<world name="office">
  <space>
    <symbol name="room_a" class="space" display="Room A" aliases="lab alpha"/>
    <explicit2d><footprint>0,0 6,0 6,4 0,4</footprint></explicit2d>
    <relation pred="connected" object="room_b"/>
  </space>
  <space>
    <symbol name="room_b" class="space"/>
    <explicit2d><footprint>6,0 12,0 12,4 6,4</footprint></explicit2d>
    <relation pred="connected" object="room_a"/>
    <relation pred="adjacent" object="room_a"/>
  </space>
  <element>
    <symbol name="desk_1" class="desk"/>
    <explicit2d><footprint>1,1 2,1 2,2 1,2</footprint></explicit2d>
    <explicit3d height="0.75" semantic="desk"/>
    <physical static="true" material="wood"/>
    <relation pred="inside" object="room_a"/>
  </element>
  <element>
    <symbol name="poster_1" class="poster"/>
    <explicit3d height="1.2" semantic="poster"/>
    <physical static="true" material="paper"/>
    <relation pred="inside" object="room_b"/>
  </element>
  <actor id="visitor_1" class="person" speed="0.6" radius="0.2">
    <waypoints>7,1 11,3</waypoints>
  </actor>
  <robot spawn="3 2 1.5707963267948966" radius="0.25"/>
</world>
"""


class TestParse:
    def test_minimal_world(self):
        world = parse_world(MINIMAL)
        assert world.name == "tiny"
        assert [s.symbol for s in world.spaces] == ["room_a"]
        assert world.robot_radius == 0.2
        assert world.robot_spawn.position == Point2(1.0, 1.0)

    def test_full_world_fields(self):
        world = parse_world(FULL)
        assert {s.symbol for s in world.spaces} == {"room_a", "room_b"}
        assert [e.symbol for e in world.elements] == ["desk_1", "poster_1"]
        room_a = world.find("room_a")
        assert room_a.symbolic.display_name == "Room A"
        assert room_a.symbolic.aliases == frozenset({"lab", "alpha"})
        desk = world.find("desk_1")
        assert desk.explicit.model3d.height == 0.75
        assert desk.explicit.physical.material_tag == "wood"
        assert desk.implicit == (Relation("inside", "desk_1", "room_a"),)
        poster = world.find("poster_1")
        assert poster.explicit.model2d is None
        assert poster.position() is None
        actor = world.actors[0]
        assert actor.symbol == "visitor_1"
        assert actor.waypoints == (Point2(7, 1), Point2(11, 3))

    def test_relations_bound_to_enclosing_symbol(self):
        world = parse_world(FULL)
        rels = [rel for rec in world.all_elements() for rel in rec.implicit]
        assert Relation("connected", "room_a", "room_b") in rels
        assert Relation("adjacent", "room_b", "room_a") in rels

    def test_space_containing(self):
        world = parse_world(FULL)
        assert world.space_containing(Point2(1, 1)) == "room_a"
        assert world.space_containing(Point2(7, 1)) == "room_b"
        assert world.space_containing(Point2(20, 20)) is None

    def test_syntax_error_carries_position(self):
        with pytest.raises(WorldSyntaxError) as err:
            parse_world("<world name='x'>\n  <space>\n</world>")
        assert err.value.line is not None

    def test_unknown_tag_rejected(self):
        bad = MINIMAL.replace("<robot", "<gizmo foo='1'/><robot")
        with pytest.raises(WorldSchemaError, match="gizmo"):
            parse_world(bad)

    def test_unknown_attribute_rejected(self):
        bad = MINIMAL.replace('name="room_a"', 'name="room_a" color="red"')
        with pytest.raises(WorldSchemaError, match="color"):
            parse_world(bad)

    def test_missing_robot_rejected(self):
        bad = MINIMAL.replace('<robot spawn="1 1 0" radius="0.2"/>', "")
        with pytest.raises(WorldSchemaError, match="robot"):
            parse_world(bad)

    def test_duplicate_symbol_rejected(self):
        dup = MINIMAL.replace(
            "<robot",
            '<element><symbol name="room_a" class="desk"/>'
            "<explicit2d><footprint>1,1 2,1 2,2</footprint></explicit2d></element><robot",
        )
        with pytest.raises(WorldSemanticError, match="room_a"):
            parse_world(dup)

    def test_bad_number_rejected(self):
        bad = MINIMAL.replace('radius="0.2"', 'radius="fast"')
        with pytest.raises(WorldSchemaError, match="fast"):
            parse_world(bad)

    def test_number_beyond_the_magnitude_bound_rejected(self):
        # a 1e308 vertex once overflowed the geometry's squares with a traceback
        assert parse_world(MINIMAL.replace('radius="0.2"', 'radius="1e6"')).robot_radius == 1e6
        bad = MINIMAL.replace('radius="0.2"', 'radius="1e308"')
        with pytest.raises(WorldSchemaError, match="1e308"):
            parse_world(bad)

    def test_element_needs_some_explicit_model(self):
        bad = MINIMAL.replace(
            "<robot",
            '<element><symbol name="ghost" class="ghost"/></element><robot',
        )
        with pytest.raises(WorldSchemaError, match="model2d and/or model3d"):
            parse_world(bad)

    def test_nonpositive_height_rejected(self):
        bad = FULL.replace('height="0.75"', 'height="0"')
        with pytest.raises(WorldSchemaError, match="height"):
            parse_world(bad)

    def test_actor_without_waypoints_rejected(self):
        bad = FULL.replace("<waypoints>7,1 11,3</waypoints>", "<waypoints></waypoints>")
        with pytest.raises(WorldSchemaError, match="waypoint"):
            parse_world(bad)


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        world = parse_world(FULL)
        again = parse_world(serialize_world(world))
        assert again == world

    def test_serialization_is_stable(self):
        world = parse_world(FULL)
        text = serialize_world(world)
        assert serialize_world(parse_world(text)) == text


class TestValidate:
    def test_clean_world_has_no_diagnostics(self):
        assert validate_world(parse_world(FULL)) == []

    def test_clockwise_footprint_is_error(self):
        bad = FULL.replace("1,1 2,1 2,2 1,2", "1,1 1,2 2,2 2,1")
        diags = validate_world(parse_world(bad))
        assert any(d.severity == "error" and "counter-clockwise" in d.message for d in diags)
        assert any(d.symbol == "desk_1" for d in diags)

    def test_dangling_relation_is_warning(self):
        bad = FULL.replace('object="room_b"/>', 'object="room_z"/>', 1)
        diags = validate_world(parse_world(bad))
        assert [d.severity for d in diags] == ["warning"]
        assert "room_z" in diags[0].message

    def test_self_relation_is_error(self):
        bad = FULL.replace(
            '<relation pred="inside" object="room_a"/>',
            '<relation pred="inside" object="desk_1"/>',
        )
        diags = validate_world(parse_world(bad))
        assert any(d.severity == "error" and "itself" in d.message for d in diags)

    def test_spawn_inside_static_element_is_error(self):
        bad = FULL.replace('spawn="3 2 1.5707963267948966"', 'spawn="1.5 1.5 0"')
        diags = validate_world(parse_world(bad))
        assert any(d.severity == "error" and "spawn" in d.message for d in diags)

    def test_spawn_outside_spaces_is_warning(self):
        bad = FULL.replace('spawn="3 2 1.5707963267948966"', 'spawn="20 20 0"')
        diags = validate_world(parse_world(bad))
        assert any(d.severity == "warning" and "space" in d.message for d in diags)

    def test_zero_area_footprint_is_error(self):
        world = parse_world(FULL)
        flat = ElementRecord(
            symbolic=SymbolicModel("flat_1", "debris"),
            explicit=ExplicitModel(
                model2d=__import__("semnav.geometry", fromlist=["Footprint"]).Footprint(
                    (Point2(0, 0), Point2(1, 0), Point2(2, 0))
                )
            ),
        )
        patched = type(world)(
            name=world.name,
            spaces=world.spaces,
            elements=world.elements + (flat,),
            actors=world.actors,
            robot_spawn=world.robot_spawn,
            robot_radius=world.robot_radius,
        )
        diags = validate_world(patched)
        assert any(d.symbol == "flat_1" and "zero area" in d.message for d in diags)


class TestModelTypes:
    def test_symbolic_defaults_display_to_symbol(self):
        sym = SymbolicModel("door_1", "door")
        assert sym.display_name == "door_1"

    def test_relation_rejects_unknown_predicate(self):
        with pytest.raises(ValueError):
            Relation("behind", "a", "b")

    def test_physical_defaults(self):
        phys = PhysicalInfo()
        assert phys.is_static and phys.material_tag == "generic"

    def test_model3d_requires_positive_height(self):
        with pytest.raises(ValueError):
            Model3d(height=-1.0, semantic_class="box")

    def test_diagnostic_str(self):
        d = Diagnostic("warning", "desk_1", "message")
        assert str(d) == "[warning] desk_1: message"
