"""Behavior planner: database parsing, grounding, optimal search, plan
validation. Optimality and tie-breaking are checked against the exhaustive
oracles in oracles.py."""

from __future__ import annotations

import random

import pytest

from semnav.planner import (
    ActionTemplate,
    BehaviorPlan,
    Fact,
    GroundAction,
    Mission,
    format_fact,
    ground_actions,
    parse_action_template,
    parse_behavior_db,
    parse_fact,
    plan,
)

from oracles import enumerate_optimal_plans, optimal_plan_cost, replay_plan, validate_plan

DB = """
action navigate(?from:space, ?to:space)
pre: at(robot,?from), connected(?from,?to)
add: at(robot,?to)
del: at(robot,?from)
cost: topo_distance(?from,?to)

action inspect(?b:booth, ?s:space)
pre: at(robot,?s), inside(?b,?s)
add: inspected(?b)
del:
cost: 1
"""


class ChainMap3:
    """Three spaces in a line with one booth, mirroring the demo layout."""

    def symbol_classes(self):
        return {
            "lobby": "space",
            "hall_a": "space",
            "hall_b": "space",
            "booth_2": "booth",
        }

    def topo_distance(self, a, b):
        direct = {
            frozenset(("lobby", "hall_a")): 10.0,
            frozenset(("hall_a", "hall_b")): 12.0,
            frozenset(("lobby", "hall_b")): 22.0,
        }
        return direct.get(frozenset((a, b)))


def chain_initial_facts():
    return [
        parse_fact(t)
        for t in (
            "at(robot,lobby)",
            "connected(lobby,hall_a)",
            "connected(hall_a,lobby)",
            "connected(hall_a,hall_b)",
            "connected(hall_b,hall_a)",
            "inside(booth_2,hall_a)",
        )
    ]


class TestFactFormat:
    def test_round_trip(self):
        for text in ("at(robot,lobby)", "inspected(booth_2)", "flag()"):
            assert format_fact(parse_fact(text)) == text

    def test_whitespace_tolerated(self):
        assert parse_fact(" at( robot , lobby ) ") == Fact("at", ("robot", "lobby"))

    def test_bad_facts_rejected(self):
        for text in ("at robot", "at(robot", "9at(x)", "at(ro bot)"):
            with pytest.raises(ValueError):
                parse_fact(text)


class TestTemplateFormat:
    def test_round_trip(self):
        # DB's text parses back to exactly the templates it spells out
        expected = [
            ActionTemplate(
                name="navigate",
                params=(("?from", "space"), ("?to", "space")),
                preconditions=frozenset(
                    {Fact("at", ("robot", "?from")), Fact("connected", ("?from", "?to"))}
                ),
                add_effects=frozenset({Fact("at", ("robot", "?to"))}),
                del_effects=frozenset({Fact("at", ("robot", "?from"))}),
                cost_spec=("topo_distance", "?from", "?to"),
            ),
            ActionTemplate(
                name="inspect",
                params=(("?b", "booth"), ("?s", "space")),
                preconditions=frozenset(
                    {Fact("at", ("robot", "?s")), Fact("inside", ("?b", "?s"))}
                ),
                add_effects=frozenset({Fact("inspected", ("?b",))}),
                del_effects=frozenset(),
                cost_spec=1.0,
            ),
        ]
        templates = parse_behavior_db(DB)
        assert [t.name for t in templates] == [t.name for t in expected]
        for got, want in zip(templates, expected):
            for field in ("params", "preconditions", "add_effects", "del_effects", "cost_spec"):
                assert getattr(got, field) == getattr(want, field), (want.name, field)
        assert isinstance(templates[1].cost_spec, float)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n" + DB + "\n# trailer\n"
        assert parse_behavior_db(text) == parse_behavior_db(DB)

    def test_missing_cost_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            parse_action_template("action go(?a:space)\npre: at(robot,?a)\nadd: done()")

    def test_undeclared_effect_variable_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            parse_action_template(
                "action go(?a:space)\npre: at(robot,?a)\nadd: at(robot,?b)\ncost: 1"
            )

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            parse_action_template("action z(?a:space)\npre:\nadd: f(?a)\ncost: 0")

    def test_topo_cost_with_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            parse_action_template(
                "action go(?a:space)\npre:\nadd: f(?a)\ncost: topo_distance(?a,?b)"
            )


class TestGrounding:
    def test_navigate_over_three_spaces_gives_six(self):
        grounded = ground_actions(parse_behavior_db(DB), ChainMap3())
        names = sorted(g.name for g in grounded if g.name.startswith("navigate"))
        assert len(names) == 6
        assert "navigate(lobby,lobby)" not in names

    def test_zero_templates(self):
        assert ground_actions([], ChainMap3()) == []

    def test_unknown_class_skipped(self, caplog):
        template = parse_action_template(
            "action fly(?d:drone)\npre:\nadd: airborne(?d)\ncost: 1"
        )
        with caplog.at_level("WARNING"):
            assert ground_actions([template], ChainMap3()) == []
        assert "drone" in caplog.text

    def test_topo_cost_resolution(self):
        grounded = ground_actions(parse_behavior_db(DB), ChainMap3())
        costs = {g.name: g.cost for g in grounded}
        assert costs["navigate(lobby,hall_a)"] == 10.0
        assert costs["navigate(lobby,hall_b)"] == 22.0

    def test_inspect_grounds_per_booth_space_pair(self):
        grounded = ground_actions(parse_behavior_db(DB), ChainMap3())
        inspects = [g.name for g in grounded if g.name.startswith("inspect")]
        assert sorted(inspects) == [
            "inspect(booth_2,hall_a)",
            "inspect(booth_2,hall_b)",
            "inspect(booth_2,lobby)",
        ]


class TestGroundActionNames:
    def test_name_is_the_template_applied_to_its_args(self):
        db = DB + """
action wait(?s:space)
pre: at(robot,?s)
add: waited(?s)
cost: 0.5

action reset()
pre:
add: ready()
cost: 2
"""
        grounded = ground_actions(parse_behavior_db(db), ChainMap3())
        assert {len(a.args) for a in grounded} == {0, 1, 2}
        for action in grounded:
            assert action.name == f"{action.template}({','.join(action.args)})"
        names = [a.name for a in grounded]
        assert "reset()" in names and "wait(hall_a)" in names and "navigate(lobby,hall_a)" in names

    def test_name_is_derived_not_passed(self):
        action = GroundAction(
            template="navigate",
            args=("lobby", "hall_a"),
            preconditions=frozenset(),
            add_effects=frozenset(),
            del_effects=frozenset(),
            cost=1.0,
        )
        assert action.name == "navigate(lobby,hall_a)"
        with pytest.raises(TypeError):
            GroundAction(name="navigate(lobby,hall_a)", preconditions=frozenset(),
                         add_effects=frozenset(), del_effects=frozenset(), cost=1.0)


class TestPlan:
    def test_goal_already_satisfied(self):
        grounded = ground_actions(parse_behavior_db(DB), ChainMap3())
        mission = Mission(goal=frozenset({parse_fact("at(robot,lobby)")}), start_space="lobby")
        result = plan(chain_initial_facts(), mission, grounded)
        assert result == BehaviorPlan(actions=(), total_cost=0.0)

    def test_chain_traversal_cost(self):
        grounded = ground_actions(parse_behavior_db(DB), ChainMap3())
        mission = Mission(goal=frozenset({parse_fact("at(robot,hall_b)")}), start_space="lobby")
        result = plan(chain_initial_facts(), mission, grounded)
        assert [a.name for a in result.actions] == [
            "navigate(lobby,hall_a)",
            "navigate(hall_a,hall_b)",
        ]
        assert result.total_cost == 22.0

    def test_inspect_requires_co_location(self):
        grounded = ground_actions(parse_behavior_db(DB), ChainMap3())
        mission = Mission(goal=frozenset({parse_fact("inspected(booth_2)")}), start_space="lobby")
        result = plan(chain_initial_facts(), mission, grounded)
        assert [a.name for a in result.actions] == [
            "navigate(lobby,hall_a)",
            "inspect(booth_2,hall_a)",
        ]
        ok, why = validate_plan(chain_initial_facts(), result, mission.goal)
        assert ok, why

    def test_unsolvable_returns_none(self):
        grounded = ground_actions(parse_behavior_db(DB), ChainMap3())
        mission = Mission(goal=frozenset({parse_fact("at(robot,moon)")}), start_space="lobby")
        assert plan(chain_initial_facts(), mission, grounded) is None

    def test_deterministic_under_input_shuffle(self):
        grounded = ground_actions(parse_behavior_db(DB), ChainMap3())
        mission = Mission(goal=frozenset({parse_fact("inspected(booth_2)")}), start_space="lobby")
        reference = plan(chain_initial_facts(), mission, grounded)
        rng = random.Random(3)
        for _ in range(10):
            shuffled = list(grounded)
            rng.shuffle(shuffled)
            assert plan(chain_initial_facts(), mission, shuffled) == reference

    def test_repeated_action_name_raises(self):
        # the plan is read back from action names, so a name must name one action
        grounded = ground_actions(parse_behavior_db(DB), ChainMap3())
        mission = Mission(goal=frozenset({parse_fact("at(robot,hall_b)")}), start_space="lobby")
        with pytest.raises(ValueError, match="unique"):
            plan(chain_initial_facts(), mission, grounded + grounded[:1])


class TestValidatePlan:
    def test_swapped_steps_reports_first_violation(self):
        grounded = {g.name: g for g in ground_actions(parse_behavior_db(DB), ChainMap3())}
        bad = BehaviorPlan(
            actions=(grounded["navigate(hall_a,hall_b)"], grounded["navigate(lobby,hall_a)"]),
            total_cost=22.0,
        )
        ok, why = validate_plan(
            chain_initial_facts(), bad, {parse_fact("at(robot,hall_b)")}
        )
        assert not ok
        assert why.startswith("step 0 navigate(hall_a,hall_b)")

    def test_agrees_with_replay_oracle_on_random_shuffles(self):
        grounded = ground_actions(parse_behavior_db(DB), ChainMap3())
        rng = random.Random(11)
        goal = {parse_fact("inspected(booth_2)")}
        for _ in range(200):
            sequence = tuple(rng.choice(grounded) for _ in range(rng.randint(0, 4)))
            candidate = BehaviorPlan(actions=sequence, total_cost=0.0)
            ok, _why = validate_plan(chain_initial_facts(), candidate, goal)
            expected_ok, _i = replay_plan(chain_initial_facts(), sequence, goal)
            assert ok == expected_ok


def random_domain(rng: random.Random, n_facts: int, n_actions: int):
    facts = [Fact(f"f{i}", ()) for i in range(n_facts)]
    actions = []
    for i in range(n_actions):
        pre = frozenset(rng.sample(facts, rng.randint(0, min(2, n_facts))))
        add_pool = [f for f in facts]
        add = frozenset(rng.sample(add_pool, rng.randint(1, min(2, n_facts))))
        del_pool = [f for f in facts if f not in add]
        dele = frozenset(rng.sample(del_pool, rng.randint(0, min(2, len(del_pool)))))
        actions.append(
            GroundAction(
                template=f"act_{i:02d}",
                args=(),
                preconditions=pre,
                add_effects=add,
                del_effects=dele,
                cost=float(rng.randint(1, 5)),
            )
        )
    initial = frozenset(rng.sample(facts, rng.randint(0, n_facts // 2)))
    goal = frozenset(rng.sample(facts, rng.randint(1, min(3, n_facts))))
    return initial, goal, actions


class TestOptimalityAgainstOracle:
    def test_random_domains_match_value_iteration(self):
        rng = random.Random(42)
        solvable = 0
        for _ in range(120):
            initial, goal, actions = random_domain(rng, rng.randint(3, 8), rng.randint(2, 12))
            mission = Mission(goal=goal, start_space="s")
            result = plan(initial, mission, actions)
            expected = optimal_plan_cost(initial, goal, actions)
            if expected is None:
                assert result is None
            else:
                solvable += 1
                assert result is not None
                assert result.total_cost == expected
                ok, why = validate_plan(initial, result, goal)
                assert ok, why
        assert solvable > 30  # the generator should produce plenty of solvable cases

    def test_tie_break_is_lexicographically_smallest(self):
        rng = random.Random(7)
        checked = 0
        while checked < 40:
            initial, goal, actions = random_domain(rng, rng.randint(3, 5), rng.randint(2, 6))
            expected = optimal_plan_cost(initial, goal, actions)
            if expected is None or expected > 12:
                continue
            result = plan(initial, Mission(goal=goal, start_space="s"), actions)
            all_optimal = enumerate_optimal_plans(initial, goal, actions, expected)
            assert tuple(a.name for a in result.actions) == min(all_optimal)
            checked += 1

    def test_heuristic_is_admissible_everywhere(self):
        # expose the heuristic indirectly: for every reachable state, the
        # cost plan() reports from that state must never undercut the oracle
        rng = random.Random(13)
        for _ in range(25):
            initial, goal, actions = random_domain(rng, rng.randint(3, 6), rng.randint(2, 8))
            from oracles import reachable_states

            states = sorted(
                reachable_states(initial, actions),
                key=lambda s: tuple(sorted(format_fact(f) for f in s)),
            )
            for state in states:
                expected = optimal_plan_cost(state, goal, actions)
                result = plan(state, Mission(goal=goal, start_space="s"), actions)
                if expected is None:
                    assert result is None
                else:
                    assert result.total_cost == expected
