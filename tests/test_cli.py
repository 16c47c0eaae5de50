"""Command-line interface: output formats, artifact files, and the
exit-code contract (0 ok, 1 domain failure, 2 usage/IO error)."""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semnav import cli, mapgen, navigation
from semnav.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from semnav.mission import data_dir, execute_mission, load_scenario

DEMO_WORLD = str(data_dir() / "convention_center.world")
DEMO_SCENARIO = str(data_dir() / "demo.scenario")
TOUR_SCENARIO = str(Path(__file__).parents[1] / "missionbench" / "scenarios" / "tour.scenario")

DUPLICATE_WORLD = """
<world name="dup">
  <space>
    <symbol name="room_x" class="space"/>
    <explicit2d><footprint>0,0 4,0 4,4 0,4</footprint></explicit2d>
  </space>
  <space>
    <symbol name="room_x" class="space"/>
    <explicit2d><footprint>4,0 8,0 8,4 4,4</footprint></explicit2d>
  </space>
  <robot spawn="2 2 0" radius="0.25"/>
</world>
"""


def make_scenario(tmp_path: Path, *, goal="at(robot,hall_b)", semantic=True,
                  noise="0.0", beams=181, name="case.scenario") -> str:
    semantic_block = "semantic.range = 5.0\nsemantic.fov = 1.2\n" if semantic else ""
    path = tmp_path / name
    path.write_text(
        "[world]\npath = convention_center.world\n\n"
        f"[sensors]\nlidar.range = 6.0\nlidar.fov = 3.141592653589793\nlidar.beams = {beams}\n"
        f"{semantic_block}\n"
        f"[mission]\ngoal = {goal}\nstart = lobby\n\n"
        "[sim]\nseed = 7\ndt = 0.1\nmax_ticks = 2200\n"
        f"noise_sigma = {noise}\n"
    )
    return str(path)


# --- parse ---

def test_parse_reports_world_inventory(capsys):
    assert main(["parse", DEMO_WORLD]) == EXIT_OK
    out = capsys.readouterr().out
    assert "world 'convention_center': 3 spaces, 14 elements, 5 actors" in out


def test_parse_missing_file_is_usage_error(capsys):
    assert main(["parse", "/no/such.world"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_parse_duplicate_symbol_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "dup.world"
    bad.write_text(DUPLICATE_WORLD)
    assert main(["parse", str(bad)]) == EXIT_DOMAIN
    assert "duplicate symbol" in capsys.readouterr().out


# --- genmap ---

def test_genmap_writes_three_artifacts(tmp_path, capsys):
    out = tmp_path / "map"
    assert main(["genmap", DEMO_SCENARIO, "-o", str(out)]) == EXIT_OK
    assert (out / "map.pgm").exists()
    assert (out / "map.meta").exists()
    assert (out / "layers.txt").exists()
    assert "map 160x80" in capsys.readouterr().out
    first = {n: (out / n).read_bytes() for n in ("map.pgm", "map.meta", "layers.txt")}
    assert main(["genmap", DEMO_SCENARIO, "-o", str(out)]) == EXIT_OK
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob  # regeneration is exact


# sha256 of each genmap artifact; the metric layer's bytes and the
# per-footprint cell counts in layers.txt appear in no mission report
GENMAP_SHA256 = {
    "demo": {
        "map.pgm": "76330e302d41f1f44327a6bc05da0298d96adb643d5b6e4ece9e8a2941eb0d54",
        "map.meta": "262f3283be475fd579298d85fe5506ec2a70474543df4951320f06182c05b65e",
        "layers.txt": "9171896d5ea422df809df15bbd14e635534b9255e9a5742ebeecfb65a8db23ee",
    },
    "2d_only": {
        "map.pgm": "76330e302d41f1f44327a6bc05da0298d96adb643d5b6e4ece9e8a2941eb0d54",
        "map.meta": "262f3283be475fd579298d85fe5506ec2a70474543df4951320f06182c05b65e",
        "layers.txt": "5f114be8a2d3cf096ba29165fdfbd907e7c828a104b0276596c099cc390d9896",
    },
}


@pytest.mark.parametrize("case", sorted(GENMAP_SHA256))
def test_genmap_artifacts_are_pinned(tmp_path, case):
    scenario = DEMO_SCENARIO if case == "demo" else make_scenario(tmp_path, semantic=False)
    out = tmp_path / "map"
    assert main(["genmap", scenario, "-o", str(out)]) == EXIT_OK
    pinned = GENMAP_SHA256[case]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert got == pinned


def test_genmap_unknown_goal_is_domain_error(tmp_path, capsys):
    scenario = make_scenario(tmp_path, goal="at(robot,atrium_9)")
    assert main(["genmap", scenario, "-o", str(tmp_path / "m")]) == EXIT_DOMAIN
    assert "error:" in capsys.readouterr().err


def test_genmap_unwritable_output_is_usage_error(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory")
    scenario = make_scenario(tmp_path)
    assert main(["genmap", scenario, "-o", str(blocker)]) == EXIT_USAGE


def test_genmap_without_semantic_sensor_omits_semantic_classes(tmp_path):
    scenario = make_scenario(tmp_path, semantic=False)
    out = tmp_path / "m2d"
    assert main(["genmap", scenario, "-o", str(out)]) == EXIT_OK
    layers = (out / "layers.txt").read_text()
    assert "semantic_class" not in layers
    # the same world mapped with the 3D sensor does carry classes
    out_full = tmp_path / "m3d"
    assert main(["genmap", DEMO_SCENARIO, "-o", str(out_full)]) == EXIT_OK
    assert "semantic_class" in (out_full / "layers.txt").read_text()


# --- plan ---

def test_plan_prints_costed_action_sequence(capsys):
    assert main(["plan", DEMO_SCENARIO]) == EXIT_OK
    out = capsys.readouterr().out
    assert "plan (2 actions, cost 10.750):" in out
    assert "1. navigate(lobby,hall_a)  cost 5.250" in out
    assert "2. navigate(hall_a,hall_b)  cost 5.500" in out


def test_plan_unsolvable_goal_is_domain_error(tmp_path, capsys):
    scenario = make_scenario(tmp_path, goal="at(robot,wall_south)")
    assert main(["plan", scenario]) == EXIT_DOMAIN
    assert "unsolvable" in capsys.readouterr().out


def test_plan_on_an_oversized_world_is_domain_error_before_rasterizing(
    tmp_path, capsys, monkeypatch
):
    # A south wall 1e6 m long asks for a 10,000,000 x 80 grid, far past the
    # exact path-cost bound: refused before a single footprint is drawn.
    world = Path(DEMO_WORLD).read_text()
    assert "0,0 16,0 16,0.2 0,0.2" in world
    (tmp_path / "convention_center.world").write_text(
        world.replace("0,0 16,0 16,0.2 0,0.2", "0,0 1000000,0 1000000,0.2 0,0.2")
    )

    def refuse(*args, **kwargs):
        raise AssertionError("an oversized world was rasterized")

    monkeypatch.setattr(mapgen, "rasterize_footprint", refuse)
    assert main(["plan", make_scenario(tmp_path)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "10000000 x 80 grid is too large" in err and "Traceback" not in err


# --- the stages genmap and plan share with run ---

def demo_without_semantic_sensor(tmp_path: Path) -> str:
    text = Path(DEMO_SCENARIO).read_text()
    semantic = "semantic.range = 5.0\nsemantic.fov = 1.2\n"
    assert semantic in text
    path = tmp_path / "demo_2d.scenario"
    path.write_text(text.replace(semantic, ""))
    return str(path)


@pytest.mark.parametrize("case", ["demo", "tour", "no_semantic"])
def test_plan_and_genmap_match_the_mission_run(tmp_path, capsys, case):
    # `semnav plan` prints the task plan the mission starts from, and
    # `semnav genmap` writes the metric layer the mission drives on
    scenario = {
        "demo": DEMO_SCENARIO,
        "tour": TOUR_SCENARIO,
        "no_semantic": demo_without_semantic_sensor(tmp_path),
    }[case]
    run = execute_mission(load_scenario(scenario))
    assert main(["plan", scenario]) == EXIT_OK
    printed = re.findall(r"^  \d+\. (\S+)  cost ", capsys.readouterr().out, re.MULTILINE)
    assert printed and printed == [action.name for action in run.behavior_plan.actions]
    out = tmp_path / "map"
    assert main(["genmap", scenario, "-o", str(out)]) == EXIT_OK
    assert (out / "map.pgm").read_bytes() == mapgen.metric_to_pgm(run.emap.metric)


# --- run ---

def test_run_demo_writes_report_trace_and_episodes(tmp_path, capsys):
    out = tmp_path / "runA"
    assert main(["run", DEMO_SCENARIO, "-o", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert f"report written to {out / 'report.json'}" in stdout
    assert "mission success:" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["success"] is True
    assert (out / "trace.csv").read_text().startswith("tick,x,y,theta,v,omega,collisions\n")
    assert (out / "episodes.txt").read_text().splitlines()[0].endswith("MISSION_START 2.500000000 4.000000000 0.000000000 -")
    # a second run reproduces the report byte for byte
    out_b = tmp_path / "runB"
    assert main(["run", DEMO_SCENARIO, "-o", str(out_b)]) == EXIT_OK
    assert (out_b / "report.json").read_bytes() == (out / "report.json").read_bytes()
    assert (out_b / "trace.csv").read_bytes() == (out / "trace.csv").read_bytes()


def test_run_failure_still_writes_report(tmp_path, capsys):
    scenario = make_scenario(tmp_path, goal="at(robot,atrium_9)")
    out = tmp_path / "failed"
    assert main(["run", scenario, "-o", str(out)]) == EXIT_DOMAIN
    assert "mission failure (unknown goal symbol)" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["success"] is False
    assert report["failure_code"] == "unknown goal symbol"


def test_seed_and_noise_flags_override_scenario(tmp_path):
    from semnav.cli import _prepared_engine, build_parser

    scenario_path = make_scenario(tmp_path)
    args = build_parser().parse_args(
        ["run", scenario_path, "--seed", "9", "--noise-sigma", "0.3"]
    )
    scenario = _prepared_engine(args).scenario
    assert scenario.seed == 9
    assert scenario.noise_sigma == 0.3
    # without the flags the scenario file wins
    bare = _prepared_engine(build_parser().parse_args(["run", scenario_path])).scenario
    assert bare.seed == 7
    assert bare.noise_sigma == 0.0


# --- shared error handling ---

def test_run_out_of_memory_is_domain_error_without_traceback(monkeypatch, capsys):
    # a world inside the exact-cost bound can still be too large to map
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(navigation, "_near_squared_distances", exhausted)
    assert main(["run", DEMO_SCENARIO]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["genmap", "plan", "run"])
def test_missing_scenario_is_usage_error(command, tmp_path, capsys):
    argv = [command, str(tmp_path / "ghost.scenario")]
    if command == "genmap":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b"not an ini file at all\n", b"\xff\xfe" + Path(DEMO_SCENARIO).read_bytes()],
    ids=["not_ini", "not_utf8"],
)
def test_malformed_scenario_is_usage_error(tmp_path, capsys, content):
    broken = tmp_path / "broken.scenario"
    broken.write_bytes(content)
    assert main(["run", str(broken)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and str(broken) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "key, replaces, error",
    [
        ("path", "convention_center.world", "world file"),
        ("behaviors", "behaviors.txt", "behaviors file"),
        ("rules", "rules.txt", "rules file"),
    ],
    ids=["world", "behaviors", "rules"],
)
def test_non_utf8_input_file_is_domain_error_naming_the_file(
    tmp_path, capsys, key, replaces, error
):
    bad = tmp_path / f"bad_{key}"
    bad.write_bytes(b"\xff\xfe" + (data_dir() / replaces).read_bytes())
    scenario = tmp_path / "case.scenario"
    scenario.write_text(
        Path(DEMO_SCENARIO).read_text().replace(f"{key} = {replaces}", f"{key} = {bad}")
    )
    assert main(["run", str(scenario)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert f"error: {error} {bad} is not UTF-8 text" in err and "Traceback" not in err
    if key == "path":
        assert main(["parse", str(bad)]) == EXIT_DOMAIN
        out = capsys.readouterr().out
        assert out.startswith(f"[error] world file {bad} is not UTF-8 text")


@pytest.mark.parametrize(
    "line, bad",
    [
        ("dt = 0.1", "dt = nan"),
        ("seed = 7", "seed = -1"),  # numpy seeds the lidar noise and takes none below 0
        ("noise_sigma = 0.0", "noise_sigma = nan"),
        ("lidar.range = 6.0", "lidar.range = inf"),
        ("lidar.beams = 181", "lidar.beams = 0"),
        ("semantic.fov = 1.2", "semantic.fov = nan"),
        ("semantic.fov = 1.2", "semantic.fov = 7.0"),
        ("stm.capacity = 12", "stm.capacity = 0"),
        ("stm.capacity = 12", "stm.capacity = -1"),
        ("cloud.latency = 50", "cloud.latency = -1"),
        ("stm.latency = 0", "stm.latency = 9"),  # slower than on-demand's 1
    ],
)
def test_invalid_scenario_value_is_usage_error(tmp_path, capsys, line, bad):
    text = Path(DEMO_SCENARIO).read_text()
    assert line in text
    sick = tmp_path / "sick.scenario"
    sick.write_text(text.replace(line, bad))
    assert main(["run", str(sick)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_non_finite_noise_override_is_usage_error(capsys):
    assert main(["run", DEMO_SCENARIO, "--noise-sigma", "nan"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_negative_seed_override_is_usage_error(capsys):
    assert main(["run", DEMO_SCENARIO, "--seed", "-1", "--noise-sigma", "0.1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: seed must be >= 0" in err and "Traceback" not in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_no_subcommand_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_module_invocation_propagates_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "semnav.cli", "parse", "/no/such.world"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


# --- fuzzed input ---

FUZZ_MAX_TICKS = 40
FUZZ_WORLD = Path(DEMO_WORLD).read_text()
FUZZ_SCENARIO = Path(DEMO_SCENARIO).read_text().replace(
    "max_ticks = 2200", f"max_ticks = {FUZZ_MAX_TICKS}"
)
# a value: anything between separators of the INI and XML syntax
FUZZ_TOKEN = re.compile(r"[^\s,=<>/\"]+")
FUZZ_VALUES = (
    "", "0", "-1", "0.5", "2", "nan", "inf", "-inf", "1e308", "none", "true", "x",
    "robot", "lobby", "hall_b", "at(robot,lobby)", "connected",
)
FUZZ_CHARS = "<>/=\"',()[]#;\n "


@st.composite
def mutated(draw, text: str) -> str:
    """text after one to three edits: a line dropped or doubled, a value
    swapped for another, a short span deleted or a syntax character put in."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("line", "value", "cut", "char")))
        if kind == "line":
            lines = text.splitlines(keepends=True) or [""]
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = draw(st.sampled_from(("", lines[i] * 2)))
            text = "".join(lines)
        elif kind == "value":
            spans = [m.span() for m in FUZZ_TOKEN.finditer(text)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                text = text[:start] + draw(st.sampled_from(FUZZ_VALUES)) + text[end:]
        else:
            at = draw(st.integers(0, len(text)))
            if kind == "cut":
                text = text[:at] + text[at + draw(st.integers(1, 8)):]
            else:
                text = text[:at] + draw(st.sampled_from(FUZZ_CHARS)) + text[at:]
    return text


def _capped(path):
    scenario = load_scenario(path)
    return replace(scenario, max_ticks=min(scenario.max_ticks, FUZZ_MAX_TICKS))


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(
    scenario=st.one_of(st.just(FUZZ_SCENARIO), mutated(FUZZ_SCENARIO)),
    world=st.one_of(st.just(FUZZ_WORLD), mutated(FUZZ_WORLD)),
)
def test_fuzzed_inputs_exit_with_a_code_never_a_traceback(scenario, world):
    # An exception escaping main is what a user would see as a traceback.
    # The world sits beside the scenario, which names it; behaviors and rules
    # come from the data directory. Every run stops after FUZZ_MAX_TICKS
    # ticks, whatever the scenario's own max_ticks says.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_scenario", _capped)
        folder = Path(tmp)
        (folder / "convention_center.world").write_text(world)
        (folder / "case.scenario").write_text(scenario)
        case = str(folder / "case.scenario")
        for argv in (
            ["parse", str(folder / "convention_center.world")],
            ["plan", case],
            ["genmap", case, "-o", str(folder / "map")],
            ["run", case],
        ):
            assert main(argv) in (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE), argv
