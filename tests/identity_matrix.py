"""Report identity matrix: one line per scenario,

    name outcome ticks replans actor_collisions sha256

where outcome is `success` or the report's failure code and sha256 is that
of its canonical report.json text. A header line comes first, and a last
line counts the noise rows that succeed. Different scenarios can write the
same report bytes (sigma 0.2 seeds 0, 4 and 5 do, since a report names
neither the seed nor sigma), so a row's key is its name, not its sha256.

A change that is meant to keep behaviour prints the same lines as its parent:

    python3 tests/identity_matrix.py > after.txt   # in each checkout
    diff before.txt after.txt                       # empty when reports agree

tests/identity_matrix.expected holds the lines the committed code prints
(numpy 2.4.6 draws the noise), and tests/test_identity.py and CI fail unless
a run prints exactly those; a change that alters a report on purpose
rewrites that file, the one place a report is pinned.

The scenarios are the bundled demo, the benchmark's `noisy` and `tour`, the
demo under lidar noise (sigma 0.05, 0.1, 0.2 and 0.5 x seeds 0-7), and the
demo without its semantic sensor and without its lidar. Edited scenarios
are written to a temporary directory outside the checkout. The name keeps
this script out of pytest's collection; it imports the package from its
own checkout's `src`.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from semnav.mission import (  # noqa: E402
    MissionReport,
    data_dir,
    execute_mission,
    load_scenario,
    report_to_json,
)

BENCH_SCENARIOS = ROOT / "missionbench" / "scenarios"
EXPECTED = Path(__file__).with_name("identity_matrix.expected")
NOISE_SIGMAS = ("0.05", "0.1", "0.2", "0.5")
NOISE_SEEDS = range(8)
HEADER = "name outcome ticks replans actor_collisions sha256"


def scenarios():
    """(name, scenario file, {line: replacement}) for every row."""
    demo = data_dir() / "demo.scenario"
    yield "demo", demo, {}
    yield "noisy", BENCH_SCENARIOS / "noisy.scenario", {}
    yield "tour", BENCH_SCENARIOS / "tour.scenario", {}
    for sigma in NOISE_SIGMAS:
        for seed in NOISE_SEEDS:
            edits = {"seed = 7": f"seed = {seed}", "noise_sigma = 0.0": f"noise_sigma = {sigma}"}
            yield f"noise_{sigma}_seed_{seed}", demo, edits
    yield "no_semantic", demo, {"semantic.range = 5.0\n": "", "semantic.fov = 1.2\n": ""}
    lidar = ("lidar.range = 6.0\n", "lidar.fov = 3.141592653589793\n", "lidar.beams = 181\n")
    yield "no_lidar", demo, dict.fromkeys(lidar, "")


def run_report(path: Path, edits: dict[str, str], scratch: Path) -> MissionReport:
    """The report of one row's mission, its edited scenario written to scratch."""
    if edits:
        text = path.read_text(encoding="utf-8")
        for line, replacement in edits.items():
            if line not in text:
                raise SystemExit(f"{path.name}: no line {line!r} to edit")
            text = text.replace(line, replacement)
        path = scratch / "edited.scenario"
        path.write_text(text, encoding="utf-8")
    return execute_mission(load_scenario(path)).report


def matrix_line(name: str, report: MissionReport) -> str:
    """The row of the mission called name that wrote report."""
    outcome = "success" if report.success else report.failure_code
    digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    return (f"{name} {outcome} {report.ticks_used} {report.replan_count} "
            f"{report.collisions_actor} {digest}")


def expected_line(name: str) -> str:
    """The committed row called name."""
    for line in EXPECTED.read_text(encoding="utf-8").splitlines():
        if line.split(" ", 1)[0] == name:
            return line
    raise KeyError(name)


def matrix_lines():
    """The header, every row in order, and the count of noise rows that
    succeed."""
    yield HEADER
    succeeded = noise_rows = 0
    with tempfile.TemporaryDirectory(prefix="identity-matrix-") as scratch:
        for name, path, edits in scenarios():
            report = run_report(path, edits, Path(scratch))
            yield matrix_line(name, report)
            if name.startswith("noise_"):
                succeeded += report.success
                noise_rows += 1
    yield f"{succeeded} of {noise_rows} noise rows succeed"


def main() -> None:
    for line in matrix_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
