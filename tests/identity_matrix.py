"""Report identity matrix: one `name sha256` line per scenario, the sha256 of
its canonical report.json text.

A change that is meant to keep behaviour prints the same lines as its parent:

    python3 tests/identity_matrix.py > after.txt   # in each checkout
    diff before.txt after.txt                       # empty when reports agree

tests/identity_matrix.expected holds the lines the committed code prints
(numpy 2.4.6 draws the noise), and CI fails unless a run prints exactly
those; a change that alters a report on purpose rewrites that file.

The scenarios are the bundled demo, the benchmark's `noisy` and `tour`, the
demo under lidar noise (sigma 0.05, 0.1 and 0.2 x seeds 0-7, sigma 0.5 x
seeds 0-3), and the demo without its semantic sensor and without its lidar.
Edited scenarios are written to a temporary directory outside the checkout.
The name keeps this script out of pytest's collection; it imports the
package from its own checkout's `src`.
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
NOISE_SEEDS = (("0.05", 8), ("0.1", 8), ("0.2", 8), ("0.5", 4))


def scenarios(noise_seeds=NOISE_SEEDS):
    """(name, scenario file, {line: replacement}) for every row, with
    noise_seeds as (sigma, seed count) pairs."""
    demo = data_dir() / "demo.scenario"
    yield "demo", demo, {}
    yield "noisy", BENCH_SCENARIOS / "noisy.scenario", {}
    yield "tour", BENCH_SCENARIOS / "tour.scenario", {}
    for sigma, seeds in noise_seeds:
        for seed in range(seeds):
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


def report_sha256(path: Path, edits: dict[str, str], scratch: Path) -> str:
    text = report_to_json(run_report(path, edits, scratch))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="identity-matrix-") as scratch:
        for name, path, edits in scenarios():
            print(name, report_sha256(path, edits, Path(scratch)), flush=True)


if __name__ == "__main__":
    main()
