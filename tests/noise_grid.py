"""Noise grid: one line per lidar-noise row of the report identity matrix,
giving sigma, seed, outcome, ticks, replans and actor collisions.

    python3 tests/noise_grid.py

The rows are tests/identity_matrix.py's `noise_<sigma>_seed_<seed>`
scenarios, the demo under lidar noise, with seeds 0-7 at every sigma (the
identity matrix runs only seeds 0-3 at sigma 0.5). A change to the costmap
or the drive loop is judged by this table, so CI prints it beside the
identity lines. The name keeps this script out of pytest's collection.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from identity_matrix import NOISE_SEEDS, run_report, scenarios

GRID_SEEDS = tuple((sigma, 8) for sigma, _ in NOISE_SEEDS)


def main() -> None:
    print("sigma seed outcome ticks replans actor_collisions")
    succeeded = rows = 0
    with tempfile.TemporaryDirectory(prefix="noise-grid-") as scratch:
        for name, path, edits in scenarios(GRID_SEEDS):
            if not name.startswith("noise_"):
                continue
            _, sigma, _, seed = name.split("_")
            report = run_report(path, edits, Path(scratch))
            outcome = "success" if report.success else report.failure_code
            print(sigma, seed, outcome, report.ticks_used, report.replan_count,
                  report.collisions_actor, flush=True)
            succeeded += report.success
            rows += 1
    print(f"{succeeded} of {rows} rows succeed")


if __name__ == "__main__":
    main()
