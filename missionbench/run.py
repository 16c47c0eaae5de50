#!/usr/bin/env python3
"""Mission benchmark for semnav.

Runs whole missions through the entry points `semnav run` uses and checks
every mission's outputs against computations made apart from the program.

    python3 missionbench/run.py --workload demo --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. `--workload all` runs each workload in its own
process, one after another. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
Run it from the repository root or anywhere else; it finds the sources
beside its own directory and exits 2 when they are missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("demo", "tour", "noisy")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="picks the sampled checks")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, notes: list[str]) -> None:
    for note in notes:
        print(note)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6f}  {unit}")
    print(f"missions attempted {attempted}, failed {failed}, correct {str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_one(args) -> int:
    import bench

    checker = bench.Checker(args.seed)
    timing = bench.measure(args.workload, args.seconds, checker)
    attempted = len(timing.repeats)
    problems: list[str] = []
    if args.trace:
        metrics, problems, traced = bench.per_layer(args.workload, args.seconds, checker, timing, attempted)
        attempted += traced
    else:
        metrics = bench.end_to_end(timing)
    checker.finish()
    problems = problems + [f"check failed: {message}" for _, message in checker.failures]
    failed = checker.failed_missions()
    _emit(failed == 0 and not problems, attempted, failed, metrics, bench.wall_notes(timing) + problems)
    return 0


def run_all(args) -> int:
    status = 0
    results = {}
    for workload in WORKLOAD_NAMES:
        print(f"== {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC_DIR / "semnav" / "__init__.py").is_file():
        print(f"error: semnav sources not found at {SRC_DIR}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC_DIR))
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
