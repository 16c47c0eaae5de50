"""A fixed reference computation that measures how fast the machine runs now.

The machine the benchmark runs on is shared. The same Python code runs up to
twice as slow at some moments as at others, and the speed drifts over
fractions of a second to minutes. A Stopwatch therefore times a measured
piece of work as a series of laps, and between laps, and every 50 ms
inside one, it times a fixed reference computation of about two
milliseconds. Each lap is scaled by how fast the reference ran during and
around it, giving reference-speed seconds: the time the lap would take when
the reference takes REFERENCE_S.

The reference is an exact-pair Dijkstra (from `oracles`, never the
program's own search) over a small costmap made here from fixed constants,
so no change to the program or to `--seed` changes the work it does. Like
the program's drive loop it is interpreter-bound work on tuples, dicts and
a binary heap.
"""

from __future__ import annotations

import random
import signal
import statistics

import oracles
from tracer import clock

WIDTH, HEIGHT = 20, 12
# The reference's time when the machine the figures in README.md come from
# ran at its usual speed.
REFERENCE_S = 0.002
# A lap is scaled by the median of the reference timings inside it and of
# this many on each side.
WINDOW = 2
SAMPLE_INTERVAL = 0.05  # seconds between references inside a lap


def _grid() -> oracles.Grid:
    rng = random.Random(20020728)
    return oracles.Grid([[rng.choice((0, 0, 10, 40)) for _ in range(WIDTH)] for _ in range(HEIGHT)], ())


GRID = _grid()
START, GOAL = (0, 0), (WIDTH - 1, HEIGHT - 1)


def reference_seconds() -> float:
    """Wall time of one fixed search."""
    begin = clock()
    found = oracles.dijkstra_pair(GRID, START, GOAL)
    elapsed = clock() - begin
    if found is None:
        raise RuntimeError("the reference grid has no path")
    return elapsed


class Stopwatch:
    """Times consecutive laps of one piece of work, as a context manager.

    A reference timing is taken on entry, after each lap and, when
    `sampling` is on, every SAMPLE_INTERVAL seconds inside a lap from a
    SIGALRM handler, so that a lap of seconds (one long repair) is scaled by
    the speed the machine had during it. The references' own time falls in
    no lap. The traced run turns sampling off, since a reference taken
    inside a span would count as that span's time."""

    def __init__(self, sampling: bool = True) -> None:
        self.laps: list[float] = []  # wall seconds
        self.references: list[float] = []  # wall seconds, in the order taken
        self.bounds: list[int] = []  # references[bounds[i]] just precedes laps[i]
        self._sampling = sampling
        self._resume = 0.0
        self._paused = 0.0  # time the handler spent inside the current lap
        self._busy = False
        self._handler = None

    def __enter__(self) -> "Stopwatch":
        self._busy = True
        self._boundary()
        if self._sampling:
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        self._busy = False
        return self

    def __exit__(self, *_exc) -> None:
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._handler)

    def _boundary(self) -> None:
        self.bounds.append(len(self.references))
        self.references.append(reference_seconds())
        self._paused = 0.0
        self._resume = clock()

    def _sample(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        begin = clock()
        self.references.append(reference_seconds())
        self._paused += clock() - begin
        self._busy = False

    def lap(self) -> None:
        self._busy = True
        self.laps.append(clock() - self._resume - self._paused)
        self._boundary()
        self._busy = False

    def scaled_laps(self) -> list[float]:
        """Each lap in reference-speed seconds, by the median of the
        references taken inside it and the WINDOW on each side of it."""
        refs, bounds = self.references, self.bounds
        return [
            lap * REFERENCE_S / statistics.median(refs[max(0, bounds[i] + 1 - WINDOW):bounds[i + 1] + WINDOW])
            for i, lap in enumerate(self.laps)
        ]

    def scale(self) -> float:
        """Reference-speed seconds per wall second over all laps."""
        return sum(self.scaled_laps()) / sum(self.laps)
