"""Spans around the package's layer boundaries, installed from outside.

A Tracer keeps a stack of open spans. Closing a span adds its duration to
its name's total and, less the time its child spans covered, to its self
time; the parent is charged the whole duration as child time. Time spent in
`untimed()` blocks (the benchmark's own counters and check snapshots) is
charged to no span and summed in `excluded`.

`patched()` swaps the names the mission engine calls for timing wrappers
and puts every original back on exit, checking that it did.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.excluded = 0.0
        self._stack: list[list] = []  # [name, start, child time]

    def enter(self, name: str) -> None:
        self._stack.append([name, clock(), 0.0])

    def exit(self) -> float:
        end = clock()
        name, start, child = self._stack.pop()
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextlib.contextmanager
    def untimed(self):
        start = clock()
        try:
            yield
        finally:
            duration = clock() - start
            self.excluded += duration
            if self._stack:
                self._stack[-1][2] += duration

    def span(self, name: str, original, after=None):
        """A wrapper timing each call of `original` as a span. `after(result,
        duration, args)` runs untimed once the span has closed."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = self.exit()
            if after is not None:
                with self.untimed():
                    after(result, duration, args)
            return result

        return wrapper


@contextlib.contextmanager
def patched(replacements):
    """replacements: (owner, attribute, new value) triples; owner is a module
    or a class. Restores each original and fails if any stayed replaced."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    for owner, attr, original in saved:
        if owner.__dict__[attr] is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
