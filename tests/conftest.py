"""Shared pytest hooks. The acceptance tests register one verdict line per
criterion here so every run finishes with a visible checklist, even under
output capture."""

from __future__ import annotations

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

verdict_lines: list[str] = []


def pytest_configure(config):
    # Hypothesis caches the constants it reads from the source under its home
    # directory, .hypothesis/ in the working directory by default, even with
    # its example database off, and does so while tests are being collected.
    # A temporary home removed at the end of the run leaves the tree clean.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if verdict_lines:
        terminalreporter.section("acceptance criteria")
        for line in verdict_lines:
            terminalreporter.line(line)
