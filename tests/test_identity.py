"""The report identity matrix and the noise grid against their committed
expectations: a change to any report row or grid row fails here. A change
that alters one on purpose rewrites the expected file (see each script)."""

from __future__ import annotations

from pathlib import Path

from identity_matrix import matrix_lines
from noise_grid import grid_lines

HERE = Path(__file__).resolve().parent


def expected(name: str) -> list[str]:
    return (HERE / name).read_text(encoding="utf-8").splitlines()


def test_identity_matrix_prints_the_committed_lines():
    assert list(matrix_lines()) == expected("identity_matrix.expected")


def test_noise_grid_prints_the_committed_table():
    assert list(grid_lines()) == expected("noise_grid.expected")
