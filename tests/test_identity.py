"""The report identity matrix against its committed expectation: a change to
any row fails here. A change that alters one on purpose rewrites
tests/identity_matrix.expected (see tests/identity_matrix.py)."""

from __future__ import annotations

from identity_matrix import EXPECTED, matrix_lines


def test_identity_matrix_prints_the_committed_lines():
    assert list(matrix_lines()) == EXPECTED.read_text(encoding="utf-8").splitlines()
