"""Shared pytest plumbing: the acceptance report lines and a cold memo.

test_acceptance.py records one PASS/FAIL line per criterion; printing them
from the terminal-summary hook keeps them visible even under output capture.
"""

import pytest

from monopath.budget import MEMO

acceptance_lines: list[str] = []


def record(line: str) -> None:
    acceptance_lines.append(line)


@pytest.fixture(autouse=True)
def cold_memo():
    """Empty the process-wide memo, so every test runs the engines cold."""
    MEMO.clear()
    yield
    MEMO.clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
