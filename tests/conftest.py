"""Shared test plumbing: collects acceptance-criterion outcomes for the
terminal summary so a plain ``pytest`` run ends with one line per criterion,
and lets the tests' child processes import the qbell that the tests import.
"""

import os
from pathlib import Path

import qbell

CRITERION_LINES: list[str] = []


def record_criterion(number: int, passed: bool, text: str) -> None:
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'} - {text}"
    CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)


def pytest_configure(config):
    # `python -m qbell` in a child process finds the package on PYTHONPATH,
    # which pytest's `pythonpath` setting does not export.
    root = str(Path(qbell.__file__).resolve().parents[1])
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
