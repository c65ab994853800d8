"""Shared test plumbing: collects acceptance-criterion outcomes for the
terminal summary so a plain ``pytest`` run ends with one line per criterion,
lets the tests' child processes import the qbell that the tests import, and
holds the test oracles and helpers that more than one test module uses.
"""

import contextlib
import os
import sys
from fractions import Fraction
from pathlib import Path

import qbell
from qbell.numtheory import sigma

CRITERION_LINES: list[str] = []


def record_criterion(number: int, passed: bool, text: str) -> None:
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'} - {text}"
    CRITERION_LINES.append(line)
    print(line)


# d_n and e_n by their defining branches, sigma(n)/n with the correction
# at multiples of 7 written out
def d_by_branch(n: int) -> Fraction:
    value = 4 * Fraction(sigma(n), n)
    if n % 7 == 0:
        value -= 3 * Fraction(sigma(n // 7), n // 7)
    return value


def e_by_branch(n: int) -> Fraction:
    value = 8 * Fraction(sigma(n), n)
    if n % 7 == 0:
        value -= 7 * Fraction(sigma(n // 7), n // 7)
    return value


@contextlib.contextmanager
def int_max_str_digits(limit: int):
    """Run the block under the interpreter's digit limit for str() and int() set to limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


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
