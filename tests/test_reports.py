"""The report writer: byte-identical to json.dumps(report.to_json_dict(), indent=2).

Also the exact number codec under it: format_exact and parse_exact give
the same text and values whatever the interpreter's digit limit is.
"""

import io
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_max_str_digits

from qbell import cli, series
from qbell.identity import verify_congruences
from qbell.reports import (
    DIGIT_LIMIT, CheckEntry, VerificationReport, format_exact, parse_exact, write_json,
)


def _written(payload) -> str:
    file = io.StringIO()
    write_json(payload, file)
    return file.getvalue()


def _oracle(payload) -> str:
    """The wire format through the check-only dict and the standard encoder."""
    if isinstance(payload, VerificationReport):
        return json.dumps(payload.to_json_dict(), indent=2)
    return json.dumps([report.to_json_dict() for report in payload], indent=2)


def test_writer_matches_json_dumps_for_every_verify_target():
    # every verify target at its `verify all` size, in that order
    sizes = cli._VERIFY_ALL_SIZES
    reports = [series.residue_class_report(t.check, sizes[t.flag]) for t in cli._VERIFY_TARGETS]
    assert [report.label for report in reports] == [
        "bell-identity", "p5k4-series", "p7n5-series", "ramanujan-congruences",
    ]
    for report in reports:
        assert _written(report) == _oracle(report)
    assert _written(reports) == _oracle(reports)


@pytest.mark.parametrize(
    "reports",
    [
        # a failing report with a negative value and a Fraction ("num/den")
        [VerificationReport.from_rows("bell-identity", [(1, -77, 77), (2, Fraction(-980, 3), 980)])],
        # a label that needs escaping: quote, backslash, control characters, non-ASCII
        [VerificationReport.from_rows('a "label"\\ with\nbreaks\tand é  ', [(0, 1, 1)])],
        [VerificationReport("empty", ())],
        [VerificationReport("empty", ()), VerificationReport.from_rows("one", [(3, 0, 1)])],
        [],
    ],
)
def test_writer_matches_json_dumps_on_edge_reports(reports):
    for report in reports:
        assert _written(report) == _oracle(report)
    assert _written(reports) == _oracle(reports)


def test_writer_renders_a_failing_entry_with_both_exact_values():
    report = VerificationReport.from_rows("check", [(7, Fraction(-1, 2), -3)])
    assert _written(report) == _oracle(report) == (
        "{\n"
        '  "label": "check",\n'
        '  "overallPass": false,\n'
        '  "entries": [\n'
        "    {\n"
        '      "n": 7,\n'
        '      "lhs": "-1/2",\n'
        '      "rhs": "-3",\n'
        '      "pass": false\n'
        "    }\n"
        "  ]\n"
        "}"
    )


def test_writer_renders_both_values_whatever_passed_says():
    # the writer renders a value once only when the two are equal, not when passed is true
    entries = (CheckEntry(5, 2, 3, True), CheckEntry(6, 1, Fraction(1), False))
    report = VerificationReport("check", entries)
    assert _written(report) == _oracle(report)
    assert '"lhs": "2",' in _written(report) and '"rhs": "3",' in _written(report)


def test_an_entry_reprs_as_its_four_fields():
    assert repr(CheckEntry(3, Fraction(1, 2), 1, False)) == (
        "CheckEntry(index=3, computed=Fraction(1, 2), expected=1, passed=False)")


class _Sink:
    """A file that counts what it is given and keeps none of it."""

    size = 0

    def write(self, text: str) -> None:
        self.size += len(text)


def test_writer_streams_without_holding_the_report():
    report = verify_congruences(5000)
    sink = _Sink()
    tracemalloc.start()
    try:
        write_json(report, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == len(_oracle(report))
    # a joined document, or one dict per entry, would hold the whole size
    assert peak < sink.size / 10, (peak, sink.size)


# digit counts up to the bound, with the edges around the interpreter's smallest limit, 640
_digit_counts = st.one_of(st.sampled_from([1, 639, 640, 641, DIGIT_LIMIT]),
                          st.integers(1, DIGIT_LIMIT))
_magnitudes = _digit_counts.flatmap(lambda n: st.integers(10 ** (n - 1) if n > 1 else 0, 10**n - 1))
_signed = st.builds(lambda sign, m: sign * m, st.sampled_from([1, -1]), _magnitudes)
_exact_values = st.one_of(_signed, st.builds(Fraction, _signed, _magnitudes.filter(bool)))


@given(_exact_values)
@settings(deadline=None)
def test_codec_matches_str_under_the_default_limit_whatever_the_interpreter_limit(value):
    with int_max_str_digits(DIGIT_LIMIT):
        expected = str(value)
    with int_max_str_digits(640):
        text = format_exact(value)
        parsed = parse_exact(text)
    assert text == expected
    assert parsed == value
