"""The report writer: byte-identical to json.dumps(..., indent=2)."""

import json
from fractions import Fraction

import pytest

from qbell import cli
from qbell.reports import VerificationReport, render_json


def _payloads():
    """The payload of every verify target at its `verify all` default, in that order."""
    return [check(default).to_json_dict() for *_, default, _, check in cli._VERIFY_TARGETS]


def test_writer_matches_json_dumps_for_every_verify_target():
    payloads = _payloads()
    assert [payload["label"] for payload in payloads] == [
        "bell-identity", "p5k4-series", "p7n5-series", "ramanujan-congruences",
    ]
    for payload in payloads:
        assert render_json(payload) == json.dumps(payload, indent=2)
    assert render_json(payloads) == json.dumps(payloads, indent=2)


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
    payloads = [report.to_json_dict() for report in reports]
    for payload in payloads:
        assert render_json(payload) == json.dumps(payload, indent=2)
    assert render_json(payloads) == json.dumps(payloads, indent=2)


def test_writer_renders_a_failing_entry_with_both_exact_values():
    report = VerificationReport.from_rows("check", [(7, Fraction(-1, 2), -3)])
    assert render_json(report.to_json_dict()) == (
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
