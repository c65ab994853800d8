"""Pass/fail verification reports with deterministic JSON rendering."""

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

__all__ = ["CheckEntry", "VerificationReport", "format_exact", "render_json"]


def format_exact(value) -> str:
    """Render an exact value: integers as plain decimals, others as num/den."""
    return str(value if type(value) is int else Fraction(value))


@dataclass(frozen=True)
class CheckEntry:
    """One verified index: the computed value against the expected one."""

    index: int
    computed: int | Fraction
    expected: int | Fraction
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """A labelled batch of checks; failures are entries, never exceptions."""

    label: str
    entries: tuple[CheckEntry, ...]

    @classmethod
    def from_rows(cls, label: str, rows) -> "VerificationReport":
        """A report of (index, computed, expected) rows; an entry passes when computed == expected.

        This is the one pass rule of every report.  An int expected value
        equals a ``Fraction`` only when the ``Fraction`` is that integer, so
        the rule needs no separate integrality clause.
        """
        return cls(label, tuple(CheckEntry(n, c, e, c == e) for n, c, e in rows))

    @property
    def overall_pass(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [entry for entry in self.entries if not entry.passed]

    def to_json_dict(self) -> dict:
        """The wire format: {label, overallPass, entries:[{n, lhs, rhs, pass}]}."""
        return {
            "label": self.label,
            "overallPass": self.overall_pass,
            "entries": [
                {
                    "n": entry.index,
                    "lhs": format_exact(entry.computed),
                    "rhs": format_exact(entry.expected),
                    "pass": entry.passed,
                }
                for entry in self.entries
            ],
        }


_LITERALS = {True: "true", False: "false"}


def render_json(payload) -> str:
    """``json.dumps(payload, indent=2)`` for one ``to_json_dict()`` payload or a list of them.

    The standard encoder runs in pure Python whenever it indents.  This
    writer knows the wire format: it lays each entry out from fixed pieces
    around its values and joins all the parts once.  Strings are escaped by
    the encoder's own ``encode_basestring_ascii``, as ``json.dumps`` escapes
    them by default.
    """
    if isinstance(payload, dict):
        parts = []
        _append_report(payload, "\n", parts)
    elif payload:
        parts = ["["]
        for i, report in enumerate(payload):
            parts.append(",\n  " if i else "\n  ")
            _append_report(report, "\n  ", parts)
        parts.append("\n]")
    else:
        return "[]"
    return "".join(parts)


def _append_report(report: dict, newline: str, parts: list) -> None:
    """Append one report's parts; newline is a line break and the report's indent."""
    inner = newline + "  "
    parts += (
        "{", inner, '"label": ', encode_basestring_ascii(report["label"]), ",",
        inner, '"overallPass": ', _LITERALS[report["overallPass"]], ",",
        inner, '"entries": ',
    )
    entries = report["entries"]
    if entries:
        # An entry's long values stay parts of their own, as json.dumps
        # leaves them, rather than copies inside one formatted string.
        item = inner + "  "
        field = item + "  "
        head = f'{item}{{{field}"n": %d,{field}"lhs": '
        middle = f',{field}"rhs": '
        tails = {value: f',{field}"pass": {literal}{item}}}' for value, literal in _LITERALS.items()}
        separator = "["
        for entry in entries:
            parts += (separator, head % entry["n"], encode_basestring_ascii(entry["lhs"]), middle,
                      encode_basestring_ascii(entry["rhs"]), tails[entry["pass"]])
            separator = ","
        parts += (inner, "]")
    else:
        parts.append("[]")
    parts += (newline, "}")
