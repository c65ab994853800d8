"""Pass/fail verification reports, the exact number codec, deterministic JSON rendering."""

from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii

__all__ = ["DIGIT_LIMIT", "CheckEntry", "VerificationReport", "format_exact", "parse_exact",
           "write_json"]

# digits of a numerator or a denominator that the command line prints or parses
DIGIT_LIMIT = 4300


def format_exact(value) -> str:
    """Render an exact value: integers as plain decimals, others as num/den."""
    value = value if type(value) is int else Fraction(value)
    try:
        return str(value)
    except ValueError:  # past the interpreter's str() limit, which decimal does not follow
        num, den = (str(Decimal(part)) for part in (value.numerator, value.denominator))
        return num if den == "1" else f"{num}/{den}"


def parse_exact(text: str) -> int | Fraction:
    """Invert format_exact, past int()'s limit too; the caller checks syntax and DIGIT_LIMIT."""
    num, _, den = text.partition("/")
    value = int(Decimal(num))
    return Fraction(value, int(Decimal(den))) if den else value


class CheckEntry:
    """One verified index: the computed value against the expected one.

    A slotted record with no ``__dict__``, since a report can hold many
    thousands of them; it compares by identity.
    """

    __slots__ = ("index", "computed", "expected", "passed")

    def __init__(self, index: int, computed: int | Fraction, expected: int | Fraction,
                 passed: bool):
        self.index = index
        self.computed = computed
        self.expected = expected
        self.passed = passed

    def __repr__(self) -> str:
        return (f"CheckEntry(index={self.index!r}, computed={self.computed!r}, "
                f"expected={self.expected!r}, passed={self.passed!r})")


class VerificationReport(namedtuple("VerificationReport", "label entries")):
    """A labelled batch of checks; failures are entries, never exceptions.

    ``label`` is a str and ``entries`` a tuple of ``CheckEntry``.
    """

    __slots__ = ()

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
        """The wire format as a dict, for checks only: json.dumps of it is write_json's oracle."""
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


def write_json(payload, file) -> None:
    """Write ``json.dumps(to_json_dict(), indent=2)`` of one report, or of a list of them, to file.

    The standard encoder indents in pure Python and holds the whole document.
    This writer writes each entry as it renders it, from fixed pieces around
    its ``CheckEntry`` fields.  The label is escaped by the encoder's own
    ``encode_basestring_ascii``; ``format_exact`` yields only a sign, digits
    and "/", which need no escaping.  Equal values have one canonical text,
    so an entry whose values are equal renders it once and writes it twice;
    the values are compared, not ``passed``.
    """
    if isinstance(payload, VerificationReport):
        reports, newline, separator, closing = (payload,), "\n", "", ""
    elif payload:
        reports, newline, separator, closing = payload, "\n  ", "[\n  ", "\n]"
    else:
        file.write("[]")
        return
    inner = newline + "  "
    item = inner + "  "
    field = item + "  "
    head = f'{item}{{{field}"n": '
    lhs = f',{field}"lhs": "'
    rhs = f'",{field}"rhs": "'
    tails = {value: f'",{field}"pass": {literal}{item}}}' for value, literal in _LITERALS.items()}
    for report in reports:
        file.write(f'{separator}{{{inner}"label": {encode_basestring_ascii(report.label)},'
                   f'{inner}"overallPass": {_LITERALS[report.overall_pass]},{inner}"entries": ')
        separator = ",\n  "
        opening = "["
        for entry in report.entries:
            computed = format_exact(entry.computed)
            expected = computed if entry.computed == entry.expected else format_exact(entry.expected)
            file.write(f"{opening}{head}{entry.index}{lhs}{computed}{rhs}{expected}"
                       f"{tails[entry.passed]}")
            opening = ","
        file.write(f"{inner}]{newline}}}" if report.entries else f"[]{newline}}}")
    file.write(closing)
