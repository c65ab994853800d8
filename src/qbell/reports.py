"""Pass/fail verification reports with deterministic JSON rendering."""

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["CheckEntry", "VerificationReport", "format_exact"]


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
