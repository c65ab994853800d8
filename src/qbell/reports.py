"""Pass/fail verification reports with deterministic JSON rendering."""

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["CheckEntry", "VerificationReport", "format_exact"]


def format_exact(value) -> str:
    """Render an exact value: integers as plain decimals, others as num/den."""
    if type(value) is int:
        return str(value)
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class CheckEntry:
    """One verified index: the computed value against the expected one."""

    index: int
    computed: Fraction
    expected: Fraction
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """A labelled batch of checks; failures are entries, never exceptions."""

    label: str
    entries: tuple[CheckEntry, ...]

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
