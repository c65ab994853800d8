"""Both sides of the Bell-polynomial form of the p(7n+5) identity.

For n >= 1, with d and e the coefficient sequences from
:mod:`qbell.numtheory`:

    7 B_n(1! d_1, ..., n! d_n) + 49 n B_{n-1}(1! e_1, ..., (n-1)! e_{n-1})
        = n! p(7n + 5).

This module evaluates the two sides independently and reports on their
equality, and it sweeps the three classical partition congruences
(p(5k+4) mod 5, p(7k+5) mod 7, p(11k+6) mod 11).
"""

from fractions import Fraction
from math import factorial

from .bell import complete_bell, complete_bell_sequence
from .numtheory import d_coefficient, e_coefficient
from .partitions import partition_count
from .reports import CheckEntry, VerificationReport

__all__ = [
    "theorem_lhs",
    "theorem_rhs",
    "verify_theorem",
    "verify_congruences",
]


def _d_args(n: int) -> list[Fraction]:
    return [factorial(i) * d_coefficient(i) for i in range(1, n + 1)]


def _e_args(n: int) -> list[Fraction]:
    return [factorial(i) * e_coefficient(i) for i in range(1, n + 1)]


def theorem_lhs(n: int) -> Fraction:
    """7 B_n(1! d_1, ..., n! d_n) + 49 n B_{n-1}(1! e_1, ..., (n-1)! e_{n-1}).

    The Bell arguments are integers, i! d_i = 4 (i-1)! sigma(i) - 21 (i-1)!
    sigma(i/7) and i! e_i = 8 (i-1)! sigma(i) - 49 (i-1)! sigma(i/7), the
    second terms only when 7 | i, so the Bell kernel runs with common
    denominator 1.  The value is still returned as a ``Fraction``, so a
    caller can check that it is an integer.
    """
    if n < 1:
        raise ValueError("the identity is stated for n >= 1")
    lhs = 7 * complete_bell(n, _d_args(n))
    lhs += 49 * n * complete_bell(n - 1, _e_args(n - 1))
    return lhs


def theorem_rhs(n: int) -> int:
    """n! * p(7n + 5)."""
    if n < 1:
        raise ValueError("the identity is stated for n >= 1")
    return factorial(n) * partition_count(7 * n + 5)


def verify_theorem(max_n: int) -> VerificationReport:
    """Check lhs == rhs, exactly, for every 1 <= n <= max_n.

    A pass also requires the left side to be an integer (denominator 1);
    both sides are carried verbatim in the report so any failure is
    diagnosable without re-running.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    partition_count(7 * max_n + 5)  # fill the table once, up front
    bells_d = complete_bell_sequence(max_n, _d_args(max_n))
    bells_e = complete_bell_sequence(max_n - 1, _e_args(max_n - 1))
    entries = []
    for n in range(1, max_n + 1):
        lhs = 7 * bells_d[n] + 49 * n * bells_e[n - 1]
        rhs = theorem_rhs(n)
        passed = lhs.denominator == 1 and lhs == rhs
        entries.append(CheckEntry(n, lhs, Fraction(rhs), passed))
    return VerificationReport("bell-identity", tuple(entries))


_CONGRUENCE_FAMILIES = ((5, 4), (7, 5), (11, 6))


def verify_congruences(max_k: int) -> VerificationReport:
    """Check p(5k+4) = 0 mod 5, p(7k+5) = 0 mod 7, p(11k+6) = 0 mod 11.

    One entry per (modulus, k) pair for 0 <= k <= max_k, grouped by modulus
    in the order 5, 7, 11; the entry index is the partition argument and
    the computed value is the residue.
    """
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    # fill the table once, up front, at the largest index
    partition_count(max(modulus * max_k + offset for modulus, offset in _CONGRUENCE_FAMILIES))
    entries = []
    for modulus, offset in _CONGRUENCE_FAMILIES:
        for k in range(max_k + 1):
            n = modulus * k + offset
            residue = partition_count(n) % modulus
            entries.append(CheckEntry(n, Fraction(residue), Fraction(0), residue == 0))
    return VerificationReport("ramanujan-congruences", tuple(entries))
