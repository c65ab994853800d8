"""Both sides of the Bell-polynomial form of the p(7n+5) identity.

For n >= 1, with d and e the coefficient sequences from
:mod:`qbell.numtheory`:

    7 B_n(1! d_1, ..., n! d_n) + 49 n B_{n-1}(1! e_1, ..., (n-1)! e_{n-1})
        = n! p(7n + 5).

The left side is the Bell side of :func:`qbell.series.residue_class_report`
for the sum G + H, the check row ``BELL_IDENTITY`` of :mod:`qbell.series`.
By the exponential formula (Comtet, *Advanced Combinatorics*, 1974, 3.3),

    B_n(1! y_1, ..., n! y_n) = n! a_n,  sum_n a_n t^n = exp(sum_i y_i t^i),

and with y = d the series is G/7, with y = e it is H/(49x): the weights
i d_i and i e_i are the G and H rows' small ints, so the kernel runs over
ints of O(sqrt(n)) bits (208 at n = 1024), where the binomial Bell
recurrence of :mod:`qbell.bell` carries B_n = n! a_n (8977 bits).
:func:`qbell.bell.complete_bell_sequence` stays the oracle that the tests
hold this route to.  The right side reads the exact partition table of
``partition_count``.

This module also sweeps the three classical partition congruences
(p(5k+4) mod 5, p(7k+5) mod 7, p(11k+6) mod 11); the sweep needs residues
only and reads a local table of p(n) mod 385 from ``partition_residues``.
"""

from fractions import Fraction
from math import factorial, lcm

from .numtheory import SUM_7N5
from .partitions import partition_count, partition_residues
from .reports import VerificationReport
from .series import BELL_IDENTITY, residue_class_report

__all__ = [
    "theorem_lhs",
    "theorem_rhs",
    "verify_theorem",
    "verify_congruences",
]


def theorem_lhs(n: int) -> Fraction:
    """7 B_n(1! d_1, ..., n! d_n) + 49 n B_{n-1}(1! e_1, ..., (n-1)! e_{n-1}).

    The last left side of ``verify_theorem(n)``, returned as a ``Fraction``
    so a caller can check that it is an integer.
    """
    if n < 1:
        raise ValueError("the identity is stated for n >= 1")
    return Fraction(verify_theorem(n).entries[-1].computed)


def theorem_rhs(n: int) -> int:
    """n! * p(7n + 5)."""
    if n < 1:
        raise ValueError("the identity is stated for n >= 1")
    return factorial(n) * partition_count(SUM_7N5.modulus * n + SUM_7N5.residue)


def verify_theorem(max_n: int) -> VerificationReport:
    """Check lhs == rhs, exactly, for every 1 <= n <= max_n: the Bell side of SUM_7N5.

    The right side is an int, so equality also means the left side is an
    integer; both sides are carried verbatim in the report so any failure
    is diagnosable without re-running.
    """
    return residue_class_report(BELL_IDENTITY, max_n)


_CONGRUENCE_FAMILIES = ((5, 4), (7, 5), (11, 6))
_CONGRUENCE_MODULUS = lcm(*(modulus for modulus, _ in _CONGRUENCE_FAMILIES))  # 385
# The sweep's size parameter and the smallest size it checks, read by the front end too
SWEEP_SIZE_NAME = "max_k"
SWEEP_SMALLEST_SIZE = 0


def verify_congruences(max_k: int) -> VerificationReport:
    """Check p(5k+4) = 0 mod 5, p(7k+5) = 0 mod 7, p(11k+6) = 0 mod 11.

    One entry per (modulus, k) pair for 0 <= k <= max_k, grouped by modulus
    in the order 5, 7, 11; the entry index is the partition argument and
    the computed value is the residue.  The residues come from one table of
    p(n) mod 385 by ``partition_residues``, filled once to the largest index
    and local to this call; the exact partition table is neither read nor
    grown.
    """
    if max_k < SWEEP_SMALLEST_SIZE:
        raise ValueError(f"{SWEEP_SIZE_NAME} must be >= {SWEEP_SMALLEST_SIZE}")
    largest = max(modulus * max_k + offset for modulus, offset in _CONGRUENCE_FAMILIES)
    residues = partition_residues(largest, _CONGRUENCE_MODULUS)
    rows = (
        (n, residues[n] % modulus, 0)
        for modulus, offset in _CONGRUENCE_FAMILIES
        for n in range(offset, modulus * max_k + offset + 1, modulus)
    )
    return VerificationReport.from_rows("ramanujan-congruences", rows)
