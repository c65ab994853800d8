"""Both sides of the Bell-polynomial form of the p(7n+5) identity.

For n >= 1, with d and e the coefficient sequences from
:mod:`qbell.numtheory`:

    7 B_n(1! d_1, ..., n! d_n) + 49 n B_{n-1}(1! e_1, ..., (n-1)! e_{n-1})
        = n! p(7n + 5).

This module evaluates the two sides independently and reports on their
equality, and it sweeps the three classical partition congruences
(p(5k+4) mod 5, p(7k+5) mod 7, p(11k+6) mod 11).  The right side reads
the exact partition table of ``partition_count``; the congruence sweep
needs residues only and reads a local table of p(n) mod 385 from
``partition_residues``.

The left side comes from the exponential formula (Comtet, *Advanced
Combinatorics*, 1974, 3.3):

    B_n(1! y_1, ..., n! y_n) = n! a_n,  sum_n a_n t^n = exp(sum_i y_i t^i),

so n a_n = sum_{i=1..n} (i y_i) a_{n-i}, run by ``TruncatedSeries.exp``.
With y = d, the weights i d_i of the G row of :mod:`qbell.numtheory`'s
table are small ints and a_n = [x^n] G/7 is an int of O(sqrt(n)) bits
(208 at n = 1024), where the binomial Bell recurrence of :mod:`qbell.bell`
carries B_n = n! a_n (8977 bits); the same holds for e and H/(49x).
:func:`qbell.bell.complete_bell_sequence` stays the oracle that the tests
hold this route to.

``theorem_lhs`` and ``verify_theorem`` take the left side from one helper,
and both reports here pass an entry exactly when its two sides are equal
(``VerificationReport.from_rows``).
"""

from fractions import Fraction
from math import factorial, prod

from .numtheory import SUM_7N5, d_coefficient, e_coefficient
from .partitions import partition_count, partition_residues
from .reports import VerificationReport
from .series import TruncatedSeries

__all__ = [
    "theorem_lhs",
    "theorem_rhs",
    "verify_theorem",
    "verify_congruences",
]


def _exp_formula(n: int, coefficient) -> tuple:
    """(a_0, ..., a_n) with sum_m a_m t^m = exp(sum_{i>=1} coefficient(i) t^i).

    The series exp runs over ints for the true d and e.  A wrong
    coefficient whose weight i coefficient(i) is not an integer carries on
    as a ``Fraction``, so it shows up as a non-integer left side, not an
    error.
    """
    return TruncatedSeries([0, *map(coefficient, range(1, n + 1))]).exp().coefficients


def _left_sides(max_n: int) -> list:
    """The left sides n! (7 a_n + 49 b_{n-1}) of ``theorem_lhs`` for 1 <= n <= max_n."""
    terms = [(row.scale, row.shift, _exp_formula(max_n - row.shift, coefficient))
             for row, coefficient in zip(SUM_7N5.rows, (d_coefficient, e_coefficient))]
    sides = []
    n_factorial = 1
    for n in range(1, max_n + 1):
        n_factorial *= n
        sides.append(n_factorial * sum(scale * a[n - shift] for scale, shift, a in terms))
    return sides


def theorem_lhs(n: int) -> Fraction:
    """7 B_n(1! d_1, ..., n! d_n) + 49 n B_{n-1}(1! e_1, ..., (n-1)! e_{n-1}).

    By the exponential formula this is n! (7 a_n + 49 b_{n-1}), with a and
    b the coefficients of exp(sum d_i t^i) and exp(sum e_i t^i).  The value
    is returned as a ``Fraction``, so a caller can check that it is an
    integer.
    """
    if n < 1:
        raise ValueError("the identity is stated for n >= 1")
    return Fraction(_left_sides(n)[-1])


def theorem_rhs(n: int) -> int:
    """n! * p(7n + 5)."""
    if n < 1:
        raise ValueError("the identity is stated for n >= 1")
    return factorial(n) * partition_count(SUM_7N5.modulus * n + SUM_7N5.residue)


def verify_theorem(max_n: int) -> VerificationReport:
    """Check lhs == rhs, exactly, for every 1 <= n <= max_n.

    The right side is an int, so equality also means the left side is an
    integer; both sides are carried verbatim in the report so any failure
    is diagnosable without re-running.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    theorem_rhs(max_n)  # fill the table once, up front
    rows = ((n, lhs, theorem_rhs(n)) for n, lhs in enumerate(_left_sides(max_n), 1))
    return VerificationReport.from_rows("bell-identity", rows)


_CONGRUENCE_FAMILIES = ((5, 4), (7, 5), (11, 6))
_CONGRUENCE_MODULUS = prod(modulus for modulus, _ in _CONGRUENCE_FAMILIES)  # 385


def verify_congruences(max_k: int) -> VerificationReport:
    """Check p(5k+4) = 0 mod 5, p(7k+5) = 0 mod 7, p(11k+6) = 0 mod 11.

    One entry per (modulus, k) pair for 0 <= k <= max_k, grouped by modulus
    in the order 5, 7, 11; the entry index is the partition argument and
    the computed value is the residue.  The residues come from one table of
    p(n) mod 385 by ``partition_residues``, filled once to the largest index
    and local to this call; the exact partition table is neither read nor
    grown.
    """
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    largest = max(modulus * max_k + offset for modulus, offset in _CONGRUENCE_FAMILIES)
    residues = partition_residues(largest, _CONGRUENCE_MODULUS)
    rows = (
        (n, residues[n] % modulus, 0)
        for modulus, offset in _CONGRUENCE_FAMILIES
        for n in range(offset, modulus * max_k + offset + 1, modulus)
    )
    return VerificationReport.from_rows("ramanujan-congruences", rows)
