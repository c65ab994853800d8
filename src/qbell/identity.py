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
i d_i and i e_i are the G and H rows' small non-negative ints, so the exp
kernel of :mod:`qbell.series` solves the recurrence of the a_n by divide
and conquer on packed products, over ints of O(sqrt(n)) bits (208 at
n = 1024), where the binomial Bell recurrence of :mod:`qbell.bell`
carries B_n = n! a_n (8977 bits).  A wrong weight that makes some a_n a
fraction leaves the packed products from that index on, and the kernel
solves the rest exactly by plain multiply-adds, so the report shows it.
:func:`qbell.bell.complete_bell_sequence` stays the oracle that the tests
hold this route to.  The right side reads the exact partition table of
``partition_count``.

``verify_congruences`` is the same report's congruence side, the row
``RAMANUJAN_CONGRUENCES``: the three classical partition congruences
p(5k+4) = 0 mod 5, p(7k+5) = 0 mod 7 and p(11k+6) = 0 mod 11, checked on
residues only.
"""

from fractions import Fraction
from math import factorial

from .numtheory import SUM_7N5
from .partitions import partition_count
from .reports import VerificationReport
from .series import BELL_IDENTITY, RAMANUJAN_CONGRUENCES, residue_class_report

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


def verify_congruences(max_k: int) -> VerificationReport:
    """Check p(5k+4) = 0 mod 5, p(7k+5) = 0 mod 7, p(11k+6) = 0 mod 11 for 0 <= k <= max_k.

    One entry per (modulus, k), by modulus in the order 5, 7, 11: the index
    is the partition argument and the computed value its residue.
    """
    return residue_class_report(RAMANUJAN_CONGRUENCES, max_k)
