"""Reference values computed without qbell, for checking its outputs.

Each routine uses a different algorithm from the one qbell uses for the
same quantity, so agreement between the two is evidence, not an echo:

- p(n): adding one part size at a time (coin-change DP), where qbell uses
  Euler's pentagonal recurrence; large n are checked against sympy's
  Hardy-Ramanujan-Rademacher evaluation.
- sigma(n): a divisor sieve, where qbell uses trial division.
- d_n, e_n: the log-derivative forms 4 sigma(n)/n - 3 sigma(n/7)/(n/7) and
  8 sigma(n)/n - 7 sigma(n/7)/(n/7), where qbell uses the 7-adic closed form.
- B_n(x): the sum over integer partitions of n, where qbell runs the
  binomial recurrence.
"""

from fractions import Fraction
from math import factorial, prod


def partition_table(limit: int) -> list[int]:
    """[p(0), ..., p(limit)] by the part-by-part DP."""
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            p[n] += p[n - part]
    return p


def partition_sympy(n: int) -> int:
    """p(n) from sympy, which is installed but is no dependency of qbell."""
    from sympy.functions.combinatorial.numbers import partition

    return int(partition(n))


def sigma_table(limit: int) -> list[int]:
    """[0, sigma(1), ..., sigma(limit)] by adding every d to its multiples."""
    s = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            s[m] += d
    return s


def _log_coefficient(sig: list[int], n: int, outer: int, inner: int) -> Fraction:
    # coefficient of x^n in -outer ln E(x) + inner ln E(x^7), with
    # ln E(x) = -sum sigma(n)/n x^n and E(x) = prod (1 - x^k)
    value = Fraction(outer * sig[n], n)
    if n % 7 == 0:
        value -= Fraction(inner * sig[n // 7], n // 7)
    return value


def d_reference(sig: list[int], n: int) -> Fraction:
    """d_n, the coefficient of x^n in ln(G/7) = 3 ln E(x^7) - 4 ln E(x)."""
    return _log_coefficient(sig, n, 4, 3)


def e_reference(sig: list[int], n: int) -> Fraction:
    """e_n, the coefficient of x^n in ln(H/(49x)) = 7 ln E(x^7) - 8 ln E(x)."""
    return _log_coefficient(sig, n, 8, 7)


def _multiplicities(n: int, largest: int):
    # partitions of n into parts <= largest, as {part: multiplicity}
    if n == 0:
        yield {}
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _multiplicities(n - part, part):
            counts = dict(rest)
            counts[part] = counts.get(part, 0) + 1
            yield counts


def complete_bell_reference(n: int, xs) -> Fraction:
    """B_n(x_1..x_n) = sum over partitions of n of n!/prod(m_i! i!^m_i) prod x_i^m_i."""
    total = Fraction(0)
    for counts in _multiplicities(n, n):
        weight = Fraction(
            factorial(n),
            prod(factorial(m) * factorial(i) ** m for i, m in counts.items()),
        )
        total += weight * prod(Fraction(xs[i - 1]) ** m for i, m in counts.items())
    return total
