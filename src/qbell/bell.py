"""Partial and complete exponential Bell polynomials over exact rationals.

Arguments are passed as plain sequences; ``args[i - 1]`` holds the formula
variable x_i, so all docstrings below speak in 1-based indices.
"""

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import factorial, lcm
from operator import add, mul

from .series import TruncatedSeries

__all__ = [
    "partial_bell",
    "partial_bell_by_enumeration",
    "complete_bell",
    "complete_bell_sequence",
    "ENUMERATION_LIMIT",
]


def partial_bell(n: int, k: int, args: Sequence) -> Fraction:
    """Partial Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    By the exponential formula (Comtet, *Advanced Combinatorics*, 1974, 3.3),
        B_{n,k}(x) = (n!/k!) [t^n] S(t)^k,  S(t) = sum_{i=1}^{n-k+1} x_i t^i / i!,
    with the power taken by :meth:`TruncatedSeries.__pow__` (Miller's
    recurrence; a zero x_1 is shifted out there).
    """
    if k < 1 or k > n:
        raise ValueError("partial_bell requires 1 <= k <= n")
    if len(args) < n - k + 1:
        raise ValueError(f"need x_1..x_{n - k + 1}, got {len(args)} arguments")
    terms = (Fraction(x) / factorial(i) for i, x in enumerate(args[: n - k + 1], start=1))
    power = TruncatedSeries([0, *terms], n) ** k
    return Fraction(factorial(n), factorial(k)) * power[n]


ENUMERATION_LIMIT = 20


def partial_bell_by_enumeration(n: int, k: int, args: Sequence) -> Fraction:
    """B_{n,k} straight from the definition.

    Sums n!/(j_1! ... j_{n-k+1}!) * prod_i (x_i/i!)^{j_i} over every index
    tuple (j_1, ..., j_{n-k+1}) with sum j_i = k and sum i*j_i = n.  The
    tuple enumeration is exponential, hence the n <= 20 guard; this path
    exists as an oracle for the series route above.
    """
    if k < 1 or k > n:
        raise ValueError("partial_bell_by_enumeration requires 1 <= k <= n")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"definitional enumeration is guarded to n <= {ENUMERATION_LIMIT}")
    xs = [Fraction(a) for a in args]
    width = n - k + 1
    if len(xs) < width:
        raise ValueError(f"need x_1..x_{width}, got {len(xs)} arguments")
    total = Fraction(0)
    for tup in _index_tuples(width, k, n, 1):
        weight = Fraction(factorial(n))
        for i, j in enumerate(tup, start=1):
            if j:
                weight *= Fraction(xs[i - 1], factorial(i)) ** j / factorial(j)
        total += weight
    return total


def _index_tuples(width: int, parts: int, weight: int, position: int) -> Iterator[tuple]:
    # tuples (j_position, ...) of given width with sum j = parts and
    # sum i*j_i = weight; lexicographic in j_position
    if width == 0:
        if parts == 0 and weight == 0:
            yield ()
        return
    for j in range(min(parts, weight // position) + 1):
        for rest in _index_tuples(width - 1, parts - j, weight - position * j, position + 1):
            yield (j,) + rest


def complete_bell(n: int, args: Sequence) -> Fraction:
    """Complete Bell polynomial B_n(x_1, ..., x_n), with B_0 = 1.

    Equals sum_{k=1}^{n} B_{n,k}; computed by the single recurrence
        B_{m+1} = sum_{j=0}^{m} C(m, j) x_{j+1} B_{m-j}
    as described under :func:`complete_bell_sequence`.
    """
    seq, _, power = _scaled_complete_bell(n, args)
    return Fraction(seq[n], power)


def complete_bell_sequence(n: int, args: Sequence) -> list[Fraction]:
    """[B_0, B_1, ..., B_n] for the given arguments, in one O(n^2) pass.

    Oracle for the Bell side of :func:`qbell.series.residue_class_report`,
    which runs the exponential formula; the tests hold it to this sequence
    on the arguments i! d_i and i! e_i.  No report calls it.

    The recurrence runs over ints: with b the lcm of the denominators of
    x_1..x_n and y_i = b^i x_i, the scaling rule
        B_m(b x_1, b^2 x_2, ..., b^m x_m) = b^m B_m(x_1, ..., x_m)
    gives B_m = B_m(y) / b^m, one division per entry at the end.
    """
    seq, b, _ = _scaled_complete_bell(n, args)
    return [Fraction(value, b**m) for m, value in enumerate(seq)]


def _scaled_complete_bell(n: int, args: Sequence) -> tuple[list[int], int, int]:
    # ([B_0(y), ..., B_n(y)], b, b^n) with y_i = b^i x_i, each an int; the
    # recurrence is homogeneous of weight m in the x_i (x_i has weight i), so
    # B_m(y) = b^m B_m(x).  row holds C(m, 0..m), advanced by Pascal's rule.
    if n < 0:
        raise ValueError("complete_bell is defined for n >= 0")
    if len(args) < n:
        raise ValueError(f"need x_1..x_{n}, got {len(args)} arguments")
    xs = [a if type(a) is Fraction else Fraction(a) for a in args[:n]]
    b = lcm(*(x.denominator for x in xs))
    ys = []
    power = 1
    for x in xs:
        power *= b
        ys.append(x.numerator * (power // x.denominator))
    seq = [1]
    row = [1]
    for _ in range(n):
        seq.append(sum(map(mul, map(mul, row, ys), reversed(seq))))
        row = [1, *map(add, row, row[1:]), 1]
    return seq, b, power
