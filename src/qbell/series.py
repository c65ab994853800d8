"""Truncated formal power series with exact rational coefficients.

A :class:`TruncatedSeries` represents a power series modulo x^(K+1) as a
dense tuple of K+1 exact numbers: an ``int`` where the value is integral,
else a reduced ``Fraction``, so integer series such as G and H run over
ints.  Arithmetic between two series truncates to the smaller order and
never extrapolates; every constructor and method states the order of what
it returns.  Values are immutable, so concurrent use needs no coordination.

The module also holds the one report that every ``verify`` target runs,
``residue_class_report``, and its rows, ``ResidueCheck``: each checks p on
residue classes, by series on the Bell or the product side, or by residues
alone on the congruence side.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from itertools import accumulate, count
from operator import add, attrgetter, mul

from .numtheory import SUM_5K4, SUM_7N5, EtaQuotient, G, H, _weight
from .partitions import (PARTITION_LIMIT, _divide_by_euler, _pack, _slot_width, _unpack,
                         partition_count, partition_residues, pentagonal_numbers)
from .reports import VerificationReport, format_exact

__all__ = [
    "TruncatedSeries",
    "euler_product",
    "series_g",
    "series_h",
    "extract_log_coefficients",
    "verify_p7n5_identity",
    "verify_p5k4_identity",
    "coefficient_lines",
]


def _quotient(a, b=1) -> int | Fraction:
    """a / b exactly: an int when it is integral, else a reduced Fraction."""
    if type(a) is int and type(b) is int:  # never a / b: that is a float
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a if type(a) is Fraction and b == 1 else Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


class TruncatedSeries:
    """Exact power series modulo x^(order+1)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable = (), order: int | None = None):
        # an int is its own normal form; only other values pass through _quotient
        coeffs = [c if type(c) is int else _quotient(c) for c in coefficients]
        if order is None:
            if not coeffs:
                raise ValueError("need coefficients or an explicit order")
        else:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(coeffs) > order + 1:
                del coeffs[order + 1:]
            else:
                coeffs.extend([0] * (order + 1 - len(coeffs)))
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls((1,), order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coefficient=1) -> TruncatedSeries:
        """coefficient * x^exponent at the given order (zero if exponent > order)."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        if exponent > order:
            return cls.zero(order)
        return cls([0] * exponent + [coefficient], order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[int | Fraction, ...]:
        return self._coeffs

    def __getitem__(self, exponent: int) -> int | Fraction:
        if not 0 <= exponent <= self.order:
            raise IndexError(f"exponent {exponent} outside 0..{self.order}")
        return self._coeffs[exponent]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(map(format_exact, self._coeffs[:8]))
        if self.order >= 8:
            shown += ", ..."
        return f"TruncatedSeries(order={self.order}, [{shown}])"

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            k = min(self.order, other.order)
            return TruncatedSeries(
                [self._coeffs[i] + other._coeffs[i] for i in range(k + 1)]
            )
        if isinstance(other, (int, Fraction)):
            coeffs = list(self._coeffs)
            coeffs[0] += other
            return TruncatedSeries(coeffs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            k = min(self.order, other.order)
            return TruncatedSeries(
                [self._coeffs[i] - other._coeffs[i] for i in range(k + 1)]
            )
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> TruncatedSeries:
        return (-self) + other

    def __mul__(self, other) -> TruncatedSeries:
        """Cauchy product, truncated to the smaller operand order."""
        if isinstance(other, TruncatedSeries):
            k = min(self.order, other.order)
            a, b = self._coeffs, other._coeffs
            out = [0] * (k + 1)
            for i in range(k + 1):
                ai = a[i]
                if not ai:
                    continue
                for j in range(k + 1 - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
            return TruncatedSeries(out)
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([_quotient(c, other) for c in self._coeffs])
        return NotImplemented

    def __pow__(self, exponent: int) -> TruncatedSeries:
        """self**a for every integer a, by J.C.P. Miller's power recurrence.

        With c_0 != 0, g = self**a has g_0 = c_0^a and
            n c_0 g_n = sum_{i=1}^{n} ((a+1) i - n) c_i g_{n-i},
        which is self * g' = a self' g read coefficient by coefficient
        (Knuth, TAOCP vol. 2, 4.7).  The sum runs over the nonzero c_i only.
        A zero constant term x^v is shifted out for a >= 1; a negative
        power of such a series does not exist.
        """
        if not isinstance(exponent, int):
            return NotImplemented
        k = self.order
        if exponent == 0:
            return TruncatedSeries.one(k)
        c = self._coeffs
        v = next((i for i, ci in enumerate(c) if ci), k + 1)
        if v and exponent < 0:
            raise ValueError("series with zero constant term has no inverse")
        shift = v * exponent
        if shift > k:
            return TruncatedSeries.zero(k)
        c0 = c[v]
        terms = k + 1 - shift
        support = [(i, (exponent + 1) * i, c[v + i]) for i in range(1, terms) if c[v + i]]
        g = [c0**exponent if exponent > 0 else _quotient(1, c0**-exponent)]
        for n in range(1, terms):
            acc = 0
            for i, weight, ci in support:
                if i > n:
                    break
                acc += (weight - n) * ci * g[n - i]
            g.append(_quotient(acc, n * c0))
        return TruncatedSeries([0] * shift + g)

    # -- series-specific operations ---------------------------------------

    def inverse(self) -> TruncatedSeries:
        """t with self * t = 1 through x^order: Miller's recurrence at a = -1."""
        return self ** -1

    def substitute_power(self, r: int) -> TruncatedSeries:
        """self(x^r) at the same order: coefficient of x^(r*i) is c_i."""
        if r < 1:
            raise ValueError("substitution power must be >= 1")
        k = self.order
        out = [0] * (k + 1)
        out[::r] = self._coeffs[: k // r + 1]
        return TruncatedSeries(out)

    def log(self) -> TruncatedSeries:
        """ln(self), requiring constant term exactly 1.

        Differential recurrence (from L' * self = self'):
            n L_n = n c_n - sum_{i=1}^{n-1} i L_i c_{n-i},
        run on the weights i L_i, which are ints for G/7 and H/(49x).
        """
        c = self._coeffs
        if c[0] != 1:
            raise ValueError("log needs constant term exactly 1")
        ws, out = [], [0]  # ws[i - 1] = i L_i
        for n in range(1, len(c)):
            ws.append(n * c[n] - sum(map(mul, ws, reversed(c[1:n]))))
            out.append(_quotient(ws[-1], n))
        return TruncatedSeries(out)

    def exp(self) -> TruncatedSeries:
        """exp(self), constant term 0: ``_exp`` solves n E_n = sum_{i=1..n} (i c_i) E_{n-i}."""
        c = self._coeffs
        if c[0] != 0:
            raise ValueError("exp needs constant term 0")
        return TruncatedSeries(
            _exp([_quotient(i * c[i].numerator, c[i].denominator) for i in range(1, len(c))]))


# -- the exp recurrence ----------------------------------------------------

# Ranges of at most this many entries run the recurrence step by step: on shorter ranges a
# packed product costs more than the small multiply-adds it replaces.  32 was the fastest of
# the sizes tried, 8 to 192, on the G and H rows at n = 384 and at n = 1523.
_LEAF = 32


def _exp(ws: list) -> list:
    """E_0 .. E_len(ws) of exp(sum_i (ws[i-1] / i) x^i), by n E_n = sum_{i=1..n} ws[i-1] E_(n-i)."""
    e = [1, *ws]  # e[n] holds the terms of n E_n added so far, here E_0 w_n, then E_n
    _exp_range(ws, e)
    return e


def _exp_range(ws: list, e: list) -> None:
    """Solve e[1:] in place for any weights, e[n] holding E_0 w_n on entry.

    A range of at most ``_LEAF`` entries runs step by step, E_n an int when
    n divides its sum, else a reduced ``Fraction``.  A longer one solves its
    first half, adds that half's terms to the second half, and solves the
    second half.  While every weight is a non-negative int and every E so
    far an int, the terms are the middle slots of one product of packed
    values, in slots as wide as max(E) max(w) (mid - lo), so none carries; a
    bound of 0 is a zero product, skipped.  From the first other weight or E
    on, ``_exp_node`` adds them by plain multiply-adds, so a wrong weight
    costs time only from its own index on.
    """
    packed = all(type(w) is int and w >= 0 for w in ws)

    def solve(lo: int, hi: int) -> None:
        nonlocal packed
        if hi - lo <= _LEAF:
            for n in range(lo, hi):
                e[n], r = divmod(total := e[n] + sum(map(mul, ws, reversed(e[lo:n]))), n)
                if r:
                    e[n], packed = Fraction(total, n), False
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        if packed:
            # E_lo .. E_(mid-1) meet w_1 .. w_(hi-lo-1) on mid .. hi-1: slots mid-lo-1 .. hi-lo-2
            # of the product, since slot i of the packed weights holds w_(i+1)
            solved, weights = e[lo:mid], ws[:hi - lo - 1]
            bound = max(solved) * max(weights) * (mid - lo)
            if bound:
                width = _slot_width(bound)
                product = _pack(solved, width) * _pack(weights, width)
                e[mid:hi] = map(add, e[mid:hi],
                                _unpack(product >> 8 * width * (mid - lo - 1), hi - mid, width))
        else:
            _exp_node(ws, e, lo, mid, hi)
        solve(mid, hi)

    solve(1, len(e))


def _exp_node(ws: list, e: list, lo: int, mid: int, hi: int) -> None:
    """Add the terms of E_lo .. E_(mid-1) to e[mid:hi] by plain multiply-adds, any values."""
    solved = e[lo:mid]
    for n in range(mid, hi):
        e[n] += sum(map(mul, ws[n - mid:n - lo][::-1], solved))


# -- named products -------------------------------------------------------


def _jacobi_terms(order: int) -> list[tuple[int, int]]:
    """(m(m+1)/2, (-1)^m (2m+1)) for m >= 1 with m(m+1)/2 <= order: E(x)^3 past its constant 1.

    Jacobi's identity (Hardy & Wright, Thm 357):
        (x;x)_inf^3 = sum_{m>=0} (-1)^m (2m+1) x^(m(m+1)/2).
    """
    terms, m = [], 1
    while (j := m * (m + 1) // 2) <= order:
        terms.append((j, -2 * m - 1 if m & 1 else 2 * m + 1))
        m += 1
    return terms


def euler_product(order: int) -> TruncatedSeries:
    """(x;x)_inf = prod_{k>=1} (1 - x^k), exact through x^order.

    Built from Euler's pentagonal number theorem,
        1 + sum_{k>=1} (-1)^k (x^{k(3k-1)/2} + x^{k(3k+1)/2}),
    whose coefficients at the generalized pentagonal numbers run - - + +
    and repeat.  Factors (1 - x^j) with j > order cannot touch
    coefficients <= order, so the truncation at x^order is exact.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for i, g in enumerate(pentagonal_numbers(order)):
        coeffs[g] = 1 if i & 2 else -1
    return TruncatedSeries(coeffs)


def _divide_by_euler_power(coeffs: list[int], b: int) -> None:
    """Divide coeffs, a series through x^(len(coeffs) - 1), by E(x)^b in place.

    E^b is (E^3)^(b // 3) E^(b % 3).  An E^3 pass divides by Jacobi's
    sparse series, whose terms (j, D_j) ``_jacobi_terms`` lists, D_0 = 1:
        out_n = N_n - sum_{j>=1} D_j out_(n-j)
    over the nonzero D_j only, for n upwards.  An E pass is the exact
    partition table's block kernel, ``_divide_by_euler``, on the pentagonal
    offsets: a report's two sides divide different numerators by it, so a
    fault in it fails the report.  No step divides, so ints stay ints.
    """
    order = len(coeffs) - 1
    cube, offsets = _jacobi_terms(order), pentagonal_numbers(order)
    for _ in range(b // 3):
        for n in range(1, order + 1):
            acc = coeffs[n]
            for j, d in cube:
                if j > n:
                    break
                acc -= d * coeffs[n - j]
            coeffs[n] = acc
    for _ in range(b % 3):
        quotient = []
        _divide_by_euler(quotient, coeffs, order + 1, offsets)
        coeffs[:] = quotient


def _add_row(total: list, row: EtaQuotient, values, step: int = 1) -> None:
    """Add row.scale x^row.shift f(x^step) into total in place, f's coefficients being values.

    Terms past total's end are dropped, and zero values skipped: ``big + 0`` copies big.
    """
    for n, value in zip(range(row.shift, len(total), step), values):
        if value:
            total[n] += row.scale * value


def _eta_sum(rows: Iterable[EtaQuotient], order: int) -> TruncatedSeries:
    """The sum of the rows scale x^shift E(x^r)^a / E(x)^b through x^order, order >= 0.

    The product side's one builder, for one row or more.  With the rows
    sorted by b, largest first, ``_add_row`` adds row i's numerator, E(y)^a
    at order // r with y = x^r, into one list, which is then divided in place
    by E^(b_i - b_(i+1)), b_(m+1) = 0 after the last row m: the whole sum is
    divided by its largest E^b once, so G + H runs two E^3 and two E passes,
    not three of each.  No dense E^-b is built; ``inverse`` and negative
    powers remain the tests' oracle for the division.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    chain = sorted(rows, key=attrgetter("b"), reverse=True)
    total = [0] * (order + 1)
    for row, below in zip(chain, [*(row.b for row in chain[1:]), 0]):
        _add_row(total, row, (euler_product(order // row.r) ** row.a).coefficients, row.r)
        _divide_by_euler_power(total, row.b - below)
    return TruncatedSeries(total)


def series_g(order: int) -> TruncatedSeries:
    """G(x) = 7 (x^7;x^7)_inf^3 / (x;x)_inf^4 through x^order."""
    return _eta_sum((G,), order)


def series_h(order: int) -> TruncatedSeries:
    """H(x) = 49 x (x^7;x^7)_inf^7 / (x;x)_inf^8 through x^order."""
    return _eta_sum((H,), order)


def extract_log_coefficients(row: EtaQuotient, order: int) -> list[int | Fraction]:
    """Coefficients 1..order of ln(row / (scale x^shift)) for a row of the eta-quotient table.

    The check-only log route to each row's weights: the tests hold it to the
    closed forms of :mod:`qbell.numtheory`, and no report or command calls it.
    Dividing out the row's scale x^shift removes the constants whose logs
    are not rational, leaving a series with constant term 1 whose log lives
    entirely in the rationals.  For G and H the returned lists are the d and
    e coefficient sequences of qbell.numtheory.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = _eta_sum((row,), order + row.shift).coefficients[row.shift:]
    return list((TruncatedSeries(coeffs) / row.scale).log().coefficients[1:])


# -- coefficient-level verification ----------------------------------------


# Each check's label, sum and side, written once: the theorem, eq2, eq3 and the classical
# congruences, whose sum is its (modulus, residue) families (verify reads these)
ResidueCheck = namedtuple("ResidueCheck", "label sum side")
BELL_IDENTITY = ResidueCheck("bell-identity", SUM_7N5, "bell")
P5K4_SERIES = ResidueCheck("p5k4-series", SUM_5K4, "product")
P7N5_SERIES = ResidueCheck("p7n5-series", SUM_7N5, "product")
RAMANUJAN_CONGRUENCES = ResidueCheck(
    "ramanujan-congruences", ((5, 4), (7, 5), (11, 6)), "congruence")

# Each side's size parameter and the smallest size it checks, read by the report and by the
# front end, whose flag and lower bound they give
SIZE_NAME = {"bell": "max_n", "product": "order", "congruence": "max_k"}
SMALLEST_SIZE = {"bell": 1, "product": 0, "congruence": 0}


def size_cap(check: ResidueCheck) -> int:
    """The largest size whose indices modulus n + residue PARTITION_LIMIT admits on every class.

    The classes are those on which the check reads p(modulus n + residue):
    each family of the congruence side, the one sum of the others.
    """
    classes = check.sum if check.side == "congruence" else (check.sum[:2],)
    return min((PARTITION_LIMIT - r) // m for m, r in classes)


def residue_class_report(check: ResidueCheck, size: int) -> VerificationReport:
    """Check p(modulus n + residue) on the check's classes for SMALLEST_SIZE[side] <= n <= size.

    The "product" side checks coefficient n of the sum of its rows' eta
    quotients, built in one chain by ``_eta_sum``.  The "bell" side adds
    each row, scale x^shift exp(sum c_i x^i) from its weights i c_i =
    _weight(i, row) by ``_exp``, into one list, and checks n! times both
    values: by the exponential formula, n! [x^n] of a row is scale
    (n!/(n-shift)!) B_(n-shift)(1! c_1, 2! c_2, ...), so ``BELL_IDENTITY`` is
    the theorem of :mod:`qbell.identity`; a wrong weight gives a ``Fraction``
    from its own index on, not an error, and both values are scaled only
    where they differ.  The "congruence" side checks each family's residues
    against 0 on one table from ``partition_residues``, given each family's
    (modulus, last index), not the exact table: it runs mod the moduli's lcm
    and narrows as each family ends.  The side and the size are checked,
    then the largest p(n) is read, which checks its bound and fills its
    table, before other work.
    """
    first = SMALLEST_SIZE.get(check.side)
    if first is None:
        raise ValueError(f"side must be 'bell', 'product' or 'congruence', not {check.side!r}")
    if size < first:
        raise ValueError(f"{SIZE_NAME[check.side]} must be >= {first}")
    if check.side == "congruence":
        residues = partition_residues([(m, m * size + r) for m, r in check.sum])
        rows = ((n, residues[n] % m, 0)
                for m, r in check.sum for n in range(r, m * size + r + 1, m))
        return VerificationReport.from_rows(check.label, rows)
    bell = check.side == "bell"
    modulus, residue, eta_rows = check.sum
    partition_count(modulus * size + residue)  # the bound and a one-time fill, before the build
    if bell:
        built = [0] * (size + 1)
        for row in eta_rows:
            _add_row(built, row, _exp([_weight(i, row) for i in range(1, size + 1)]))
    else:
        built = _eta_sum(eta_rows, size).coefficients
    rows = ((n, computed, partition_count(modulus * n + residue))
            for n, computed in zip(count(first), built[first:]))
    if bell:  # n! times both values, one int when they agree; a product-side row is uncopied
        scales = accumulate(range(1, size + 1), mul)
        rows = ((n, lhs := scale * computed, lhs if computed == expected else scale * expected)
                for (n, computed, expected), scale in zip(rows, scales))
    return VerificationReport.from_rows(check.label, rows)


def verify_p7n5_identity(order: int) -> VerificationReport:
    """Check that coefficient n of G + H equals p(7n+5) for 0 <= n <= order."""
    return residue_class_report(P7N5_SERIES, order)


def verify_p5k4_identity(order: int) -> VerificationReport:
    """Check that coefficient k of 5 (x^5;x^5)_inf^5 / (x;x)_inf^6 equals p(5k+4)."""
    return residue_class_report(P5K4_SERIES, order)


def coefficient_lines(series: TruncatedSeries) -> list[str]:
    """One line per coefficient: "index<TAB>num/den", "/den" omitted when 1."""
    return [f"{i}\t{format_exact(c)}" for i, c in enumerate(series.coefficients)]
