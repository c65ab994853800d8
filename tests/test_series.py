"""Truncated power series arithmetic and the named q-series expansions."""

import json
import math
import time
from fractions import Fraction
from functools import lru_cache
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbell.identity
import qbell.series
from qbell import cli, partitions
from qbell.numtheory import (
    G, H, P5K4, SUM_5K4, SUM_7N5, EtaQuotient, RamanujanSum, _weight, sigma,
)
from qbell.partitions import partition_count
from qbell.series import (
    ResidueCheck,
    TruncatedSeries,
    _quotient,
    coefficient_lines,
    euler_product,
    extract_log_coefficients,
    residue_class_report,
    series_g,
    series_h,
    verify_p5k4_identity,
    verify_p7n5_identity,
)

coeff_strategy = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


def series_strategy(order: int, constant=None):
    def build(coeffs):
        if constant is not None:
            coeffs = [Fraction(constant)] + coeffs[1:]
        return TruncatedSeries(coeffs)

    return st.lists(coeff_strategy, min_size=order + 1, max_size=order + 1).map(build)


def euler_product_by_direct_expansion(order: int) -> TruncatedSeries:
    """Multiply out (1-x)(1-x^2)... term by term, no pentagonal shortcut."""
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    for k in range(1, order + 1):
        for i in range(order, k - 1, -1):
            coeffs[i] -= coeffs[i - k]
    return TruncatedSeries(coeffs)


# -- container behaviour -----------------------------------------------------


def test_construction_and_accessors():
    s = TruncatedSeries([1, Fraction(1, 2), 0, -3])
    assert s.order == 3 and len(s) == 4 and len(TruncatedSeries([1], 4)) == 5
    assert s.coefficients == (1, Fraction(1, 2), 0, -3)
    assert s[1] == Fraction(1, 2)
    with pytest.raises(IndexError):
        s[4]
    with pytest.raises(IndexError):
        s[-1]


def test_construction_normalises_every_non_int_coefficient():
    # an int is stored as given; a bool or an integral Fraction becomes its int
    s = TruncatedSeries([True, Fraction(4, 2), Fraction(-3, 1), Fraction(1, 2)])
    assert s.coefficients == (1, 2, -3, Fraction(1, 2))
    assert [type(c) for c in s.coefficients] == [int, int, int, Fraction]


def test_named_constructors():
    assert TruncatedSeries.zero(3).coefficients == (0, 0, 0, 0)
    assert TruncatedSeries.one(2).coefficients == (1, 0, 0)
    assert TruncatedSeries.monomial(2, 4).coefficients == (0, 0, 1, 0, 0)
    assert TruncatedSeries.monomial(1, 3, 49).coefficients == (0, 49, 0, 0)


def test_equality_and_hash():
    a = TruncatedSeries([1, 2, 3])
    b = TruncatedSeries([Fraction(1), Fraction(2), Fraction(3)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != TruncatedSeries([1, 2])
    assert a != TruncatedSeries([1, 2, 4])


def test_construction_validation():
    with pytest.raises(ValueError, match="^need coefficients or an explicit order$"):
        TruncatedSeries((), None)
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        TruncatedSeries([1], -1)
    with pytest.raises(ValueError, match="^exponent must be >= 0$"):
        TruncatedSeries.monomial(-1, 3)
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        euler_product(-1)


def test_operations_with_an_unsupported_operand():
    s = TruncatedSeries([1, 2, 3])
    for method in ("__eq__", "__add__", "__sub__", "__mul__", "__truediv__"):
        assert getattr(s, method)("x") is NotImplemented
    assert s.__pow__(1.5) is NotImplemented
    assert (s == "x") is False and (s != "x") is True
    for apply in (
        lambda: s + "x",
        lambda: s - "x",
        lambda: s * "x",
        lambda: s / "x",
        lambda: s**1.5,
    ):
        with pytest.raises(TypeError):
            apply()


def test_repr_renders_coefficients_past_the_interpreter_digit_limit():
    assert repr(TruncatedSeries([10**5000, 1])) == f"TruncatedSeries(order=1, [1{'0' * 5000}, 1])"


@pytest.mark.parametrize(
    "order, shown",
    [
        (7, "0, 1, 2, 3, 4, 5, 6, 7"),
        (8, "0, 1, 2, 3, 4, 5, 6, 7, ..."),
        (9, "0, 1, 2, 3, 4, 5, 6, 7, ..."),
    ],
)
def test_repr_shows_eight_coefficients_and_elides_the_rest(order, shown):
    assert repr(TruncatedSeries(range(order + 1))) == f"TruncatedSeries(order={order}, [{shown}])"


def test_addition_and_scalars():
    a = TruncatedSeries([1, 2, 3])
    b = TruncatedSeries([0, 1, 1])
    assert (a + b).coefficients == (1, 3, 4)
    assert (a - b).coefficients == (1, 1, 2)
    assert (-a).coefficients == (-1, -2, -3)
    assert (a + 1).coefficients == (2, 2, 3)
    assert (1 + a).coefficients == (2, 2, 3)
    assert (a - Fraction(1, 2)).coefficients == (Fraction(1, 2), 2, 3)
    assert (1 - a).coefficients == (0, -2, -3)


def test_operations_truncate_to_smaller_order():
    long = TruncatedSeries([1, 1, 1, 1, 1, 1])
    short = TruncatedSeries([1, 1, 1])
    assert (long + short).order == 2
    assert (long * short).order == 2
    assert (long - short).order == 2


def test_multiplication_small_cases():
    x = TruncatedSeries.monomial(1, 4)
    assert ((1 + x) * (1 - x)).coefficients == (1, 0, -1, 0, 0)
    geo = TruncatedSeries([1, 1, 1, 1, 1])
    assert (geo * geo).coefficients == (1, 2, 3, 4, 5)
    assert (3 * geo).coefficients == (3, 3, 3, 3, 3)


def test_power_and_scalar_division():
    geo = TruncatedSeries([1, 1, 1, 1])
    assert geo**0 == TruncatedSeries.one(3)
    assert geo**3 == geo * geo * geo
    assert (geo / 2).coefficients == (
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
    )
    one_minus_x = TruncatedSeries([1, -1, 0, 0, 0])
    assert (one_minus_x**-2).coefficients == (1, 2, 3, 4, 5)
    x = TruncatedSeries.monomial(1, 4)
    assert (x**3).coefficients == (0, 0, 0, 1, 0)
    assert x**5 == TruncatedSeries.zero(4)
    assert TruncatedSeries.zero(4) ** 0 == TruncatedSeries.one(4)


# a random order-6 series behind 0..7 leading zeros, so bases with zero
# constant term (and the zero series) come up as often as units
power_base = st.tuples(series_strategy(6), st.integers(0, 7)).map(
    lambda pair: TruncatedSeries([0] * pair[1] + list(pair[0].coefficients), 6)
)


@settings(deadline=None, max_examples=60)
@given(s=power_base, e=st.integers(0, 4))
def test_power_matches_repeated_product(s, e):
    product = TruncatedSeries.one(6)
    for _ in range(e):
        product = product * s
    assert s**e == product
    if s[0]:
        assert s**-e * product == TruncatedSeries.one(6)
    elif e:
        with pytest.raises(ValueError):
            s**-e


@settings(deadline=None, max_examples=30)
@given(a=series_strategy(6), b=series_strategy(6), c=series_strategy(6))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- inverse, log, exp -------------------------------------------------------


def test_inverse_of_euler_product_counts_partitions():
    inv = euler_product(30).inverse()
    for n in range(31):
        assert inv[n] == partition_count(n)


@settings(deadline=None, max_examples=25)
@given(s=series_strategy(8, constant=1))
def test_inverse_round_trip(s):
    assert s * s.inverse() == TruncatedSeries.one(8)
    assert s.inverse().inverse() == s


def test_inverse_needs_nonzero_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1, 2]).inverse()
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1]) / TruncatedSeries([0, 1])


def test_division_by_series():
    num = TruncatedSeries([1, 0, 0, 0, 0])
    den = TruncatedSeries([1, -1, 0, 0, 0])
    assert (num / den).coefficients == (1, 1, 1, 1, 1)


def test_exp_of_x_gives_reciprocal_factorials():
    x = TruncatedSeries.monomial(1, 8)
    result = x.exp()
    for n in range(9):
        assert result[n] == Fraction(1, math.factorial(n))


def test_log_of_euler_product_gives_scaled_divisor_sums():
    # log of prod(1 - x^k) has coefficient -sigma(n)/n at x^n
    logs = euler_product(40).log()
    for n in range(1, 41):
        assert logs[n] == -Fraction(sigma(n), n)


@settings(deadline=None, max_examples=25)
@given(s=series_strategy(8, constant=1))
def test_log_then_exp_round_trip(s):
    assert s.log().exp() == s


@settings(deadline=None, max_examples=25)
@given(a=series_strategy(7, constant=0), b=series_strategy(7, constant=0))
def test_exp_turns_sums_into_products(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


def test_bell_rows_equal_their_eta_quotients_at_full_depth(monkeypatch):
    def node(*args):
        raise AssertionError("a row left the packed exp route")

    monkeypatch.setattr(qbell.series, "_exp_node", node)
    for row in (G, H, P5K4):
        assert bell_row(row, 1523) == list(qbell.series._eta_sum((row,), 1523).coefficients)


def bell_row(row, order):
    """The row as the Bell side builds it: scale x^shift exp(sum (w_i / i) x^i), w_i its weights."""
    built = [0] * (order + 1)
    weights = [_weight(i, row) for i in range(1, order + 1)]
    qbell.series._add_row(built, row, qbell.series._exp(weights))
    return built


def exp_loop(ws):
    """The exp kernel's oracle, step by step: n E_n is one sum of n products."""
    out = [1]
    for n in range(1, len(ws) + 1):
        out.append(_quotient(sum(map(mul, ws, reversed(out))), n))  # map stops at E_0
    return out


def exp_nodes(lo, hi):
    """(lo, mid, hi) of each node of the exp kernel's split of lo .. hi-1, in the order it runs."""
    if hi - lo <= qbell.series._LEAF:
        return []
    mid = (lo + hi) // 2
    return [*exp_nodes(lo, mid), (lo, mid, hi), *exp_nodes(mid, hi)]


def _euler_weights(exponents):
    """Weights w_n = sum_{k | n} k a_k: exp of their series is prod_k (1 - x^k)^(-a_k), all ints."""
    return [sum(k * a for k, a in enumerate(exponents[:n], 1) if n % k == 0)
            for n in range(1, len(exponents) + 1)]


_exp_lengths = st.integers(0, 3 * qbell.series._LEAF + 9)


def _lists(values):
    return _exp_lengths.flatmap(lambda n: st.lists(values, min_size=n, max_size=n))


_exp_weights = st.one_of(
    # integral E_n: the packed route runs to the end, on values past 8 bytes
    _lists(st.one_of(st.integers(0, 3), st.integers(0, 2**80))).map(_euler_weights),
    # mostly a fractional E_n: the plain route runs from the first one on
    _lists(st.integers(0, 10**6)),
    # negative ints, with integral E_n or not: the plain route runs throughout
    _lists(st.integers(-3, 3)).map(_euler_weights),
    _lists(st.integers(-10**6, 10**6)),
    # the canonical weights i c_i of a rational series, as TruncatedSeries.exp passes them
    _lists(coeff_strategy).map(lambda ws: [_quotient(w) for w in ws]),
)


@settings(deadline=None, max_examples=120)
@given(ws=_exp_weights)
@example(ws=_euler_weights([39] * 33))  # one product, on 9-byte slots: the narrowest past the array
# E_1 .. E_31 are 0 and w_40 needs 2 bytes: a slot sized for their product, 0, is 1 byte
@example(ws=[0] * 39 + [40 * 300] + [0] * 23)
# packed up to E_70, the first fraction, and plain from there
@example(ws=[w + (i == 70) for i, w in enumerate(_euler_weights([2] * 105), 1)])
def test_exp_kernel_equals_the_loop(ws):
    expected = exp_loop(ws)
    with mock.patch.object(qbell.series, "_exp_node", wraps=qbell.series._exp_node) as node:
        kernel = qbell.series._exp(ws)
    assert kernel == expected
    assert_canonical(kernel)
    # with a weight that is not a non-negative int every node runs the plain step; else the
    # nodes past the first E_n that is not an int do, and no other node does
    first = next((n for n, value in enumerate(expected) if type(value) is not int), len(ws) + 1)
    if not all(type(w) is int and w >= 0 for w in ws):
        first = 0
    plain = [(lo, mid, hi) for lo, mid, hi in exp_nodes(1, len(ws) + 1) if mid > first]
    assert [call.args[2:] for call in node.call_args_list] == plain


def test_a_late_wrong_weight_costs_only_from_its_own_index():
    # 1 / E(x) = exp(sum sigma(k) x^k / k), so n p(n) = sum_k sigma(k) p(n - k); one more at
    # sigma(2900) leaves p(n) below 2900 and makes 2900 E_2900 = 2900 p(2900) + 1
    ws = [sigma(k) for k in range(1, 3001)]
    ws[2899] += 1
    exact = [partition_count(n) for n in range(2900)]
    start = time.perf_counter()
    values = qbell.series._exp(ws)
    elapsed = time.perf_counter() - start
    assert values[:2900] == exact
    assert next(n for n, value in enumerate(values) if type(value) is not int) == 2900
    assert elapsed < 0.6, f"{elapsed:.2f} s"  # a restart of the whole row took 1.25 s


def test_log_and_exp_domain_checks():
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1]).log()
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1]).exp()


# -- substitution ------------------------------------------------------------


def test_substitute_power_spreads_exponents():
    e = euler_product(4)
    assert e.substitute_power(3).coefficients == (1, 0, 0, -1, 0)
    assert e.substitute_power(1) == e
    with pytest.raises(ValueError):
        e.substitute_power(0)


def test_substitute_power_agrees_with_direct_product():
    # substituting x^2 into prod(1-x^k) gives prod(1-x^(2k))
    direct = [Fraction(0)] * 21
    direct[0] = Fraction(1)
    for k in range(2, 21, 2):
        for i in range(20, k - 1, -1):
            direct[i] -= direct[i - k]
    assert euler_product(20).substitute_power(2).coefficients == tuple(direct)


# -- euler product and the named series --------------------------------------


def test_euler_product_first_coefficients():
    assert euler_product(7).coefficients == (1, -1, -1, 0, 0, 1, 0, 1)


def test_euler_product_pentagonal_exponents():
    e = euler_product(60)
    support = {n for n in range(61) if e[n] != 0}
    pentagonal = set()
    for k in range(1, 8):
        for exponent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if exponent <= 60:
                pentagonal.add(exponent)
    assert support == {0} | pentagonal
    assert e[12] == -1
    assert e[15] == -1
    assert e[22] == 1
    assert e[26] == 1


def test_euler_product_matches_direct_expansion():
    assert euler_product(60) == euler_product_by_direct_expansion(60)


def test_euler_product_cube():
    cube = euler_product(8) ** 3
    assert cube.coefficients == (1, -3, 0, 5, 0, 0, -7, 0, 0)


def test_series_g_first_coefficients():
    assert series_g(4).coefficients == (7, 28, 98, 280, 735)


def test_series_h_first_coefficients():
    assert series_h(4).coefficients == (0, 49, 392, 2156, 9408)


@pytest.mark.parametrize("target", [SUM_7N5, SUM_5K4], ids=["SUM_7N5", "SUM_5K4"])
def test_every_table_sum_counts_partitions_in_its_residue_class(target):
    # the table entry alone, apart from the eq2/eq3 reports that read it
    rows = (qbell.series._eta_sum((row,), 40) for row in target.rows)
    total = sum(rows, TruncatedSeries.zero(40))
    for n in range(41):
        assert total[n] == partition_count(target.modulus * n + target.residue)


@pytest.mark.parametrize("row", [G, H, P5K4], ids=["G", "H", "P5K4"])
def test_eta_quotient_equals_its_product_at_full_order(row):
    # the oracle raises E(x^r) itself at order k, where the builder raises E(y) at order k // r:
    # every k below r, each residue of k mod r, and a verify-sized order
    for k in [*range(3 * row.r + 3), 400]:
        e1 = euler_product(k)
        full = (TruncatedSeries.monomial(row.shift, k, row.scale)
                * (e1.substitute_power(row.r) ** row.a) * (e1 ** -row.b))
        assert qbell.series._eta_sum((row,), k) == full, k


def full_order_product(row, k):
    """The row scale x^shift E(x^r)^a / E(x)^b at order k by products and a negative power."""
    e1 = euler_product(k)
    return (TruncatedSeries.monomial(row.shift, k, row.scale)
            * (e1.substitute_power(row.r) ** row.a) * (e1 ** -row.b))


@lru_cache(maxsize=None)
def full_order_sum(rows, k):
    """The sum of the rows' full order products at order k."""
    return sum(map(full_order_product, rows, [k] * len(rows)), TruncatedSeries.zero(k))


def test_the_chain_equals_the_sum_of_each_rows_full_order_product():
    # G + H divides by E^4, adds G's numerator and divides by E^4 again: every k below 3r + 3
    # and a verify-sized order
    for k in [*range(3 * 7 + 3), 400]:
        expected = full_order_sum((G, H), k)
        assert qbell.series._eta_sum((G, H), k) == qbell.series._eta_sum((H, G), k) == expected, k
    # x^2 E(x)^8 has the largest a and shift and the smallest b: only b orders the chain
    late = EtaQuotient(1, 2, 1, 9, 1)
    for k in (0, 1, 2, 3, 60):
        assert qbell.series._eta_sum((late, G, H), k) == full_order_sum((G, H, late), k), k


@pytest.mark.parametrize("width", [1, 2, 3, 5, 63, 64, 65, 128])
def test_the_product_side_matches_its_full_order_product_at_other_block_widths(monkeypatch, width):
    # The E passes run the exact table's block kernel, so at the widths of its oracle test:
    # G + H runs one E pass per link, and 1 / E^2 two, the second on the first's quotient.
    monkeypatch.setattr(partitions, "_BLOCK", width)
    for rows in ((G, H), (EtaQuotient(1, 0, 1, 0, 2),)):
        for k in sorted({0, 1, width - 1, width, width + 1, 2 * width, 400}):
            assert qbell.series._eta_sum(rows, k) == full_order_sum(rows, k), (rows, k)


# Ramanujan's p(25n+24) as five rows (c, j, 5, 6j + 6, 6j + 7): b from 31 down to 7
P25N24_ROWS = (
    EtaQuotient(63 * 5**2, 0, 5, 6, 7),
    EtaQuotient(52 * 5**5, 1, 5, 12, 13),
    EtaQuotient(63 * 5**7, 2, 5, 18, 19),
    EtaQuotient(6 * 5**10, 3, 5, 24, 25),
    EtaQuotient(5**12, 4, 5, 30, 31),
)


def test_the_chain_of_five_rows_counts_partitions_of_25n_plus_24():
    built = qbell.series._eta_sum(P25N24_ROWS, 300)
    assert list(built.coefficients) == [partition_count(25 * n + 24) for n in range(301)]


# The partition function's own row, 1 / E(x), whose weights are n c_n = sigma(n), and its
# sum p(1 n + 0): the Bell side reaches p through sigma and the exp kernel alone.
PARTITION_SUM = RamanujanSum(1, 0, (EtaQuotient(1, 0, 1, 0, 1),))


@pytest.mark.parametrize("side", ["bell", "product"])
def test_the_partition_functions_own_row_counts_every_partition(side):
    report = residue_class_report(ResidueCheck("partitions", PARTITION_SUM, side), 3000)
    assert report.overall_pass
    assert [entry.index for entry in report.entries] == list(range(side == "bell", 3001))


def test_a_bumped_weight_fails_the_partition_rows_bell_side_first_at_its_index(monkeypatch):
    # sigma(7) + 1 makes E_7 a fraction, so the row's nodes run by plain multiply-adds from 7 on
    monkeypatch.setattr(qbell.series, "_weight", lambda i, row: _weight(i, row) + (i == 7))
    report = residue_class_report(ResidueCheck("partitions", PARTITION_SUM, "bell"), 60)
    assert report.failures()[0].index == 7


@pytest.mark.parametrize("side", ["bell", "product"])
def test_a_bumped_entry_of_a_fresh_exact_table_fails_the_partition_row_first_at_it(
    monkeypatch, side
):
    # neither side reads the exact table to build its row, so both fail first at p(1000)
    monkeypatch.setattr(partitions, "_table", [1])
    partition_count(1000)
    partitions._table[1000] += 1
    report = residue_class_report(ResidueCheck("partitions", PARTITION_SUM, side), 3000)
    assert report.failures()[0].index == 1000


@pytest.mark.parametrize("row", [G, H, P5K4, EtaQuotient(3, 2, 2, 3, 0)],
                         ids=["G", "H", "P5K4", "shift-2"])
def test_add_row_adds_the_scaled_shifted_spread_series_and_leaves_the_rest(row):
    # f(x^step) for both steps a row is added with, f reaching past total's end and short of
    # it; every entry the row adds 0 to, a zero value or past its reach, keeps its object
    order = 60
    for step in (1, row.r):
        for reach in (order // step, order // (3 * step)):
            values = (euler_product(reach) ** row.a).coefficients
            spread = TruncatedSeries(values, order).substitute_power(step)
            added = (TruncatedSeries.monomial(row.shift, order, row.scale) * spread).coefficients
            before = [10**40 + n for n in range(order + 1)]
            total = list(before)
            qbell.series._add_row(total, row, values, step)
            assert total == [t + c for t, c in zip(before, added)], (step, reach)
            assert all(total[n] is before[n] for n, c in enumerate(added) if not c), (step, reach)


def test_a_row_given_twice_gives_twice_the_row():
    # the two b tie, so the first link divides by E^0
    for row in (G, H, P5K4):
        assert qbell.series._eta_sum((row, row), 60) == 2 * qbell.series._eta_sum((row,), 60)


def test_order_zero_gives_each_rows_constant_term():
    assert [qbell.series._eta_sum((row,), 0).coefficients for row in (G, H, P5K4)] == [
        (7,), (0,), (5,)]
    assert qbell.series._eta_sum((G, H), 0).coefficients == (7,)


def test_jacobi_terms_are_the_cube_of_the_euler_product():
    # E(x)^3 through x^k is the cube through x^2000 cut at k, as the power of a truncated
    # series reads no coefficient past its own; checked directly for the first few k
    cube = euler_product(2000) ** 3
    nonzero = [(n, c) for n, c in enumerate(cube.coefficients) if c and n]
    for k in range(2001):
        assert qbell.series._jacobi_terms(k) == [(n, c) for n, c in nonzero if n <= k], k
    for k in range(40):
        coeffs = [1] + [0] * k
        for n, c in qbell.series._jacobi_terms(k):
            coeffs[n] = c
        assert TruncatedSeries(coeffs) == euler_product(k) ** 3, k


def test_euler_product_equals_the_product_multiplied_out_factor_by_factor():
    # over ints, through x^2000; E(x) through x^k is that product cut at k, as no factor
    # (1 - x^j) with j > k touches a coefficient <= k
    direct = [1] + [0] * 2000
    for j in range(1, 2001):
        for i in range(2000, j - 1, -1):
            direct[i] -= direct[i - j]
    for k in range(2001):
        assert euler_product(k).coefficients == tuple(direct[: k + 1]), k


def flipped_at(terms, offset):
    """terms, a function of the order, with the sign of its term at x^offset flipped."""
    def flipped(order):
        return [(j, -d if j == offset else d) for j, d in terms(order)]
    return flipped


def first_failure(report, capsys, argv):
    assert cli.main(argv) == (0 if report.overall_pass else 1)
    assert json.loads(capsys.readouterr().out)["overallPass"] is report.overall_pass
    return report.failures()[0].index if report.failures() else None


def test_a_flipped_jacobi_term_fails_both_product_reports_from_its_index(monkeypatch, capsys):
    # m = 3: -7 x^6 becomes +7 x^6; every row has b >= 3, so every row divides by E^3
    monkeypatch.setattr(qbell.series, "_jacobi_terms", flipped_at(qbell.series._jacobi_terms, 6))
    assert qbell.series._jacobi_terms(6)[-1] == (6, 7)
    eq3 = first_failure(verify_p7n5_identity(400), capsys, ["verify", "eq3", "--order", "400"])
    eq2 = first_failure(verify_p5k4_identity(400), capsys, ["verify", "eq2", "--order", "400"])
    assert (eq3, eq2) == (6, 6)


def test_a_flipped_pentagonal_term_fails_only_the_rows_with_an_euler_pass(monkeypatch, capsys):
    # The E pass reads the offset 6 for 5, so E's +x^5 becomes +x^6: the numerator reads
    # euler_product, held here to its true values.  G (b = 4) and H (b = 8) run E passes;
    # P5K4 (b = 6) runs none.
    true_euler = euler_product(400)
    monkeypatch.setattr(qbell.series, "euler_product",
                        lambda order: TruncatedSeries(true_euler.coefficients, order))
    pentagonal_numbers = partitions.pentagonal_numbers
    monkeypatch.setattr(qbell.series, "pentagonal_numbers",
                        lambda n: [6 if g == 5 else g for g in pentagonal_numbers(n)])
    assert qbell.series.pentagonal_numbers(7) == [1, 2, 6, 7]
    eq3 = first_failure(verify_p7n5_identity(400), capsys, ["verify", "eq3", "--order", "400"])
    eq2 = first_failure(verify_p5k4_identity(400), capsys, ["verify", "eq2", "--order", "400"])
    assert (eq3, eq2) == (5, None)


@pytest.mark.parametrize("build", [
    lambda: qbell.series._eta_sum((G,), -1),
    lambda: qbell.series._eta_sum((H,), -1),
    lambda: qbell.series._eta_sum((P5K4,), -1),
    lambda: series_g(-1),
    lambda: series_h(-1),
    lambda: cli.main(["verify", "eq2", "--order", "-1"]),
], ids=["G", "H", "P5K4", "series_g", "series_h", "verify-eq2"])
def test_a_negative_order_is_refused_before_any_division(monkeypatch, capsys, build):
    def unbuilt(*args):
        raise AssertionError("did work for a refused order")

    for name in ("_jacobi_terms", "pentagonal_numbers", "_divide_by_euler_power"):
        monkeypatch.setattr(qbell.series, name, unbuilt)
    try:
        code = build()
    except ValueError as refused:
        assert str(refused) == "order must be >= 0"
    else:
        assert (code, capsys.readouterr().err) == (3, "error: order must be >= 0\n")


# -- log-coefficient extraction ----------------------------------------------


def test_extract_log_coefficients_first_values():
    assert extract_log_coefficients(G, 7) == [
        Fraction(4), Fraction(6), Fraction(16, 3), Fraction(7),
        Fraction(24, 5), Fraction(8), Fraction(11, 7),
    ]
    assert extract_log_coefficients(H, 7) == [
        Fraction(8), Fraction(12), Fraction(32, 3), Fraction(14),
        Fraction(48, 5), Fraction(16), Fraction(15, 7),
    ]


@pytest.mark.parametrize("row", [G, H, P5K4], ids=["G", "H", "P5K4"])
def test_every_table_row_has_its_weights_as_log_coefficients(row):
    # P5K4's weights 6 sigma(n) - 25 sigma(n/5) are read by no report, and are
    # the only row with r != 7
    order = 300
    logs = extract_log_coefficients(row, order)
    assert len(logs) == order
    for n, value in enumerate(logs, 1):
        assert value == Fraction(_weight(n, row), n), n


def test_extract_log_coefficients_validation():
    with pytest.raises(ValueError):
        extract_log_coefficients(G, 0)


# -- report-producing checks --------------------------------------------------


def test_p7n5_report_passes_with_expected_entries():
    report = verify_p7n5_identity(30)
    assert report.label == "p7n5-series"
    assert report.overall_pass
    assert len(report.entries) == 31
    assert report.entries[0].computed == 7
    assert report.entries[1].computed == 77
    assert report.entries[2].computed == 490
    for entry in report.entries:
        assert entry.expected == partition_count(7 * entry.index + 5)


def test_p5k4_report_passes_with_expected_entries():
    report = verify_p5k4_identity(30)
    assert report.label == "p5k4-series"
    assert report.overall_pass
    assert report.entries[0].computed == 5
    assert report.entries[1].computed == 30
    assert report.entries[2].computed == 135
    for entry in report.entries:
        assert entry.expected == partition_count(5 * entry.index + 4)


@pytest.mark.parametrize(
    "report, order, message",
    [
        (verify_p5k4_identity, 40000, "capped"),
        (verify_p7n5_identity, 28571, "capped"),
        (verify_p5k4_identity, -1, "order must be >= 0"),
        (verify_p7n5_identity, -1, "order must be >= 0"),
    ],
)
def test_series_reports_refuse_a_size_before_building_a_series(
    monkeypatch, report, order, message
):
    def unbuilt(_order):
        raise AssertionError("built a series for a refused size")

    monkeypatch.setattr(qbell.series, "euler_product", unbuilt)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        report(order)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("side", ["Bell", "products", "congruences", ""])
def test_residue_class_report_refuses_an_unknown_side(monkeypatch, side):
    # a mistyped side is refused, not run as the product side, before the table fills
    def unbuilt(*args):
        raise AssertionError("built a series for an unknown side")

    for name in ("_exp", "_eta_sum"):
        monkeypatch.setattr(qbell.series, name, unbuilt)
    monkeypatch.setattr(partitions, "_table", [1])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="side must be 'bell', 'product' or 'congruence', not"):
        residue_class_report(ResidueCheck("p5k4-bell", SUM_5K4, side), 40)
    assert time.perf_counter() - start < 1.0
    assert partitions._table == [1]


def assert_fails_only_at(report, index, capsys, argv):
    assert [entry.index for entry in report.failures()] == [index]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["overallPass"] is False


def test_p7n5_report_fails_at_a_bumped_h_coefficient(monkeypatch, capsys):
    # coefficient 17 of the built sum that holds H
    eta_sum = qbell.series._eta_sum

    def bumped_h(rows, order):
        built = eta_sum(rows, order)
        if H not in rows:
            return built
        coeffs = list(built.coefficients)
        coeffs[17] += 1
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(qbell.series, "_eta_sum", bumped_h)
    report = verify_p7n5_identity(30)
    assert report.entries[17].computed == report.entries[17].expected + 1
    assert_fails_only_at(report, 17, capsys, ["verify", "eq3", "--order", "30"])


def test_p7n5_report_first_fails_at_a_bumped_h_numerator(monkeypatch, capsys):
    # H's numerator gets x^17 before the chain divides it: the chain reads every row's numerator
    add_row = qbell.series._add_row

    def bumped_h(total, row, values, step=1):
        add_row(total, row, values, step)
        if row == H:
            total[17] += 1

    monkeypatch.setattr(qbell.series, "_add_row", bumped_h)
    report = verify_p7n5_identity(30)
    assert report.failures()[0].index == 17
    assert report.entries[17].computed == report.entries[17].expected + 1
    assert cli.main(["verify", "eq3", "--order", "30"]) == 1
    assert json.loads(capsys.readouterr().out)["overallPass"] is False


def test_p5k4_report_fails_at_a_shifted_partition_count(monkeypatch, capsys):
    shifted = 5 * 23 + 4
    monkeypatch.setattr(
        qbell.series, "partition_count", lambda n: partition_count(n) + (n == shifted)
    )
    report = verify_p5k4_identity(30)
    assert report.entries[23].expected == partition_count(shifted) + 1
    assert_fails_only_at(report, 23, capsys, ["verify", "eq2", "--order", "30"])


# -- coefficient types ---------------------------------------------------------
# Fraction(3, 2) == 1.5, so only a type check catches a float coefficient.


def assert_canonical(values):
    """Every value is an int when it is integral, else a reduced Fraction."""
    for value in values:
        assert type(value) in (int, Fraction), repr(value)
        assert (type(value) is int) == (Fraction(value).denominator == 1), repr(value)


# half of the draws have integer coefficients, so the int paths run too
exact_series = st.one_of(
    st.lists(st.integers(-5, 5), min_size=7, max_size=7).map(TruncatedSeries),
    series_strategy(6),
)


@settings(deadline=None, max_examples=60)
@given(
    a=exact_series,
    b=exact_series,
    e=st.integers(-3, 3),
    m=st.integers(-6, 6).filter(bool),
    r=st.integers(1, 3),
    n=st.integers(1, 12),
)
def test_results_hold_ints_where_integral(a, b, e, m, r, n):
    unit = b - b[0] + (b[0] or 1)  # a nonzero constant term
    results = [
        a + b, a - b, a * b, a + m, a * m, a / m, unit**e, unit.inverse(), a / unit,
        (unit - unit[0] + 1).log(), (a - a[0]).exp(), a.substitute_power(r),
    ]
    for result in results:
        assert_canonical(result.coefficients)
    assert (a / m) * m == a  # a float quotient would be inexact
    assert_canonical(extract_log_coefficients(H, n))


def test_named_series_run_over_ints():
    order = 200
    named = [euler_product(order), series_g(order), series_h(order)]
    eq2 = [entry.computed for entry in verify_p5k4_identity(order).entries]
    theorem = [bell_row(row, order) for row in SUM_7N5.rows]
    reports = [qbell.identity.verify_theorem(order), qbell.identity.verify_congruences(order)]
    sides = [value for r in reports for e in r.entries for value in (e.computed, e.expected)]
    for values in [*(s.coefficients for s in named), eq2, *theorem, sides]:
        assert {type(value) for value in values} == {int}


# -- text rendering ------------------------------------------------------------


def test_coefficient_lines_format():
    s = TruncatedSeries([1, Fraction(-1, 2), 0])
    assert coefficient_lines(s) == ["0\t1", "1\t-1/2", "2\t0"]
