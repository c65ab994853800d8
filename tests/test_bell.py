"""Bell polynomials: recurrence vs. definitional sum, and classic specializations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbell.bell import (
    ENUMERATION_LIMIT,
    complete_bell,
    complete_bell_sequence,
    partial_bell,
    partial_bell_by_enumeration,
)

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=5
)


def coprime_denominator_args(rng: random.Random, count: int) -> list[Fraction]:
    # denominators 2, 3, 5, 7, 9 have lcm 630, so the common denominator b
    # of the integer kernels ranges up to 630
    return [Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5, 7, 9))) for _ in range(count)]


def set_partition_count(n: int) -> int:
    """Count set partitions of {0..n-1} by direct enumeration."""

    def extend(remaining, blocks):
        if not remaining:
            return 1
        head, *rest = remaining
        total = extend(rest, blocks + [[head]])
        for block in blocks:
            block.append(head)
            total += extend(rest, blocks)
            block.pop()
        return total

    return extend(list(range(n)), [])


# -- partial polynomials -----------------------------------------------------


@pytest.mark.parametrize(
    "n, k, args, expected",
    [
        (1, 1, [1], 1),
        (4, 2, [1, 1, 1], 7),
        (4, 4, [2], 16),
        (5, 1, [0, 0, 0, 0, 9], 9),
        (6, 3, [1, 2, 3, 4], 540),
        (5, 2, [1, 2, 3, 4], 80),
        (7, 3, [1, 1, 1, 1, 1], 301),
        (6, 2, [Fraction(-1, 2), 3, Fraction(7, 5), 2, 1], Fraction(533, 5)),
    ],
)
def test_partial_known_values(n, k, args, expected):
    assert partial_bell(n, k, args) == expected
    assert partial_bell_by_enumeration(n, k, args) == expected


def test_partial_all_ones_gives_stirling_second_kind():
    assert [partial_bell(6, k, [1] * (6 - k + 1)) for k in range(1, 7)] == [
        1, 31, 90, 65, 15, 1,
    ]
    # row 40, past the enumeration limit, from S(m, k) = k S(m-1, k) + S(m-1, k-1)
    row = [1]
    for m in range(1, 41):
        row = [0, *(k * a + b for k, (a, b) in enumerate(zip(row[1:] + [0], row), 1))]
    assert [partial_bell(40, k, [1] * (40 - k + 1)) for k in range(1, 41)] == row[1:]


def test_partial_at_factorials_gives_lah_numbers():
    for n in range(1, 9):
        for k in range(1, n + 1):
            args = [math.factorial(i) for i in range(1, n - k + 2)]
            closed = math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
            assert partial_bell(n, k, args) == closed


def test_partial_at_shifted_factorials_gives_unsigned_stirling_first_kind():
    assert partial_bell(5, 2, [math.factorial(i) for i in range(4)]) == 50
    assert partial_bell(6, 3, [math.factorial(i) for i in range(4)]) == 225


def test_recurrence_equals_enumeration_on_random_rationals():
    rng = random.Random(20260814)
    for n in range(1, 13):
        for k in range(1, n + 1):
            args = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(n - k + 1)
            ]
            assert partial_bell(n, k, args) == partial_bell_by_enumeration(n, k, args)


@settings(deadline=None, max_examples=40)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=8),
    scale=st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4),
)
def test_partial_homogeneity_in_degree_k(data, n, scale):
    # B_{n,k}(a*x1, ..., a*x_{n-k+1}) == a^k * B_{n,k}(x1, ...)
    k = data.draw(st.integers(min_value=1, max_value=n))
    xs = data.draw(st.lists(rationals, min_size=n - k + 1, max_size=n - k + 1))
    scaled = [scale * x for x in xs]
    assert partial_bell(n, k, scaled) == scale**k * partial_bell(n, k, xs)


def test_partial_argument_validation():
    with pytest.raises(ValueError):
        partial_bell(3, 5, [])
    with pytest.raises(ValueError):
        partial_bell(0, 0, [])
    with pytest.raises(ValueError):
        partial_bell(4, 2, [1, 1])  # needs n-k+1 = 3 values
    with pytest.raises(ValueError):
        partial_bell_by_enumeration(4, 2, [1, 1])
    for k in (0, 4):
        with pytest.raises(ValueError, match="^partial_bell_by_enumeration requires 1 <= k <= n$"):
            partial_bell_by_enumeration(3, k, [1, 1, 1])


def test_enumeration_guard():
    with pytest.raises(ValueError):
        partial_bell_by_enumeration(ENUMERATION_LIMIT + 1, 1, [0] * (ENUMERATION_LIMIT + 1))


# -- complete polynomials ----------------------------------------------------


def test_complete_known_values():
    assert complete_bell(0, []) == 1
    assert complete_bell(2, [4, 12]) == 28
    assert complete_bell(3, [Fraction(1, 2), -2, 3]) == Fraction(1, 8)
    assert complete_bell(4, [1, 1, 1, 1]) == 15
    assert complete_bell(5, [1, 2, 3, 4, 5]) == 196


def test_complete_all_ones_gives_bell_numbers():
    expected = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]
    assert [complete_bell(n, [1] * n) for n in range(10)] == expected


def test_bell_numbers_match_set_partition_enumeration():
    for n in range(8):
        assert complete_bell(n, [1] * n) == set_partition_count(n)


def test_complete_equals_sum_of_partials():
    rng = random.Random(97)
    for n in [*range(1, 13), 24, 40]:
        args = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(n)]
        total = sum(partial_bell(n, k, args[: n - k + 1]) for k in range(1, n + 1))
        assert complete_bell(n, args) == total


def test_complete_equals_sum_of_enumerated_partials():
    rng = random.Random(2357)
    for n in range(1, 13):
        args = coprime_denominator_args(rng, n)
        total = sum(
            partial_bell_by_enumeration(n, k, args[: n - k + 1]) for k in range(1, n + 1)
        )
        assert complete_bell(n, args) == total


def test_partial_and_complete_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(9753)
    for n in range(1, 13):
        args = coprime_denominator_args(rng, n)
        rationals = [sympy.Rational(x.numerator, x.denominator) for x in args]
        total = 0
        for k in range(1, n + 1):
            expected = sympy.bell(n, k, rationals[: n - k + 1])
            assert partial_bell(n, k, args) == Fraction(int(expected.p), int(expected.q))
            total += expected
        assert complete_bell(n, args) == Fraction(int(total.p), int(total.q))


def test_complete_sequence_is_prefix_consistent():
    rng = random.Random(11)
    args = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(15)]
    seq = complete_bell_sequence(15, args)
    assert len(seq) == 16
    for i in range(16):
        assert seq[i] == complete_bell(i, args[:i])


def test_complete_argument_validation():
    with pytest.raises(ValueError):
        complete_bell(2, [1])
    with pytest.raises(ValueError):
        complete_bell(-1, [])
