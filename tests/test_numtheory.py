"""Divisor sums, the 7-adic split, and the d/e coefficient sequences."""

import math
import random
import sys
import threading
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import d_by_branch, e_by_branch

from qbell import numtheory
from qbell.numtheory import (
    SIGMA_LIMIT,
    SevenAdicSplit,
    d_coefficient,
    e_coefficient,
    seven_adic_split,
    sigma,
    sigma_ratio,
)


def sigma_by_scan(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


SIEVE_LIMIT = 10**5


@lru_cache(maxsize=None)
def divisor_sums() -> tuple[int, ...]:
    """sigma(0) .. sigma(SIEVE_LIMIT) by adding each d to its multiples; sigma(0) reads 0."""
    sums = [0] * (SIEVE_LIMIT + 1)
    for d in range(1, SIEVE_LIMIT + 1):
        for m in range(d, SIEVE_LIMIT + 1, d):
            sums[m] += d
    return tuple(sums)


# -- sigma -------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, 1), (True, 1), (6, 12), (12, 28), (28, 56), (49, 57), (100, 217), (720, 2418), (5040, 19344)],
)
def test_sigma_known_values(n, expected):
    assert sigma(n) == expected


def test_sigma_matches_divisor_scan():
    for n in range(1, 300):
        assert sigma(n) == sigma_by_scan(n)


def test_sigma_of_prime_is_prime_plus_one():
    for p in (2, 3, 5, 7, 11, 13, 97, 997):
        assert sigma(p) == p + 1


def test_sigma_matches_sympy_at_seeded_indices():
    divisor_sigma = pytest.importorskip("sympy.functions.combinatorial.numbers").divisor_sigma
    rng = random.Random(1729)
    for n in sorted(rng.sample(range(1, 10**5 + 1), 200)) + [5040 * 7, 7**5, 10**5]:
        assert sigma(n) == int(divisor_sigma(n))


@pytest.fixture
def empty_blocks(monkeypatch):
    """A fresh, empty sigma block table for the test; the shared one comes back after it."""
    blocks = [None] * len(numtheory._sigma_blocks)
    monkeypatch.setattr(numtheory, "_sigma_blocks", blocks)
    return blocks


def test_sigma_miss_body_matches_divisor_sieve(empty_blocks):
    # the uncached body on an empty block table, so that hits left by other tests hide nothing
    sums = divisor_sums()
    assert [sigma.__wrapped__(n) for n in range(1, SIEVE_LIMIT + 1)] == list(sums[1:])


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, 1),
        (997**2, 1 + 997 + 997**2),  # the last listed prime, squared: 994009
        (991 * 997, (991 + 1) * (997 + 1)),  # the last two listed primes: 988027
        (999983, 999984),  # the largest prime below 10^6: all cofactor
        (2 * 499979, 3 * 499980),  # a small prime times a prime cofactor
        (10**6, 127 * 19531),  # sigma(2^6) sigma(5^6), the last slot of the clipped last block
        # the last slot of block 0, both ends of block 1 and the first slot of block 2
        (1023, 4 * 12 * 32),  # 3 * 11 * 31
        (1024, 2047),
        (1025, 31 * 42),  # 5^2 * 41
        (2047, 24 * 90),  # 23 * 89
        (2048, 4095),
    ],
)
def test_sigma_miss_body_at_the_prime_list_end_and_cofactor(empty_blocks, n, expected):
    assert sigma.__wrapped__(n) == expected


def test_one_sigma_at_the_cap_fills_one_block(empty_blocks):
    assert sigma.__wrapped__(SIGMA_LIMIT) == 127 * 19531
    filled = [b for b, block in enumerate(empty_blocks) if block is not None]
    assert filled == [SIGMA_LIMIT >> 10]
    assert len(empty_blocks[-1]) == SIGMA_LIMIT + 1 - (SIGMA_LIMIT >> 10 << 10)


def test_sigma_miss_body_fails_without_the_last_prime(monkeypatch, empty_blocks):
    # the block of 997^2 is sieved afresh without 997, and dropped with the fresh table
    monkeypatch.setattr(numtheory, "_PRIMES", tuple(p for p in numtheory._PRIMES if p != 997))
    assert sigma.__wrapped__(997**2) != 995007


def test_concurrent_misses_match_the_sieve(empty_blocks):
    # Threads race on an emptied cache and an emptied block table over
    # overlapping ranges while the interpreter switches threads as often as it can.
    sums = divisor_sums()
    sigma.cache_clear()
    workers = 4
    start = threading.Barrier(workers)
    wrong = [None] * workers

    def work(slot):
        ns = list(range(1 + slot * 10_000, 40_001 + slot * 10_000))
        random.Random(slot).shuffle(ns)
        start.wait(timeout=30)
        wrong[slot] = [n for n in ns if sigma(n) != sums[n]]

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [[]] * workers


@pytest.mark.parametrize("bad", [0, -1, -12])
def test_sigma_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        sigma(bad)


@pytest.mark.parametrize("bad", [2.0, "3", Fraction(6)])
def test_sigma_rejects_non_integers(bad):
    with pytest.raises(TypeError):
        sigma(bad)


def test_sigma_is_capped():
    assert SIGMA_LIMIT == 10**6
    assert sigma(SIGMA_LIMIT) == 127 * 19531  # sigma(2^6) sigma(5^6)
    for func in (sigma, d_coefficient, e_coefficient):
        with pytest.raises(ValueError, match="capped"):
            func(SIGMA_LIMIT + 1)
    assert sigma.cache_info().currsize <= SIGMA_LIMIT


@given(a=st.integers(min_value=1, max_value=1000), b=st.integers(min_value=1, max_value=1000))
def test_sigma_multiplicative_on_coprime_pairs(a, b):
    assume(math.gcd(a, b) == 1)
    assert sigma(a * b) == sigma(a) * sigma(b)


# -- 7-adic split ------------------------------------------------------------


def test_seven_adic_split_known_values():
    assert seven_adic_split(12) == SevenAdicSplit(0, 12)
    assert seven_adic_split(7) == SevenAdicSplit(1, 1)
    assert seven_adic_split(98) == SevenAdicSplit(2, 2)
    assert seven_adic_split(343) == SevenAdicSplit(3, 1)


@given(n=st.integers(min_value=1, max_value=10**9))
def test_seven_adic_split_round_trip(n):
    split = seven_adic_split(n)
    assert split.coprime % 7 != 0
    assert 7**split.exponent * split.coprime == n
    assert split.value == n


def test_seven_adic_split_rejects_nonpositive():
    with pytest.raises(ValueError):
        seven_adic_split(0)


# -- sigma ratio under division by 7 -----------------------------------------


def test_sigma_ratio_known_values():
    assert sigma_ratio(7) == 8
    assert sigma_ratio(49) == Fraction(57, 8)
    assert sigma_ratio(343) == Fraction(400, 57)


def test_sigma_ratio_equals_quotient_of_sigmas():
    for n in range(7, 2000, 7):
        assert sigma_ratio(n) == Fraction(sigma(n), sigma(n // 7))


def test_sigma_quotient_integer_identity():
    # sigma(n) * (7^m - 1) == (7^(m+1) - 1) * sigma(n/7) whenever 7 | n
    for n in range(7, 5000, 7):
        m = seven_adic_split(n).exponent
        assert sigma(n) * (7**m - 1) == (7 ** (m + 1) - 1) * sigma(n // 7)


@pytest.mark.parametrize("bad", [0, -7, 6, 13])
def test_sigma_ratio_rejects_non_multiples_of_seven(bad):
    with pytest.raises(ValueError):
        sigma_ratio(bad)


# -- d and e sequences -------------------------------------------------------


def test_d_coefficient_known_values():
    assert [d_coefficient(i) for i in range(1, 8)] == [
        Fraction(4),
        Fraction(6),
        Fraction(16, 3),
        Fraction(7),
        Fraction(24, 5),
        Fraction(8),
        Fraction(11, 7),
    ]
    assert d_coefficient(20) == Fraction(42, 5)
    assert d_coefficient(49) == Fraction(60, 49)


def test_e_coefficient_known_values():
    assert [e_coefficient(i) for i in range(1, 8)] == [
        Fraction(8),
        Fraction(12),
        Fraction(32, 3),
        Fraction(14),
        Fraction(48, 5),
        Fraction(16),
        Fraction(15, 7),
    ]
    assert e_coefficient(14) == Fraction(45, 14)


def test_closed_forms_agree_with_branch_forms():
    for n in range(1, 400):
        assert d_coefficient(n) == d_by_branch(n)
        assert e_coefficient(n) == e_by_branch(n)
    # the paper's 7-adic form, which d and e are no longer computed from
    for n in range(1, 10**4):
        m = seven_adic_split(n).exponent
        assert d_coefficient(n) == Fraction(sigma(n), n) * (1 + Fraction(18, 7 ** (m + 1) - 1))
        assert e_coefficient(n) == Fraction(sigma(n), n) * (1 + Fraction(42, 7 ** (m + 1) - 1))


def test_e_is_double_d_away_from_multiples_of_seven():
    for n in range(1, 200):
        if n % 7 != 0:
            assert e_coefficient(n) == 2 * d_coefficient(n)


@pytest.mark.parametrize("func", [d_coefficient, e_coefficient])
def test_coefficient_rejects_nonpositive(func):
    with pytest.raises(ValueError):
        func(0)
    with pytest.raises(ValueError):
        func(-3)
