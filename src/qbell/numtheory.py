"""Divisor sums, the table of eta quotients, 7-adic decomposition, and d/e.

Everything here is exact: naturals are plain Python integers, ratios are
``fractions.Fraction`` values (always stored reduced).

d_n and e_n are computed as their integer weights n d_n and n e_n over n.
The paper's 7-adic form of the same values is kept as a check:
``seven_adic_split`` and ``sigma_ratio`` serve the tests that hold d and e
to it, and no production path calls them.
"""

from array import array
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import index

__all__ = [
    "SIGMA_LIMIT",
    "SevenAdicSplit",
    "sigma",
    "seven_adic_split",
    "sigma_ratio",
    "d_coefficient",
    "e_coefficient",
]

# Largest n that sigma accepts.  A miss reads one block of 1024 divisor sums, sieved
# on the first read of any of its n over the 168 primes up to isqrt(SIGMA_LIMIT) =
# 1000; the blocks take at most 977 x 4 KB (about 4 MB), and the cache holds at most
# 10^6 entries (about 103 MB when full).
SIGMA_LIMIT = 10**6


def _primes_to(limit: int) -> tuple[int, ...]:
    """The primes p <= limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(p for p, is_prime in enumerate(sieve) if is_prime)


_PRIMES = _primes_to(isqrt(SIGMA_LIMIT))

# Block b holds sigma(n) for b * 1024 <= n < (b + 1) * 1024 at slot n & 1023 (block 0's
# slot 0 reads 0), as 4-byte unsigned ints: sigma(n) < 2^32 for every n <= SIGMA_LIMIT.
_sigma_blocks = [None] * ((SIGMA_LIMIT >> 10) + 1)


def _sigma_block(b: int) -> array:
    """sigma(n) for the n of block b, by a segmented sieve over the block's prime factors.

    Each n starts from its 2-adic part 2^v = n & -n, with term sigma(2^v) = 2 * 2^v - 1.
    Each odd prime p <= isqrt(hi - 1) is stripped from the multiples of p in the
    block, which gain the term sigma(p^k) = 1 + p + ... + p^k (sigma is
    multiplicative); a cofactor above 1 is then one prime q, with term q + 1.  The
    last block stops at SIGMA_LIMIT.
    """
    lo = b << 10
    hi = min(lo + 1024, SIGMA_LIMIT + 1)
    first = lo or 1
    sums = [2 * (n & -n) - 1 for n in range(first, hi)]
    rest = [n // (n & -n) for n in range(first, hi)]
    root = isqrt(hi - 1)
    for p in _PRIMES[1:]:
        if p > root:
            break
        for i in range(-first % p, hi - first, p):
            q = rest[i] // p
            term = p + 1
            while not q % p:
                q //= p
                term = term * p + 1
            rest[i] = q
            sums[i] *= term
    sums = [s * (q + 1) if q > 1 else s for s, q in zip(sums, rest)]
    return array("I", [0] * (first - lo) + sums)


@lru_cache(maxsize=None)
def sigma(n: int) -> int:
    """Sum of all positive divisors of n, including 1 and n, for 1 <= n <= SIGMA_LIMIT.

    Memoized.  A miss reads slot n & 1023 of block n >> 10, which
    ``_sigma_block`` sieves the first time any of its n is read; the block
    is built whole and then published by one list store, so threads that
    race on a block store equal values.  The cap is checked inside the
    cached function, so a cache hit pays nothing for it, and it bounds the
    block table and the size of the cache.  Raises ``ValueError`` for n < 1
    and for n > SIGMA_LIMIT, and ``TypeError`` for a non-integer n.
    """
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    if n > SIGMA_LIMIT:
        raise ValueError(f"sigma is capped at n <= {SIGMA_LIMIT}")
    n = index(n)
    block = _sigma_blocks[n >> 10]
    if block is None:
        block = _sigma_blocks[n >> 10] = _sigma_block(n >> 10)
    return block[n & 1023]


class SevenAdicSplit(namedtuple("SevenAdicSplit", "exponent coprime")):
    """Decomposition n = 7**exponent * coprime, with 7 not dividing coprime; both are ints."""

    __slots__ = ()

    @property
    def value(self) -> int:
        return 7 ** self.exponent * self.coprime


def seven_adic_split(n: int) -> SevenAdicSplit:
    """Factor the largest power of 7 out of n >= 1.

    Gives the m of the paper's 7-adic form of d and e, which the tests
    check; d and e themselves do not use it.
    """
    if n < 1:
        raise ValueError("seven_adic_split is defined for n >= 1")
    m = 0
    while n % 7 == 0:
        n //= 7
        m += 1
    return SevenAdicSplit(m, n)


def sigma_ratio(n: int) -> Fraction:
    """The exact ratio sigma(n) / sigma(n // 7) for a positive multiple of 7.

    Equals (7^(m+1) - 1) / (7^m - 1) with m the 7-adic valuation of n.
    Multiplicativity of sigma over coprime factors makes the ratio depend on
    the power of 7 alone, never on the part of n coprime to 7.  This is the
    step from the weight form of d and e to the paper's 7-adic form; it is
    kept for checks only.
    """
    if n < 1 or n % 7 != 0:
        raise ValueError("sigma_ratio requires a positive multiple of 7")
    m = seven_adic_split(n).exponent
    return Fraction(7 ** (m + 1) - 1, 7 ** m - 1)


# Rows scale x^shift E(x^r)^a / E(x)^b, E(x) = (x;x)_inf; Ramanujan's sum of p(modulus n
# + residue) x^n is the sum of its rows.  qbell.series checks each sum, from its rows or from
# their weights.  By ln E(x) = -sum sigma(n) x^n / n, ln(row / (scale x^shift)) = sum c_n x^n
# with weights n c_n = b sigma(n) - a r sigma(n/r), the second term only when r | n.
EtaQuotient = namedtuple("EtaQuotient", "scale shift r a b")
G = EtaQuotient(7, 0, 7, 3, 4)
H = EtaQuotient(49, 1, 7, 7, 8)
P5K4 = EtaQuotient(5, 0, 5, 5, 6)
RamanujanSum = namedtuple("RamanujanSum", "modulus residue rows")
SUM_7N5 = RamanujanSum(7, 5, (G, H))
SUM_5K4 = RamanujanSum(5, 4, (P5K4,))


def _weight(n: int, row: EtaQuotient) -> int:
    """b sigma(n) - a r sigma(n/r), the weight n c_n of a row (see the table)."""
    return row.b * sigma(n) - (row.a * row.r * sigma(n // row.r) if n % row.r == 0 else 0)


def d_coefficient(n: int) -> Fraction:
    """Coefficient d_n in ln(G(x)/7) = sum_{n>=1} d_n x^n: the weight of G over n.

    The paper writes the same value as (sigma(n)/n) * (1 + 18/(7^(m+1) - 1))
    with m the 7-adic valuation of n.  Raises ``ValueError`` for n < 1 and,
    through ``sigma``, for n > SIGMA_LIMIT.
    """
    if n < 1:
        raise ValueError("d_coefficient is defined for n >= 1")
    return Fraction(_weight(n, G), n)


def e_coefficient(n: int) -> Fraction:
    """Coefficient e_n in ln(H(x)/(49x)) = sum_{n>=1} e_n x^n: the weight of H over n.

    The paper writes the same value as (sigma(n)/n) * (1 + 42/(7^(m+1) - 1)).
    Raises ``ValueError`` for n < 1 and, through ``sigma``, for n > SIGMA_LIMIT.
    """
    if n < 1:
        raise ValueError("e_coefficient is defined for n >= 1")
    return Fraction(_weight(n, H), n)
