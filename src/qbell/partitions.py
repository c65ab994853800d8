"""The partition function p(n), with an independent counting oracle."""

import threading
from bisect import bisect_left, bisect_right
from functools import lru_cache

__all__ = ["partition_count", "partition_count_brute", "BRUTE_LIMIT", "PARTITION_LIMIT"]

# Dense memo table, p(0) .. p(largest n seen so far).  Append-only: a filled
# entry never changes, so reading one takes no lock.  Extension holds
# _extend_lock and rereads the length inside it, so two threads never append
# the same index.
_table = [1]
_extend_lock = threading.Lock()

# Entries filled per block.  Offsets of at least the block's width read only
# entries below the block and are summed as whole slices; the smaller ones
# are added entry by entry.
_BLOCK = 64


def partition_count(n: int) -> int:
    """Number of partitions of n, for 0 <= n <= PARTITION_LIMIT.

    Euler's pentagonal recurrence
        p(n) = sum_{k>=1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]
    with p(0) = 1 and p(negative) = 0, memoized in one table.  Filling the
    table up to N costs O(N^1.5) big-integer additions.  It is filled in
    blocks of ``_BLOCK`` entries: each offset at least the block's width
    contributes one slice of the table, and the slices are added column by
    column in C, so only the offsets below the block's width, O(N
    sqrt(_BLOCK)) additions in all, run in the interpreter.  The fill
    gains little when the table grows a few entries per call, so a caller
    that reads many indices fills it once, at its largest index, first.
    This exact table serves the theorem's right side, the series checks and
    ``qbell partition``; the congruence sweep needs only residues and reads
    ``partition_residues`` instead.  Raises ``ValueError`` for n < 0 and for
    n > PARTITION_LIMIT, so the table never holds more than
    PARTITION_LIMIT + 1 entries.
    """
    if n < 0:
        raise ValueError("partition_count is defined for n >= 0")
    if n >= len(_table):
        if n > PARTITION_LIMIT:
            raise ValueError(f"partition_count is capped at n <= {PARTITION_LIMIT}")
        # The signs of the offsets in the recurrence run + + - - and repeat,
        # so offset i is added when i & 2 == 0.
        offsets = pentagonal_numbers(n)
        with _extend_lock:
            table = _table
            for lo in range(len(table), n + 1, _BLOCK):
                _fill_block(table, lo, min(lo + _BLOCK, n + 1), offsets)
    return _table[n]


def partition_residues(n: int, modulus: int) -> list[int]:
    """p(0) .. p(n) mod modulus, for 0 <= n <= PARTITION_LIMIT and modulus >= 1.

    The pentagonal recurrence has integer coefficients, so it runs mod
    modulus as it stands: the blocked fill of ``partition_count`` reduces
    each entry as it appends it and so adds small ints only.  The list is
    built afresh for each call and shared with no one.  Raises
    ``ValueError`` for n < 0 and for n > PARTITION_LIMIT, as
    ``partition_count`` does.
    """
    if n < 0:
        raise ValueError("partition_residues is defined for n >= 0")
    if n > PARTITION_LIMIT:
        raise ValueError(f"partition_residues is capped at n <= {PARTITION_LIMIT}")
    offsets = pentagonal_numbers(n)
    table = [1 % modulus]
    for lo in range(1, n + 1, _BLOCK):
        _fill_block(table, lo, min(lo + _BLOCK, n + 1), offsets, modulus)
    return table


def pentagonal_numbers(n: int) -> list[int]:
    """The generalized pentagonal numbers <= n, in increasing order.

    k(3k-1)/2 and k(3k+1)/2 for k = 1, 2, ...: 1, 2, 5, 7, 12, 15, ...
    """
    out = []
    k = 1
    while (g := k * (3 * k - 1) // 2) <= n:
        out += (g, g + k)
        k += 1
    return out[: bisect_right(out, n)]


def _fill_block(
    table: list[int], lo: int, hi: int, offsets: list[int], modulus: int | None = None
) -> None:
    """Append p(lo) .. p(hi - 1) to table, which holds p(0) .. p(lo - 1).

    offsets lists the generalized pentagonal numbers in increasing order, at
    least every one below hi.  With a modulus, table holds residues and each
    new entry is reduced mod modulus as it is appended.
    """
    width = hi - lo
    small = bisect_left(offsets, width)
    zeros = [0] * width
    plus, minus = [zeros], [zeros]
    # An offset g >= width reads p(m - g) with m - g < lo for every m in the
    # block, so its terms for the whole block are one slice, p(lo - g) ..
    # p(hi - 1 - g), zero below index 0.
    for i in range(small, bisect_right(offsets, hi - 1)):
        g = offsets[i]
        if g <= lo:
            shifted = table[lo - g : hi - g]
        else:
            shifted = [0] * (g - lo) + table[: hi - g]
        (minus if i & 2 else plus).append(shifted)
    large = [a - b for a, b in zip(map(sum, zip(*plus)), map(sum, zip(*minus)))]
    offsets = offsets[:small]
    for m, total in enumerate(large, lo):
        for i, g in enumerate(offsets):
            if g > m:
                break
            if i & 2:
                total -= table[m - g]
            else:
                total += table[m - g]
        table.append(total if modulus is None else total % modulus)


# Largest n that partition_count and partition_residues accept.  It bounds
# the exact table: p(200000) has about 1630 bits, and the table up to it
# holds about 34 MB.  The congruence sweep reads a residue table of small
# ints instead; its largest index, p(11k + 6), stays within this limit up
# to the `--max-k` cap k = 18181 (index 199997).
PARTITION_LIMIT = 200_000

BRUTE_LIMIT = 60


def partition_count_brute(n: int) -> int:
    """p(n) by direct recursion on the largest allowed part.

    Shares no code or structure with the pentagonal recurrence; exists to
    cross-check it.  Guarded to n <= 60, where the recursion stays cheap.
    """
    if n < 0:
        raise ValueError("partition_count_brute is defined for n >= 0")
    if n > BRUTE_LIMIT:
        raise ValueError(f"brute-force counting is guarded to n <= {BRUTE_LIMIT}")
    return _count_bounded(n, n)


@lru_cache(maxsize=None)
def _count_bounded(n: int, largest: int) -> int:
    # partitions of n into parts <= largest
    if n == 0:
        return 1
    if largest == 0:
        return 0
    total = _count_bounded(n, largest - 1)
    if largest <= n:
        total += _count_bounded(n - largest, largest)
    return total
