"""The partition function p(n), its residues, and an independent counting oracle.

Both tables run Euler's pentagonal recurrence.  ``partition_count`` keeps
one shared exact table, filled in blocks; ``partition_residues`` fills a
table of p(n) mod m afresh for each call, with most of its additions done
on many residues at once, packed as fixed-width slots of one big int.
"""

import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import itemgetter

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

# Entries per chunk of the packed residue fill, and the unsigned array
# typecodes its slots may take, narrowest first.  A wider chunk makes fewer
# big-int additions but longer ones, and more in-chunk terms; of 64 .. 1024,
# 256 had the lowest median time to p(55006) and to p(110006).
_CHUNK = 256
_SLOTS = "BHILQ"


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
    ``partition_residues``, whose packed fill shares no code with this one.
    Raises ``ValueError`` for n < 0 and for n > PARTITION_LIMIT, so the
    table never holds more than PARTITION_LIMIT + 1 entries.
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
    modulus as it stands.  Every residue is below modulus, so most of the
    additions run inside big-int operations over fixed-width slots packed
    into one int (Harvey, J. Symb. Comp. 2009), ``_CHUNK`` entries at a
    time:

    - pack: each finished chunk becomes one int, one unsigned slot per
      residue r and, in its upper half, one per negation -r % modulus;
    - push: for every generalized pentagonal offset g, the half of the
      packed chunk that g's sign selects, shifted by g % _CHUNK slots, is
      added into the accumulator of the chunk g // _CHUNK ahead.  An
      accumulator spans two chunks' slots; after the pushes its upper half
      is carried into the next chunk's accumulator;
    - read: a chunk's accumulator is unpacked, and only the terms of
      offsets below _CHUNK whose source lies in the chunk itself are added
      entry by entry; each entry is reduced, and negated, as it is stored.

    Slots never carry into each other: every addend is non-negative, a -
    term being the + term of the negation, and a slot sums at most one
    value in [0, modulus - 1] per offset, at most len(offsets) *
    (modulus - 1) in all, which the slot's array typecode must hold.  The
    list is built afresh for each call and shared with no one.  Raises
    ``ValueError`` for n < 0 and for n > PARTITION_LIMIT, as
    ``partition_count`` does, for modulus < 1, and for a modulus whose bound
    fits no slot.
    """
    if n < 0:
        raise ValueError("partition_residues is defined for n >= 0")
    if n > PARTITION_LIMIT:
        raise ValueError(f"partition_residues is capped at n <= {PARTITION_LIMIT}")
    if modulus < 1:
        raise ValueError("partition_residues needs a modulus >= 1")
    offsets = pentagonal_numbers(n)
    bound = len(offsets) * (modulus - 1)
    typecode = next((code for code in _SLOTS if bound < 256 ** array(code).itemsize), None)
    if typecode is None:
        raise ValueError(f"partition_residues to n = {n} packs no modulus above "
                         f"{(256 ** array(_SLOTS[-1]).itemsize - 1) // len(offsets) + 1}")
    bits = 8 * array(typecode).itemsize  # per slot
    half = bits * _CHUNK  # per chunk, half an accumulator
    low = (1 << half) - 1
    chunks = n // _CHUNK + 1
    # (chunks ahead, shift in bits, 1 for a - offset) per offset; the signs run + + - -
    pushes = [(g // _CHUNK, g % _CHUNK * bits, i >> 1 & 1) for i, g in enumerate(offsets)]
    # Entry s of a chunk reads the in-chunk sources s - g of the offsets
    # g <= s only, in the upper half for a - offset: the sources below the
    # chunk came in with the pushes.  Slot 2 * _CHUNK of the chunk list stays
    # 0, and each getter reads it twice, so that it returns a tuple however
    # few sources it has.
    small = offsets[: bisect_left(offsets, _CHUNK)]
    gets = [itemgetter(2 * _CHUNK, 2 * _CHUNK,
                       *(s - g + (i >> 1 & 1) * _CHUNK for i, g in enumerate(small) if g <= s))
            for s in range(_CHUNK)]
    acc = [0] * chunks
    acc[0] = 1  # p(0) = 1, the recurrence's one constant term
    chunk = [0] * (2 * _CHUNK + 1)
    table = []
    for c in range(chunks):
        slots = array(typecode)
        slots.frombytes((acc[c] & low).to_bytes(half // 8, sys.byteorder))
        width = min(_CHUNK, n + 1 - c * _CHUNK)
        for s, a, get in zip(range(width), slots, gets):
            r = (a + sum(get(chunk))) % modulus
            chunk[s], chunk[s + _CHUNK] = r, -r % modulus
        table += chunk[:width]
        if c + 1 == chunks:
            break
        packed = int.from_bytes(array(typecode, chunk[: 2 * _CHUNK]).tobytes(), sys.byteorder)
        halves = (packed & low, packed >> half)
        for ahead, shift, sign in pushes:
            if c + ahead >= chunks:
                break
            acc[c + ahead] += halves[sign] << shift
        acc[c + 1] += acc[c] >> half
        acc[c] = 0
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


def _fill_block(table: list[int], lo: int, hi: int, offsets: list[int]) -> None:
    """Append p(lo) .. p(hi - 1) to table, which holds p(0) .. p(lo - 1).

    offsets lists the generalized pentagonal numbers in increasing order, at
    least every one below hi.
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
        table.append(total)


# Largest n that partition_count and partition_residues accept.  It bounds
# the exact table: p(200000) has about 1630 bits, and the table up to it
# holds about 34 MB.
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
