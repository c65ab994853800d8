"""The partition function p(n), its residues, and an independent counting oracle.

Both tables come from Euler's pentagonal recurrence, E(x) P(x) = 1 with E
the Euler product and P the partition series.  One kernel,
``_divide_by_euler``, extends a list by numerator / E in blocks: the
shared exact table of ``partition_count`` is numerator 1, and the product
side of ``qbell.series`` divides its numerators by E through it.
``partition_residues`` fills a table of p(n) modulo several moduli, each
up to its own n, afresh for each call, a chunk of entries at a time, each
chunk modulo only the moduli that still reach it, on residues packed as
fixed-width slots of big ints: the terms that earlier chunks contribute
are added in as shifted whole chunks, and a chunk's own terms are one
product with the packed residues of the first chunk, which the kernel
computes.  The slot codec,
``_pack`` and ``_unpack``, also serves the exp kernel of ``qbell.series``.
"""

import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from functools import lru_cache
from math import isqrt, lcm

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

# Entries per chunk of the residue fill, C.  A wider chunk makes fewer
# pushes but longer ones, longer products and a longer exact kernel.  Of
# 128 .. 1024, timed in fresh interpreters, 256 and 512 tied to p(55006)
# mod 385, 512 had the lowest median to p(110006) and p(200000), and 256 to
# p(11006), by 2 ms.
_CHUNK = 512

# Unsigned array typecodes by item size in bytes, and the widest item, 8
# bytes: the widest slot.
_ITEMS = {array(code).itemsize: code for code in "BHILQ"}
_WIDEST = max(_ITEMS)


def partition_count(n: int) -> int:
    """Number of partitions of n, for 0 <= n <= PARTITION_LIMIT.

    Euler's pentagonal recurrence
        p(n) = sum_{k>=1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]
    with p(0) = 1 and p(negative) = 0, memoized in one table.  Filling the
    table up to N costs O(N^1.5) big-integer additions.  It is filled by
    ``_divide_by_euler``, as 1 / E(x), in blocks of ``_BLOCK`` entries, so
    only O(N sqrt(_BLOCK)) additions run in the interpreter.  The fill
    gains little when the table grows a few entries per call, so a caller
    that reads many indices fills it once, at its largest index, first.
    This exact table serves the Bell and product sides of the residue-class
    report and ``qbell partition``; its congruence side needs only residues
    and reads ``partition_residues``, whose packed fill takes its first
    chunk from the same kernel.
    Raises ``ValueError`` for n < 0 and for n > PARTITION_LIMIT, so the
    table never holds more than PARTITION_LIMIT + 1 entries.
    """
    if n < 0:
        raise ValueError("partition_count is defined for n >= 0")
    if n >= len(_table):
        if n > PARTITION_LIMIT:
            raise ValueError(f"partition_count is capped at n <= {PARTITION_LIMIT}")
        offsets = pentagonal_numbers(n)
        with _extend_lock:
            _divide_by_euler(_table, [1], n + 1, offsets)
    return _table[n]


def partition_residues(limits: Iterable[tuple[int, int]]) -> list[int]:
    """p(0) .. p(N) modulo each modulus up to its own n, for (modulus, n) pairs in limits.

    N is the largest n.  Entry i lies in [0, lcm of all moduli) and equals
    p(i) mod every modulus whose n >= i, so a single pair [(m, n)] gives
    exactly p(0) % m .. p(n) % m.  The pentagonal recurrence has integer
    coefficients, so it runs mod any modulus as it stands.  The fill takes
    C = ``_CHUNK`` entries at a time, each chunk as a few big-int
    operations over fixed-width slots packed into one int (Harvey, J. Symb.
    Comp. 2009).  Chunk c runs modulo L_c, the lcm of the moduli whose n
    reaches its first index c C; L_c divides every earlier one, so the fill
    narrows as each modulus's range ends, and its slots with it:

    - pack: each finished chunk becomes one int, one slot per residue r,
      once per distinct push width among the chunks it reaches, reduced
      mod M, the largest L among those chunks, which every later one
      divides.  Its negation half is that int subtracted from a packed row
      of C slots of M: slot i then holds M - r_i, which is -r_i mod M, and
      no slot borrows, since every r_i < M;
    - push: for every generalized pentagonal offset g, the half that g's
      sign selects, shifted by g % C slots, is added into the accumulator of
      the chunk g // C ahead.  An accumulator spans two chunks' slots; after
      the pushes its upper half is carried into the next chunk's accumulator,
      unpacked, reduced and packed again where the push width changes, and
      its lower half, which held the terms whose source lies in the chunk
      they reach, is dropped;
    - read: a chunk's accumulator A then holds the terms of every source in
      an earlier chunk.  By E(x) P(x) = 1, E the Euler product and P the
      partition series, the chunk is A P mod x^C, so A is unpacked, reduced
      mod L, packed again and multiplied by the kernel p(0) .. p(C - 1)
      mod L, packed the same way; the low C slots of the product, reduced,
      are the chunk.  The kernel is the first chunk: p(0) .. p(C - 1)
      exactly, by ``_divide_by_euler`` on a list of its own, reduced.

    Slots never carry into each other.  Every addend is non-negative, a -
    term of r being a + term of M - r, and a slot's values stay within the
    bounds that size it, once per phase of chunks of one L:

    - a push slot sums at most one value in [0, M] per offset, M an L of
      the slot's own width, and a carried slot, reduced where the width
      changes, stands in for the offsets it holds; so its bound is
      max(1, len(offsets)) L, at least L, so that the row of moduli fits
      at N = 0, with no offset;
    - a product slot sums at most C products of two residues, at most
      C (L - 1)^2.

    Each takes the fewest whole bytes that hold its bound (``_slot_width``).
    The congruence families of ``verify congruences --max-k 5000``, (5,
    25004), (7, 35005) and (11, 55006), run mod 385, then 77 from chunk 49
    and 11 from chunk 69: push slots of 3, 2 and 2 bytes, product slots of
    4, 3 and 2.  No slot is wider than the widest array item, 8 bytes, so
    the lcm of the moduli is at most isqrt((256^8 - 1) // C) + 1, 189812532
    at C = 512.  The list is built afresh for each call and shared with no
    one.  Raises ``ValueError`` for no pair, for an n < 0 and for an
    n > PARTITION_LIMIT, as ``partition_count`` does, for a modulus < 1,
    and for an lcm above that bound, at every n.
    """
    limits = list(limits)
    if not limits:
        raise ValueError("partition_residues needs at least one (modulus, n) pair")
    for modulus, n in limits:
        if n < 0:
            raise ValueError("partition_residues is defined for n >= 0")
        if n > PARTITION_LIMIT:
            raise ValueError(f"partition_residues is capped at n <= {PARTITION_LIMIT}")
        if modulus < 1:
            raise ValueError("partition_residues needs a modulus >= 1")
    # The product slot bounds the lcm.  The push slot then fits as well:
    # the lcm is <= 2^32 at any C >= 1, and 729 offsets reach PARTITION_LIMIT,
    # so a push slot sums at most 729 * 2^32 < 256^8.
    largest = isqrt((256**_WIDEST - 1) // _CHUNK) + 1
    if lcm(*(m for m, _ in limits)) > largest:
        raise ValueError(f"partition_residues packs no modulus above {largest}")
    n = max(k for _, k in limits)
    offsets = pentagonal_numbers(n)
    chunks = n // _CHUNK + 1
    exact = []  # a list of its own: the shared table stays as it is
    _divide_by_euler(exact, [1], min(_CHUNK, n + 1), offsets)
    # L_c per chunk c, and per L, once for its run of chunks: the push and product slot
    # widths, the kernel packed at the product width and a row of L packed at the push width
    moduli = [lcm(*(m for m, k in limits if k >= c * _CHUNK)) for c in range(chunks)]
    phases = {}
    for modulus in moduli:
        if modulus not in phases:
            widths = (_slot_width(max(1, len(offsets)) * modulus),
                      _slot_width(_CHUNK * (modulus - 1) ** 2))
            phases[modulus] = (*widths, _pack([p % modulus for p in exact], widths[1]),
                               _pack([modulus] * _CHUNK, widths[0]))
    push = [phases[modulus][0] for modulus in moduli]
    # Per run of chunks of one push width (the width only falls as c grows): its first and
    # end chunk, the width, and per offset (chunks ahead, shift in bits, 1 for a - offset);
    # the signs run + + - -
    runs = []
    for width in dict.fromkeys(push):
        first = push.index(width)
        shifts = [(g // _CHUNK, g % _CHUNK * 8 * width, i >> 1 & 1) for i, g in enumerate(offsets)]
        runs.append((first, first + push.count(width), width, shifts))
    aheads = [g // _CHUNK for g in offsets]
    # Each residue is read from one list, so equal residues share one int
    # object (CPython shares only the ints up to 256), where the list is no
    # longer than the table; past that, a range gives each entry an int of its
    # own, as % does.
    residues = list(range(moduli[0])) if moduli[0] <= n + 1 else range(moduli[0])
    chunk = [residues[p % moduli[0]] for p in exact]
    table = chunk[:]
    acc = [0] * chunks
    for c in range(chunks - 1):
        for first, end, width, shifts in runs:
            lo, hi = bisect_left(aheads, first - c), bisect_left(aheads, end - c)
            if lo == hi:
                continue
            # the largest L this run reaches from c: c < end, so it lies in the run, at its width
            modulus = moduli[max(c, first)]
            packed = _pack(chunk if modulus == moduli[c] else [r % modulus for r in chunk], width)
            halves = (packed, phases[modulus][3] - packed)
            for ahead, shift, sign in shifts[lo:hi]:
                acc[c + ahead] += halves[sign] << shift
        carry = acc[c] >> 8 * push[c] * _CHUNK
        acc[c] = 0
        modulus = moduli[c + 1]
        if push[c + 1] != push[c]:
            carry = _pack([a % modulus for a in _unpack(carry, _CHUNK, push[c])], push[c + 1])
        acc[c + 1] += carry
        _, product, kernel, _ = phases[modulus]
        width = min(_CHUNK, n + 1 - (c + 1) * _CHUNK)  # entries in chunk c + 1
        terms = _pack([a % modulus for a in _unpack(acc[c + 1], width, push[c + 1])], product)
        chunk = [residues[v % modulus] for v in _unpack(terms * kernel, width, product)]
        table += chunk
    return table


def _slot_width(bound: int) -> int:
    """The fewest whole bytes, at least one, that hold every value in 0 .. bound."""
    return max(1, (bound.bit_length() + 7) // 8)


def _pack(values: list[int], width: int) -> int:
    """One int holding values[i] in its bytes i * width .. (i + 1) * width - 1.

    Each value must be below 256**width.  Slots of at most ``_WIDEST``
    bytes go through one array; an item wider than the slot gives its low
    bytes by strided copies.  A wider slot is each value's bytes, joined.
    """
    if width > _WIDEST:
        return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")
    item = min(size for size in _ITEMS if size >= width)
    raw = _little(array(_ITEMS[item], values)).tobytes()
    if item > width:
        out = bytearray(len(values) * width)
        for j in range(width):
            out[j::width] = raw[j::item]
        raw = out
    return int.from_bytes(raw, "little")


def _unpack(number: int, count: int, width: int) -> list[int]:
    """The lowest count slots of width bytes of number, the inverse of ``_pack``."""
    raw = (number & ((1 << 8 * count * width) - 1)).to_bytes(count * width, "little")
    if width > _WIDEST:
        return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
    item = min(size for size in _ITEMS if size >= width)
    if item > width:
        items = bytearray(count * item)
        for j in range(width):
            items[j::item] = raw[j::width]
        raw = items
    return _little(array(_ITEMS[item], raw)).tolist()


def _little(items: array) -> array:
    """items with each item's bytes in little-endian order, swapped in place on big-endian hosts."""
    if sys.byteorder == "big":
        items.byteswap()
    return items


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


def _divide_by_euler(q: list[int], numerator: list[int], end: int, offsets: list[int]) -> None:
    """Extend q, the first terms of N / E(x), through q_(end - 1).

    N is numerator, then zeros; each block clears the numerator's entries
    it reads, so q and numerator together hold each value once.  E is the
    Euler product, so E q = N reads
    q_m = N_m + sum_g (+/-) q_(m-g) over the generalized pentagonal g <= m,
    and the partition table is the case N = 1.  offsets lists those
    numbers in increasing order, at least every one below end.  The
    entries are filled in blocks of ``_BLOCK``: each offset at least the
    block's width contributes one slice of q, and the slices and the
    numerator's are added column by column in C; the smaller offsets are
    split by sign once per block, into added and subtracted, and each
    entry reads both.
    """
    for lo in range(len(q), end, _BLOCK):
        hi = min(lo + _BLOCK, end)
        small = bisect_left(offsets, hi - lo)
        zeros, head = [0] * (hi - lo), numerator[lo:hi]
        numerator[lo:hi] = zeros[: len(head)]
        plus, minus = [head + zeros[len(head):]], [zeros]
        # The signs of the offsets run + + - - and repeat, so offset i is added when
        # i & 2 == 0.  An offset g >= hi - lo reads q_(m - g) with m - g < lo for every m in
        # the block, so its terms for the whole block are one slice, q_(lo - g) ..
        # q_(hi - 1 - g), zero below index 0.
        for i in range(small, bisect_right(offsets, hi - 1)):
            g = offsets[i]
            if g <= lo:
                shifted = q[lo - g : hi - g]
            else:
                shifted = [0] * (g - lo) + q[: hi - g]
            (minus if i & 2 else plus).append(shifted)
        large = [a - b for a, b in zip(map(sum, zip(*plus)), map(sum, zip(*minus)))]
        added = [g for i, g in enumerate(offsets[:small]) if not i & 2]
        subtracted = [g for i, g in enumerate(offsets[:small]) if i & 2]
        for m, total in enumerate(large, lo):
            for g in added:
                if g > m:
                    break
                total += q[m - g]
            for g in subtracted:
                if g > m:
                    break
                total -= q[m - g]
            q.append(total)


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
