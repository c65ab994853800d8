"""Partition counting: pentagonal recurrence vs. brute-force enumeration."""

import os
import random
import subprocess
import sys
import threading
from array import array
from functools import lru_cache
from math import isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbell import partitions
from qbell.partitions import (
    BRUTE_LIMIT,
    PARTITION_LIMIT,
    partition_count,
    partition_count_brute,
    partition_residues,
)

FIRST_VALUES = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)


def test_first_values():
    assert [partition_count(n) for n in range(13)] == list(FIRST_VALUES)


@pytest.mark.parametrize(
    "n, expected",
    [
        (20, 627),
        (50, 204226),
        (100, 190569292),
        (200, 3972999029388),
        (243, 133978259344888),
        (1000, 24061467864032622473692149727991),
    ],
)
def test_known_large_values(n, expected):
    assert partition_count(n) == expected


def test_recurrence_matches_brute_force_up_to_guard():
    for n in range(BRUTE_LIMIT + 1):
        assert partition_count(n) == partition_count_brute(n)


def test_brute_limit_is_sixty():
    assert BRUTE_LIMIT == 60
    assert partition_count_brute(BRUTE_LIMIT) == partition_count(BRUTE_LIMIT)


def test_brute_force_guard():
    with pytest.raises(ValueError):
        partition_count_brute(BRUTE_LIMIT + 1)


def test_negative_rejected():
    with pytest.raises(ValueError):
        partition_count(-1)
    with pytest.raises(ValueError):
        partition_count_brute(-1)


def test_a_fresh_table_grows_one_entry_per_call():
    # each call reads the index just past the filled table
    check = (
        "from qbell.partitions import partition_count\n"
        "print(sum(partition_count(n) for n in range(301)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, check=True)
    assert proc.stdout == f"{sum(pentagonal_oracle()[:301])}\n"


def test_memo_table_survives_interleaved_calls():
    big = partition_count(500)
    assert partition_count(3) == 3
    assert partition_count(500) == big


def test_weakly_increasing():
    values = [partition_count(n) for n in range(120)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(values[n] < values[n + 1] for n in range(1, 119))


def test_concurrent_extension_fills_each_entry_once(monkeypatch):
    # More threads than cores race to extend an empty table while the
    # interpreter switches threads as often as it can.
    limit = 6000
    expected = [partition_count(m) for m in range(limit + 1)]
    monkeypatch.setattr(partitions, "_table", [1])
    workers = max(4, (os.cpu_count() or 1) + 2)
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(slot):
        start.wait(timeout=30)
        results[slot] = partition_count(limit)

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
    assert partitions._table == expected
    assert results == [expected[limit]] * workers


ORACLE_LIMIT = 3000


@lru_cache(maxsize=None)
def pentagonal_oracle() -> tuple[int, ...]:
    """p(0) .. p(ORACLE_LIMIT), one index at a time by the pentagonal recurrence.

    The plain per-entry loop, kept as the reference for the blocked fill.
    """
    p = [1]
    for m in range(1, ORACLE_LIMIT + 1):
        total = 0
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            term = p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                term += p[m - k * (3 * k + 1) // 2]
            total += term if k % 2 else -term
            k += 1
        p.append(total)
    return tuple(p)


@settings(deadline=None, max_examples=40)
@given(steps=st.lists(st.integers(0, 400), min_size=1, max_size=25))
def test_fill_in_uneven_steps_matches_one_shot_fill_and_oracle(steps):
    expected = pentagonal_oracle()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_table", [1])
        n = 0
        for step in steps:
            n = min(n + step, ORACLE_LIMIT)
            assert partition_count(n) == expected[n]
        stepped = partitions._table
        mp.setattr(partitions, "_table", [1])
        partition_count(n)
        assert stepped == partitions._table == list(expected[: n + 1])


@pytest.mark.parametrize("width", [1, 2, 3, 5, 63, 64, 65, 128])
def test_exact_table_matches_the_oracle_at_other_block_widths(monkeypatch, width):
    # Width 1 adds every offset as a slice, so no offset runs entry by entry; width 128 runs
    # 18 of them entry by entry, 10 added and 8 subtracted.  Each fill starts a fresh table.
    monkeypatch.setattr(partitions, "_BLOCK", width)
    expected = pentagonal_oracle()
    for n in sorted({0, 1, width - 1, width, width + 1, 2 * width, ORACLE_LIMIT}):
        monkeypatch.setattr(partitions, "_table", [1])
        assert partition_count(n) == expected[n]
        assert partitions._table == list(expected[: n + 1])


def test_matches_sympy_at_seeded_indices():
    partition = pytest.importorskip("sympy.functions.combinatorial.numbers").partition
    rng = random.Random(2718)
    for n in sorted(rng.sample(range(20001), 40)) + [20000]:
        assert partition_count(n) == int(partition(n))


def test_partition_limit():
    assert PARTITION_LIMIT >= 200_000
    assert 11 * 10_000 + 6 <= PARTITION_LIMIT
    with pytest.raises(ValueError, match="capped"):
        partition_count(PARTITION_LIMIT + 1)
    with pytest.raises(ValueError, match="capped"):
        partition_count(10**9)


def test_residue_table_matches_the_exact_table_mod_385():
    n = 20_000
    partition_count(n)  # fill the exact table once
    assert partition_residues([(385, n)]) == [partition_count(m) % 385 for m in range(n + 1)]


def congruence_families(max_k: int) -> list[tuple[int, int]]:
    """The (modulus, n) pairs of p(5k+4), p(7k+5) and p(11k+6) for k <= max_k."""
    return [(5, 5 * max_k + 4), (7, 7 * max_k + 5), (11, 11 * max_k + 6)]


def assert_residues(limits, table, expected):
    """table runs to the largest n, in [0, lcm), and holds p(i) mod every modulus whose n >= i."""
    assert len(table) == max(n for _, n in limits) + 1
    assert all(0 <= r < lcm(*(m for m, _ in limits)) for r in table)
    for modulus, n in limits:
        assert [r % modulus for r in table[: n + 1]] == [p % modulus for p in expected[: n + 1]]


@pytest.mark.parametrize("max_k", [0, 1, 46, 47, 100, 5000])
def test_family_residue_table_matches_the_exact_table(max_k):
    # At 47 the 11-family's end, 523, crosses the first chunk edge; at 100 each chunk runs
    # mod its own lcm, 385, 77, then 11; at 5000 the push slot narrows from 3 bytes to 2.
    limits = congruence_families(max_k)
    n = max(k for _, k in limits)
    partition_count(n)  # fill the exact table once
    assert_residues(limits, partition_residues(limits), [partition_count(m) for m in range(n + 1)])


# n on both sides of the first two chunk edges of the packed fill
CHUNK_EDGES = (partitions._CHUNK - 1, partitions._CHUNK, partitions._CHUNK + 1, 2 * partitions._CHUNK)


@settings(deadline=None, max_examples=60)
@given(
    n=st.one_of(st.sampled_from(CHUNK_EDGES), st.integers(0, ORACLE_LIMIT)),
    modulus=st.one_of(st.integers(1, 1000), st.integers(1, 10**6)),
)
@example(n=CHUNK_EDGES[0], modulus=1)
@example(n=CHUNK_EDGES[1], modulus=10**6)
@example(n=CHUNK_EDGES[2], modulus=385)
@example(n=CHUNK_EDGES[3], modulus=2)
@example(n=ORACLE_LIMIT, modulus=10**6 - 1)
@example(n=2 * partitions._CHUNK + partitions._CHUNK // 2, modulus=8)  # a half-full last chunk
def test_residue_table_matches_the_oracle_mod_any_modulus(n, modulus):
    expected = pentagonal_oracle()
    assert partition_residues([(modulus, n)]) == [p % modulus for p in expected[: n + 1]]


# ends on and next to the first three chunk edges
EDGE_ENDS = tuple(k * partitions._CHUNK + d for k in (1, 2, 3) for d in (-1, 0, 1))


@settings(deadline=None, max_examples=60)
@given(pairs=st.lists(
    st.tuples(st.one_of(st.integers(1, 100), st.integers(1, 10**6)),
              st.one_of(st.sampled_from(EDGE_ENDS), st.integers(0, ORACLE_LIMIT))),
    min_size=1, max_size=4))
@example(pairs=[(10**6, EDGE_ENDS[0]), (7, EDGE_ENDS[1])])
@example(pairs=[(189_812_532, 600), (2, ORACLE_LIMIT)])  # push slots 5 bytes to 1, products 8 to 2
@example(pairs=[(5, 1), (7, 1), (11, EDGE_ENDS[5]), (13, EDGE_ENDS[8])])
@example(pairs=[(3, EDGE_ENDS[2]), (6, 100), (385, 0)])  # the smaller n takes the larger modulus
def test_narrowing_residue_table_matches_the_oracle(pairs):
    # the drawn pairs, kept while their lcm fits the widest product slot
    limits = pairs[:1]
    for modulus, n in pairs[1:]:
        if lcm(modulus, *(m for m, _ in limits)) <= largest_modulus(partitions._CHUNK):
            limits.append((modulus, n))
    assert_residues(limits, partition_residues(limits), pentagonal_oracle())
    assert partition_residues(iter(limits)) == partition_residues(limits)


def largest_modulus(width: int) -> int:
    """The largest m whose product slot, width (m - 1)^2, fits the widest array item."""
    widest = max(array(code).itemsize for code in "BHILQ")
    return isqrt((256**widest - 1) // width) + 1


@pytest.mark.parametrize("width", [1, 2, 3, 5, 64, 1024])
def test_residue_table_matches_the_oracle_at_other_chunk_widths(monkeypatch, width):
    # Width 1 pushes every term and its product is one slot by one, mod up
    # to 2^32; width 1024 fills a kernel of 1024 exact entries, past 51
    # offsets, and multiplies 1024 slots by 1024.
    monkeypatch.setattr(partitions, "_CHUNK", width)
    expected = pentagonal_oracle()
    for n in sorted({0, 1, width - 1, width, width + 1, 2 * width, ORACLE_LIMIT}):
        for modulus in (1, 7, 385, 10**6, largest_modulus(width)):
            assert partition_residues([(modulus, n)]) == [p % modulus for p in expected[: n + 1]]
        # narrowing from mod 7.7e7, on 7- or 8-byte product slots, to 385, then to 7
        limits = [(10**6, n // 3), (385, n // 2), (7, n)]
        assert_residues(limits, partition_residues(limits), expected)


def test_residue_table_holds_one_int_per_residue():
    # equal residues are one object, where the modulus is no more than the entries
    n = 2 * partitions._CHUNK
    residues = partition_residues([(385, n)])
    assert len({id(r) for r in residues}) == len(set(residues))
    assert partition_residues([(n + 2, n)]) == [p % (n + 2) for p in pentagonal_oracle()[: n + 1]]


def test_residue_table_bounds():
    assert partition_residues([(7, 0)]) == [1]
    # no offset reaches 0, but the push slot still holds the row of moduli
    for modulus in (256, 10**6, largest_modulus(partitions._CHUNK)):
        assert partition_residues([(modulus, 0)]) == [1]
    assert partition_residues([(1, 5)]) == [0] * 6
    with pytest.raises(ValueError, match=">= 0"):
        partition_residues([(385, -1)])
    with pytest.raises(ValueError, match="capped"):
        partition_residues([(385, PARTITION_LIMIT + 1)])
    with pytest.raises(ValueError, match="modulus >= 1"):
        partition_residues([(0, 5)])
    # every pair is checked, not only the first
    with pytest.raises(ValueError, match=">= 0"):
        partition_residues([(7, 5), (385, -1)])
    with pytest.raises(ValueError, match="capped"):
        partition_residues([(7, 5), (385, PARTITION_LIMIT + 1)])
    with pytest.raises(ValueError, match="modulus >= 1"):
        partition_residues([(7, 5), (0, 5)])
    with pytest.raises(ValueError, match="at least one"):
        partition_residues([])


def test_residue_table_refuses_a_modulus_past_the_widest_slot():
    # A product slot sums at most C products of two residues, so its bound
    # is C (modulus - 1)^2; the widest array slot must hold it, at every n.
    largest = largest_modulus(partitions._CHUNK)
    assert (largest, largest_modulus(1)) == (189_812_532, 2**32)
    assert partition_residues([(largest, ORACLE_LIMIT)]) == [p % largest for p in pentagonal_oracle()]
    for n in (0, ORACLE_LIMIT):
        with pytest.raises(ValueError, match=f"no modulus above {largest}$"):
            partition_residues([(largest + 1, n)])
    # The bound holds for the lcm of the moduli, each under it here: the first chunk runs
    # mod 2 * 189812531.
    assert largest - 1 == 189_812_531 and (largest - 1) % 2 == 1
    for limits in ([(largest - 1, 9), (2, 9)], [(largest - 1, 0), (2, ORACLE_LIMIT)]):
        with pytest.raises(ValueError, match=f"no modulus above {largest}$"):
            partition_residues(limits)


# Every slot width a fill can take: a product slot holds at most 8 bytes,
# and a push slot, len(offsets) modulus, no more than that.
SLOT_WIDTHS = range(1, partitions._WIDEST + 1)


def test_the_widest_product_slot_is_reached():
    largest = largest_modulus(partitions._CHUNK)
    assert partitions._slot_width(partitions._CHUNK * (largest - 1) ** 2) == SLOT_WIDTHS[-1] == 8
    count = len(partitions.pentagonal_numbers(PARTITION_LIMIT))
    assert partitions._slot_width(count * largest) < 8


@pytest.mark.parametrize(
    "modulus, widths",
    [
        (9, (2, 2)),  # the push bound 36 * 9 = 324 and the product bound 512 * 8^2 = 32768 need 2 bytes
        (13, (2, 3)),  # the product bound 512 * 12^2 = 73728 needs 3 bytes, and 512 * 11^2 fits 2
        (8, (2, 2)),  # the push bound 36 * 8 = 288 needs 2 bytes, and 36 * 7 = 252 would fit in 1
    ],
)
def test_slot_bounds_are_the_largest_slot_sums(monkeypatch, modulus, widths):
    # Real residues never fill a slot to its bound, so the bounds are read where they are sized:
    # a push slot sums one value in [0, modulus] per offset, 36 offsets up to 511, and a product
    # slot C products.
    bounds = []
    slot_width = partitions._slot_width

    def recorded(bound):
        bounds.append(bound)
        return slot_width(bound)

    monkeypatch.setattr(partitions, "_slot_width", recorded)
    assert partitions._CHUNK == 512 and len(partitions.pentagonal_numbers(511)) == 36
    assert partition_residues([(modulus, 511)]) == [p % modulus for p in pentagonal_oracle()[:512]]
    assert bounds == [36 * modulus, 512 * (modulus - 1) ** 2]
    assert tuple(map(slot_width, bounds)) == widths


@pytest.mark.parametrize(
    "max_k, count, widths",
    [
        # ends 504, 705 and 1106: chunk 0 runs mod 385, chunk 1 mod 77 and chunk 2 mod 11; every
        # push bound fits 2 bytes, and the product bounds need 4, 3 and 2
        (100, 53, (2, 4, 2, 3, 2, 2)),
        # ends 25004, 35005 and 55006: mod 77 from chunk 49 and mod 11 from chunk 69; the push
        # bound 382 * 385 = 147070 needs 3 bytes, and 382 * 77 fits 2
        (5000, 382, (3, 4, 2, 3, 2, 2)),
    ],
)
def test_slot_bounds_narrow_with_each_phase(monkeypatch, max_k, count, widths):
    # Each phase of one lcm L sizes its slots once, push then product: a push slot sums one
    # value in [0, L] per offset, and a product slot C products of two residues mod L.
    bounds = []
    slot_width = partitions._slot_width

    def recorded(bound):
        bounds.append(bound)
        return slot_width(bound)

    monkeypatch.setattr(partitions, "_slot_width", recorded)
    limits = congruence_families(max_k)
    n = max(k for _, k in limits)
    assert partitions._CHUNK == 512 and len(partitions.pentagonal_numbers(n)) == count
    partition_count(n)
    assert_residues(limits, partition_residues(limits), [partition_count(m) for m in range(n + 1)])
    assert bounds == [count * 385, 512 * 384**2, count * 77, 512 * 76**2, count * 11, 512 * 10**2]
    assert tuple(map(slot_width, bounds)) == widths


# 9 is the narrowest slot past the array items; 23 and 47 are the widest slots that
# the exp kernel packs at n = 384 and at n = 1523
@pytest.mark.parametrize("width", (*SLOT_WIDTHS, 9, 23, 47))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_pack_and_unpack_round_trip_at_every_width(width, data):
    top = 256**width - 1
    values = data.draw(st.lists(st.one_of(st.just(top), st.just(0), st.integers(0, top)), max_size=40))
    packed = partitions._pack(values, width)
    assert packed == sum(v << 8 * width * i for i, v in enumerate(values))
    assert partitions._unpack(packed, len(values), width) == values
    # the lowest slots only, from an int whose higher slots are full
    count = data.draw(st.integers(0, len(values)))
    full = packed | top << 8 * width * len(values)
    assert partitions._unpack(full, count, width) == values[:count]


_NATIVE_ORDER = sys.byteorder  # read at import, before any test patches it


class _BigEndianArray(array):
    """An array whose bytes in and out read as on a big-endian host, whatever this host's order."""

    def __new__(cls, code, init):
        items = super().__new__(cls, code, init)
        if _NATIVE_ORDER == "little" and isinstance(init, (bytes, bytearray)):
            items.byteswap()
        return items

    def tobytes(self):
        if _NATIVE_ORDER == "big":
            return super().tobytes()
        swapped = array(self.typecode, self)
        swapped.byteswap()
        return swapped.tobytes()


def _distinct_bytes(width):
    return int.from_bytes(bytes(range(1, width + 1)), "little")


def test_the_big_endian_branch_swaps_each_items_bytes(monkeypatch):
    monkeypatch.setattr(sys, "byteorder", "big")
    for size, code in partitions._ITEMS.items():
        values = [0, 1, _distinct_bytes(size)]
        raw = array(code, values).tobytes()
        swapped = b"".join(raw[i:i + size][::-1] for i in range(0, len(raw), size))
        assert partitions._little(array(code, values)).tobytes() == swapped


@pytest.mark.parametrize("width", SLOT_WIDTHS)
def test_pack_and_unpack_round_trip_through_the_big_endian_branch(monkeypatch, width):
    # This shows that the branch runs and that the packed ints are as on a little-endian host
    # under a model of a big-endian one, not that the code is right on a real big-endian host.
    # sys.byteorder alone is not that model: on a little-endian host it swaps each item twice,
    # and a slot narrower than its item then takes the item's high bytes.
    monkeypatch.setattr(partitions, "array", _BigEndianArray)
    monkeypatch.setattr(sys, "byteorder", "big")
    values = [0, 1, 256**width - 1, _distinct_bytes(width)]
    packed = partitions._pack(values, width)
    assert packed == sum(v << 8 * width * i for i, v in enumerate(values))
    assert partitions._unpack(packed, len(values), width) == values


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_a_row_of_moduli_less_a_packed_chunk_holds_the_negations(data):
    # The fill's - half: slot i of the row less the packed chunk is m - r_i, with no borrow,
    # for residues in [0, m - 1] at any push width that holds m.
    modulus = data.draw(st.one_of(st.sampled_from((1, 255, 256, 2**16, 2**32)),
                                  st.integers(1, 1000), st.integers(1, largest_modulus(1))))
    width = data.draw(st.integers(partitions._slot_width(modulus), partitions._WIDEST))
    residues = data.draw(st.lists(
        st.one_of(st.just(0), st.just(modulus - 1), st.integers(0, modulus - 1)), min_size=1, max_size=40))
    count = len(residues)
    row = partitions._pack([modulus] * count, width)
    negations = partitions._unpack(row - partitions._pack(residues, width), count, width)
    assert negations == [modulus - r for r in residues]


@settings(deadline=None, max_examples=200)
@given(bound=st.one_of(
    st.builds(lambda width, step: max(0, 256**width + step), st.sampled_from((0, *SLOT_WIDTHS)),
              st.integers(-1, 1)),
    st.integers(0, 256 ** SLOT_WIDTHS[-1]),
))
@example(bound=0)  # modulus 1
@example(bound=255)
@example(bound=256)
def test_slot_width_is_the_fewest_whole_bytes(bound):
    width = partitions._slot_width(bound)
    assert width >= 1 and bound < 256**width
    assert width == 1 or bound >= 256 ** (width - 1)
