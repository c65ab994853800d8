"""The partition function p(n), with an independent counting oracle."""

import threading
from functools import lru_cache

__all__ = ["partition_count", "partition_count_brute", "BRUTE_LIMIT"]

# Dense memo table, p(0) .. p(largest n seen so far).  Append-only: a filled
# entry never changes, so reading one takes no lock.  Extension holds
# _extend_lock and rereads the length inside it, so two threads never append
# the same index.
_table = [1]
_extend_lock = threading.Lock()


def partition_count(n: int) -> int:
    """Number of partitions of n.

    Euler's pentagonal recurrence
        p(n) = sum_{k>=1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]
    with p(0) = 1 and p(negative) = 0.  Filling the table up to N costs
    O(N^1.5) big-integer additions.
    """
    if n < 0:
        raise ValueError("partition_count is defined for n >= 0")
    if n >= len(_table):
        with _extend_lock:
            for m in range(len(_table), n + 1):
                total = 0
                k = 1
                while True:
                    g = k * (3 * k - 1) // 2
                    if g > m:
                        break
                    term = _table[m - g]
                    g += k  # k(3k+1)/2
                    if g <= m:
                        term += _table[m - g]
                    total += term if k % 2 else -term
                    k += 1
                _table.append(total)
    return _table[n]


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
