"""The `lookups` batch: a fixed list of library queries made from the seed.

Query counts are set so that, on warm caches, each class takes a similar
share of the batch time (about 0.55 us per partition read, 0.2 us per
sigma read, 10 us per d/e coefficient and 80 us per small Bell call on a
2-core x86-64 box under CPython 3.11), so that no class dominates the
total.  Bell calls come in equal numbers for every n, so that the seed
changes the values but not the amount of work.
"""

import random
from fractions import Fraction

PARTITION_MAX = 10_000
SIGMA_MAX = 100_000
BELL_MAX_N = 8
BELL_PER_N = 50

# (qbell name, number of queries in one batch)
CLASSES = (
    ("partition_count", 40_000),
    ("sigma", 100_000),
    ("d_coefficient", 1_500),
    ("e_coefficient", 1_500),
    ("complete_bell", BELL_MAX_N * BELL_PER_N),
)
NAMES = tuple(name for name, _ in CLASSES)
SIZE = sum(count for _, count in CLASSES)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def make_batch(seed: int) -> list[tuple[int, tuple]]:
    """[(index into NAMES, call arguments)], shuffled; the same seed gives the same batch."""
    rng = random.Random(seed)
    queries = [(0, (rng.randint(0, PARTITION_MAX),)) for _ in range(CLASSES[0][1])]
    for cls in (1, 2, 3):
        queries += [(cls, (rng.randint(1, SIGMA_MAX),)) for _ in range(CLASSES[cls][1])]
    for n in range(1, BELL_MAX_N + 1):
        queries += [(4, (n, [_rational(rng) for _ in range(n)])) for _ in range(BELL_PER_N)]
    rng.shuffle(queries)
    return queries
