"""End-to-end acceptance checks at full scale, one test per criterion.

Each test records a single PASS/FAIL line; pytest reprints the collected
lines in a terminal-summary section, so a full run ends with eight
human-readable verdicts.  All comparisons are exact: integers and
fractions, zero tolerance.
"""

import json
import math
import random
import time
from fractions import Fraction

from conftest import d_by_branch, e_by_branch, record_criterion

from qbell import cli
from qbell.bell import complete_bell, partial_bell, partial_bell_by_enumeration
from qbell.identity import theorem_lhs
from qbell.numtheory import (
    G,
    H,
    d_coefficient,
    e_coefficient,
    seven_adic_split,
    sigma,
)
from qbell.partitions import BRUTE_LIMIT, partition_count, partition_count_brute
from qbell.series import TruncatedSeries, extract_log_coefficients


def run_cli(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_criterion_1_bell_identity_sweep(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, ["verify", "theorem", "--max-n", "64"])
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    ok = (
        code == 0
        and doc["overallPass"] is True
        and len(doc["entries"]) == 64
        and all(e["pass"] and e["lhs"] == e["rhs"] for e in doc["entries"])
        and elapsed < 30.0
    )
    record_criterion(
        1, ok, f"verify theorem --max-n 64 exact for every n ({elapsed:.2f}s, budget 30s)"
    )
    assert ok


def test_criterion_2_series_coefficients_match_partitions(capsys):
    brute_ok = all(
        partition_count(n) == partition_count_brute(n) for n in range(BRUTE_LIMIT + 1)
    )
    start = time.perf_counter()
    code, out = run_cli(capsys, ["verify", "eq3", "--order", "200"])
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    lhs = [entry["lhs"] for entry in doc["entries"]]
    ok = (
        brute_ok
        and code == 0
        and doc["overallPass"] is True
        and len(doc["entries"]) == 201
        and lhs[:3] == ["7", "77", "490"]
        and elapsed < 60.0
    )
    record_criterion(
        2,
        ok,
        "verify eq3 --order 200 with brute-validated partition counts "
        f"({elapsed:.2f}s, budget 60s)",
    )
    assert ok


def test_criterion_3_companion_series_matches_partitions(capsys):
    code, out = run_cli(capsys, ["verify", "eq2", "--order", "200"])
    doc = json.loads(out)
    lhs = [entry["lhs"] for entry in doc["entries"]]
    ok = (
        code == 0
        and doc["overallPass"] is True
        and len(doc["entries"]) == 201
        and lhs[:3] == ["5", "30", "135"]
    )
    record_criterion(3, ok, "verify eq2 --order 200 with spot values 5, 30, 135")
    assert ok


def test_criterion_4_congruence_sweep(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, ["verify", "congruences", "--max-k", "1000"])
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    ok = (
        code == 0
        and doc["overallPass"] is True
        and len(doc["entries"]) == 3 * 1001
        and elapsed < 10.0
    )
    record_criterion(
        4,
        ok,
        f"verify congruences --max-k 1000 for moduli 5, 7, 11 ({elapsed:.2f}s, budget 10s)",
    )
    assert ok


def test_criterion_5_log_coefficients_match_closed_forms():
    extracted_ok = (
        extract_log_coefficients(G, 100) == [d_coefficient(i) for i in range(1, 101)]
        and extract_log_coefficients(H, 100)
        == [e_coefficient(i) for i in range(1, 101)]
    )
    branch_ok = all(
        d_coefficient(i) == d_by_branch(i) and e_coefficient(i) == e_by_branch(i)
        for i in range(1, 10**4 + 1)
    )
    ok = extracted_ok and branch_ok
    record_criterion(
        5,
        ok,
        "log-derivative coefficients equal d/e closed forms to 100, "
        "closed forms equal branch forms to 10^4",
    )
    assert ok


def test_criterion_6_bell_recurrence_matches_definitional_sum():
    rng = random.Random(1729)
    enumeration_ok = True
    for n in range(1, 13):
        for k in range(1, n + 1):
            args = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(n - k + 1)
            ]
            if partial_bell(n, k, args) != partial_bell_by_enumeration(n, k, args):
                enumeration_ok = False

    xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(25)]
    generating = TruncatedSeries(
        [Fraction(0)] + [xs[m - 1] / math.factorial(m) for m in range(1, 26)]
    )
    exponential = generating.exp()
    exp_route_ok = all(
        complete_bell(n, xs[:n]) == exponential[n] * math.factorial(n)
        for n in range(26)
    )
    ok = enumeration_ok and exp_route_ok
    record_criterion(
        6,
        ok,
        "partial recurrence equals definitional sum for k <= n <= 12; "
        "complete values equal series-exp coefficients for n <= 25",
    )
    assert ok


def test_criterion_7_divisor_sum_identities():
    quotient_ok = True
    for n in range(7, 10**5 + 1, 7):
        m = seven_adic_split(n).exponent
        if sigma(n) * (7**m - 1) != (7 ** (m + 1) - 1) * sigma(n // 7):
            quotient_ok = False

    rng = random.Random(65537)
    pairs = []
    while len(pairs) < 500:
        a = rng.randint(1, 999)
        b = rng.randint(1, 999)
        if math.gcd(a, b) == 1:
            pairs.append((a, b))
    multiplicative_ok = all(sigma(a * b) == sigma(a) * sigma(b) for a, b in pairs)
    ok = quotient_ok and multiplicative_ok
    record_criterion(
        7,
        ok,
        "sigma quotient identity on all multiples of 7 up to 10^5; "
        "multiplicativity on 500 fixed-seed coprime pairs below 10^3",
    )
    assert ok


def test_criterion_8_left_side_is_integral():
    ok = all(theorem_lhs(n).denominator == 1 for n in range(1, 65))
    record_criterion(
        8, ok, "identity left side has denominator 1 for all n <= 64"
    )
    assert ok
