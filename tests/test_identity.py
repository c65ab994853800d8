"""The headline identity and the classical congruences."""

import json
import math
import time
from fractions import Fraction

import pytest

import qbell.identity
import qbell.series
from qbell import cli, partitions
from qbell.bell import complete_bell_sequence
from qbell.identity import (
    theorem_lhs,
    theorem_rhs,
    verify_congruences,
    verify_theorem,
)
from qbell.numtheory import G, P5K4, SUM_5K4, _weight, d_coefficient, e_coefficient, sigma
from qbell.partitions import partition_count, partition_residues
from qbell.series import ResidueCheck, residue_class_report, series_g, series_h


@pytest.mark.parametrize("n, expected", [(1, 77), (2, 980), (3, 14616), (4, 243432), (5, 4480560)])
def test_both_sides_known_values(n, expected):
    assert theorem_lhs(n) == expected
    assert theorem_rhs(n) == expected


def test_rhs_is_scaled_partition_count():
    for n in range(1, 12):
        assert theorem_rhs(n) == math.factorial(n) * partition_count(7 * n + 5)


def test_sides_agree_exactly():
    for n in range(1, 21):
        lhs = theorem_lhs(n)
        assert lhs.denominator == 1
        assert lhs == theorem_rhs(n)


def test_lhs_agrees_with_series_coefficients():
    # Independent route: the sum G + H carries the same numbers, divided by n!.
    total = series_g(25) + series_h(25)
    for n in range(1, 26):
        assert theorem_lhs(n) == math.factorial(n) * total[n]


def _bell_args(coefficient, n):
    return [math.factorial(i) * coefficient(i) for i in range(1, n + 1)]


def test_exponential_formula_matches_the_bell_oracle():
    # complete_bell_sequence, the binomial recurrence on i! d_i and i! e_i,
    # is the oracle for the exponential-formula route of both entry points.
    top = 256
    bells_d = complete_bell_sequence(top, _bell_args(d_coefficient, top))
    bells_e = complete_bell_sequence(top - 1, _bell_args(e_coefficient, top - 1))
    expected = [7 * bells_d[n] + 49 * n * bells_e[n - 1] for n in range(1, top + 1)]
    assert [entry.computed for entry in verify_theorem(top).entries] == expected
    assert [theorem_lhs(n) for n in range(1, top + 1)] == expected


def test_bell_side_of_the_p5k4_sum_is_driven_by_its_rows():
    # n! p(5n+4) = 5 B_n(1! c_1, ..., n! c_n) with n c_n = 6 sigma(n) - 25 sigma(n/5),
    # the weights of the P5K4 row, through the same code as the theorem and no target
    top = 256
    bells = complete_bell_sequence(top, _bell_args(lambda i: Fraction(_weight(i, P5K4), i), top))
    report = residue_class_report(ResidueCheck("p5k4-bell", SUM_5K4, "bell"), top)
    assert report.overall_pass
    assert [entry.index for entry in report.entries] == list(range(1, top + 1))
    assert [entry.computed for entry in report.entries] == [5 * b for b in bells[1:]]


def test_bell_side_of_the_p5k4_sum_fails_from_a_bumped_weight(monkeypatch):
    monkeypatch.setattr(
        qbell.series, "_weight", lambda i, row: _weight(i, row) + (i == 5 and row == P5K4)
    )
    report = residue_class_report(ResidueCheck("p5k4-bell", SUM_5K4, "bell"), 40)
    assert report.failures()[0].index == 5


def test_bell_arguments_are_integers():
    # i! d_i and i! e_i from sigma alone, so the weights i d_i and i e_i of
    # the exponential formula are ints too.
    for i in range(1, 401):
        base = math.factorial(i - 1)
        seventh = sigma(i // 7) if i % 7 == 0 else 0
        assert math.factorial(i) * d_coefficient(i) == 4 * base * sigma(i) - 21 * base * seventh
        assert math.factorial(i) * e_coefficient(i) == 8 * base * sigma(i) - 49 * base * seventh


def test_rhs_validation():
    with pytest.raises(ValueError, match="^the identity is stated for n >= 1$"):
        theorem_rhs(0)


def test_lhs_validation():
    with pytest.raises(ValueError):
        theorem_lhs(0)
    with pytest.raises(ValueError):
        theorem_lhs(-2)


# -- report wrappers -----------------------------------------------------------


def test_verify_theorem_report():
    report = verify_theorem(5)
    assert report.label == "bell-identity"
    assert report.overall_pass
    assert [entry.index for entry in report.entries] == [1, 2, 3, 4, 5]
    assert report.entries[0].computed == 77
    assert report.entries[0].expected == 77
    assert all(entry.passed for entry in report.entries)
    assert report.failures() == []


def assert_cli_fails(argv, capsys):
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["overallPass"] is False


@pytest.mark.parametrize(
    "shift, lhs_denominator",
    [(Fraction(1), 1), (Fraction(1, 1440), 2)],
)
def test_theorem_report_fails_from_a_shifted_d7(monkeypatch, capsys, shift, lhs_denominator):
    # The G weight 7 d_7 shifted by 1 shifts d_7 by 1/7, and 7! * (1/7) keeps
    # the Bell argument an integer, so only lhs == rhs can fail; shifted by
    # 1/1440, d_7 moves by 1/(2 * 7!) and the left side is no longer an integer.
    # An integral shift stays an int, so the packed exp route meets the
    # remainder; a fractional one runs the row's nodes by plain multiply-adds.
    bump = int(shift) if shift.denominator == 1 else shift
    # 100 lies past the exp leaf, and 100! (d_100 shifted by 1/100 or 1/144000) is whole
    for index, max_n, denominator in [(7, 10, lhs_denominator), (100, 120, 1)]:
        monkeypatch.setattr(
            qbell.series, "_weight",
            lambda i, row: _weight(i, row) + (bump if i == index and row == G else 0),
        )
        failure = verify_theorem(max_n).failures()[0]
        assert failure.index == index
        assert failure.computed.denominator == denominator
        assert failure.computed != failure.expected
        assert_cli_fails(["verify", "theorem", "--max-n", str(max_n)], capsys)


def test_theorem_rows_never_fall_back_to_the_exp_loop(monkeypatch):
    def node(*args):
        raise AssertionError("a theorem row left the packed exp route")

    monkeypatch.setattr(qbell.series, "_exp_node", node)
    assert verify_theorem(384).overall_pass


def test_congruence_report_fails_at_a_shifted_partition_count(monkeypatch, capsys):
    def shifted_residues(limits):
        residues = partition_residues(limits)
        residues[12] += 1
        return residues

    monkeypatch.setattr(qbell.series, "partition_residues", shifted_residues)
    max_k = 10
    report = verify_congruences(max_k)
    # p(7k+5) is the second family of max_k + 1 entries; 12 = 7*1 + 5
    assert report.failures() == [report.entries[max_k + 1 + 1]]
    assert report.failures()[0].index == 12
    assert_cli_fails(["verify", "congruences", "--max-k", str(max_k)], capsys)


def test_verify_theorem_validation():
    with pytest.raises(ValueError):
        verify_theorem(0)


@pytest.mark.parametrize("report, size", [(verify_theorem, 28571), (verify_congruences, 18182)])
def test_reports_refuse_a_size_before_any_work(monkeypatch, report, size):
    def unbuilt(*args):
        raise AssertionError("built a row for a refused size")

    for name in ("_exp", "_eta_sum"):
        monkeypatch.setattr(qbell.series, name, unbuilt)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="capped"):
        report(size)
    assert time.perf_counter() - start < 1.0


def test_partition_residues_vanish():
    for k in range(40):
        assert partition_count(5 * k + 4) % 5 == 0
        assert partition_count(7 * k + 5) % 7 == 0
        assert partition_count(11 * k + 6) % 11 == 0
    # the same on the residue table of the three families, each reaching its own k = 39
    residues = partition_residues([(5, 5 * 39 + 4), (7, 7 * 39 + 5), (11, 11 * 39 + 6)])
    for k in range(40):
        assert residues[5 * k + 4] % 5 == 0
        assert residues[7 * k + 5] % 7 == 0
        assert residues[11 * k + 6] % 11 == 0


def test_verify_congruences_report():
    report = verify_congruences(20)
    assert report.label == "ramanujan-congruences"
    assert report.overall_pass
    assert len(report.entries) == 3 * 21
    indices = {entry.index for entry in report.entries}
    assert {4, 9, 14, 5, 12, 19, 6, 17, 28}.issubset(indices)
    for entry in report.entries:
        assert entry.expected == 0
        assert entry.passed


def test_congruence_report_leaves_the_shared_partition_table_alone(monkeypatch):
    monkeypatch.setattr(partitions, "_table", [1])

    def refuse(n):
        raise AssertionError(f"partition_count({n}) called by the congruence report")

    monkeypatch.setattr(qbell.series, "partition_count", refuse)
    assert verify_congruences(1000).overall_pass
    assert partitions._table == [1]


def test_verify_congruences_validation():
    with pytest.raises(ValueError):
        verify_congruences(-1)
