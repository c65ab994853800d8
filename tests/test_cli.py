"""Command line behaviour: output formats, JSON reports, exit codes."""

import argparse
import hashlib
import io
import json
import signal
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from conftest import int_max_str_digits

from qbell import cli
from qbell.identity import verify_congruences, verify_theorem
from qbell.partitions import partition_count
from qbell.reports import DIGIT_LIMIT, format_exact, write_json
from qbell.series import TruncatedSeries, verify_p5k4_identity, verify_p7n5_identity


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- value commands ------------------------------------------------------------


def test_partition_command(capsys):
    assert run_cli(capsys, ["partition", "12"]) == (0, "77\n", "")
    assert run_cli(capsys, ["partition", "0"]) == (0, "1\n", "")
    assert run_cli(capsys, ["partition", "100"]) == (0, "190569292\n", "")
    # an argument of exactly DIGIT_LIMIT digits is read, and n one past the table's limit is refused
    assert run_cli(capsys, ["partition", "0" * (DIGIT_LIMIT - 1) + "5"]) == (0, "7\n", "")
    err = "error: partition_count is capped at n <= 200000\n"
    assert run_cli(capsys, ["partition", "200001"]) == (3, "", err)


def test_sigma_command(capsys):
    assert run_cli(capsys, ["sigma", "12"]) == (0, "28\n", "")
    assert run_cli(capsys, ["sigma", "1"]) == (0, "1\n", "")


def test_coeff_command(capsys):
    assert run_cli(capsys, ["coeff", "d", "7"]) == (0, "11/7\n", "")
    assert run_cli(capsys, ["coeff", "e", "3"]) == (0, "32/3\n", "")
    # integral values print without a denominator
    assert run_cli(capsys, ["coeff", "d", "1"]) == (0, "4\n", "")
    assert run_cli(capsys, ["coeff", "e", "6"]) == (0, "16\n", "")


def test_bell_command(capsys):
    assert run_cli(capsys, ["bell", "2", "4", "12"]) == (0, "28\n", "")
    assert run_cli(capsys, ["bell", "4", "1", "1", "1", "1"]) == (0, "15\n", "")
    assert run_cli(capsys, ["bell", "0"]) == (0, "1\n", "")


def test_bell_runs_at_its_cap(capsys):
    assert run_cli(capsys, ["bell", "1000", *["0"] * 1000]) == (0, "0\n", "")


def test_bell_accepts_negative_rationals(capsys):
    code, out, err = run_cli(capsys, ["bell", "3", "1/2", "-2", "3"])
    assert (code, out, err) == (0, "1/8\n", "")


# -- series output ---------------------------------------------------------------


def test_series_euler_lines(capsys):
    code, out, err = run_cli(capsys, ["series", "euler", "--order", "7"])
    assert code == 0
    assert out == "0\t1\n1\t-1\n2\t-1\n3\t0\n4\t0\n5\t1\n6\t0\n7\t1\n"


def test_series_g_and_h_lines(capsys):
    code, out, _ = run_cli(capsys, ["series", "G", "--order", "3"])
    assert code == 0
    assert out == "0\t7\n1\t28\n2\t98\n3\t280\n"
    code, out, _ = run_cli(capsys, ["series", "H", "--order", "3"])
    assert code == 0
    assert out == "0\t0\n1\t49\n2\t392\n3\t2156\n"


# -- verify commands -------------------------------------------------------------


def test_verify_theorem_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "theorem", "--max-n", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "bell-identity"
    assert doc["overallPass"] is True
    assert doc["entries"] == [
        {"n": 1, "lhs": "77", "rhs": "77", "pass": True},
        {"n": 2, "lhs": "980", "rhs": "980", "pass": True},
    ]


def test_verify_eq_commands(capsys):
    code, out, _ = run_cli(capsys, ["verify", "eq3", "--order", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["overallPass"] is True
    assert doc["entries"][0]["lhs"] == "7"
    assert doc["entries"][1]["lhs"] == "77"
    assert doc["entries"][2]["lhs"] == "490"

    code, out, _ = run_cli(capsys, ["verify", "eq2", "--order", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["overallPass"] is True
    assert [entry["lhs"] for entry in doc["entries"][:3]] == ["5", "30", "135"]


def test_verify_congruences_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "congruences", "--max-k", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "ramanujan-congruences"
    assert doc["overallPass"] is True
    assert len(doc["entries"]) == 18
    assert all(entry["pass"] for entry in doc["entries"])


def test_verify_congruences_output_bytes_are_pinned(capsys):
    code, out, err = run_cli(capsys, ["verify", "congruences", "--max-k", "5000"])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "0e7f7392d4ff9ad40a0dcbb17d9b75668b83683bde9ebc85f8df8320c2cc7247"


PINNED_OUTPUTS = [
    (["verify", "theorem", "--max-n", "384"],
     "58ea816d7acb3f4c7762ac5fcd5d8b3359642ebcdbf0a01892c1a751e5981234"),
    (["verify", "eq3", "--order", "400"],
     "1640ec2bfab2da492537438e8b7ff08f166e0402adf85aaff5f99342e936c7e7"),
    (["verify", "eq2", "--order", "400"],
     "d9ac4a7ee3c12b49861d22b84fa45f6da18c8212e2e90acceff1dfe37e6966a9"),
    (["verify", "all"],
     "c66c72e87d99237e2c111dca74e868d1becb510da9491f503d07ac4021de8ec4"),
    (["series", "euler", "--order", "400"],
     "7f5d71ea9eb01cf358b8e1919db0fa4e0cb0f7e45167ac5d71320eb6d360c639"),
    (["series", "G", "--order", "400"],
     "ae5d52f3b532b92415d0f5ba5314bc410b47be4dd04c8ee4e35e2b633d057bd6"),
    (["series", "H", "--order", "400"],
     "cdf0e3520f8e11db3c71e44af07bcc2d5797d3587d2d9bb31ca30db4c5348e71"),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_verify_output_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [p for p in PINNED_OUTPUTS if p[0][1] in ("all", "G")])
def test_verify_all_and_series_run_no_dense_series_algebra(capsys, monkeypatch, argv, digest):
    # both sides build on int lists: no product, sum, monomial, zero or spread of a series
    def dense(*args):
        raise AssertionError("ran dense series algebra")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "monomial", "zero",
                 "substitute_power"):
        monkeypatch.setattr(TruncatedSeries, name, dense)
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify", "--help"],
         "cb897d571d3e5da1266911f9ca0c9c9b3e6f6ae678ac0720c1c614d487a973ae"),
        (["verify", "all", "--help"],
         "6dfb8833578d0684b6cd91fbd62d3a105db79a217e726b9280b232d441b83395"),
        (["verify", "theorem", "--help"],
         "6ae559a342c62c51d6e7ebf507b34808dfa49c4f30d96978211d57980cbb3851"),
        (["verify", "eq2", "--help"],
         "a766549012fff74476a8b8c2c4364d55f9a618b90f8f6016e193ec534eff1793"),
        (["verify", "eq3", "--help"],
         "cdbcbc15f7d69e7c9db77b731aa16e037bafbc0ed6092a324bed7c23b06066a7"),
        (["verify", "congruences", "--help"],
         "23ced2bca04210aa5bc681947ec42d23ca9417470697aed0b127a276ebd3c02a"),
    ],
)
def test_verify_help_bytes_are_pinned(capsys, monkeypatch, argv, digest):
    # the verify subparsers are built from the target rows; argparse wraps at COLUMNS - 2
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--help"], "1cc2bc30f3a1d6dbdce1d55cf581f6c5e38ab6b73298393cd095026ee5a9d86a"),
        (["partition", "--help"],
         "8ffbfd0ff4246af2d73cac6e10faf3335bc7bf1fbafcd6fccaf773838c2335ec"),
        (["sigma", "--help"], "ea29d225ca7c0a01cbc59a0c5b109f15482ab9d571b3f8decf47440a01028c12"),
        (["coeff", "--help"], "c9e4a47653036ed51dd42c4beef42260ae11a4842b2be1e5e9bb54b89025dcbe"),
        (["bell", "--help"], "dfa2356b0b76b306a984d2366682d1bd9086c1a204fdc68fa6659fdca3919907"),
        (["series", "--help"],
         "21b0aa261beae0112a28221320ffc483ccbf129117bc05201af71d8bae45cb75"),
    ],
)
def test_command_help_bytes_are_pinned(capsys, monkeypatch, argv, digest):
    # argparse wraps at COLUMNS - 2
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_unknown_command_usage_error_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    commands = ("partition", "sigma", "coeff", "bell", "series", "verify")
    # newer argparse releases list the choices by str, older ones by repr
    errs = {
        "usage: qbell [-h] {partition,sigma,coeff,bell,series,verify} ...\n"
        f"qbell: error: argument command: invalid choice: 'nope' (choose from {listed})\n"
        for listed in (", ".join(map(repr, commands)), ", ".join(commands))
    }
    code, out, err = run_cli(capsys, ["nope"])
    assert (code, out) == (2, "")
    assert err in errs


# -- parser builds -----------------------------------------------------------------

_TARGETS = ("theorem", "eq2", "eq3", "congruences", "all")


def _on(*words):
    """The progs of the parsers from the top one down the commands named by words."""
    return tuple(" ".join(("qbell", *words[:depth])) for depth in range(len(words) + 1))


# the whole tree in build order, and the top parser, verify and each of its targets
_WHOLE_TREE = (*_on(), *(f"qbell {command}" for command in (
    "partition", "sigma", "coeff", "bell", "series", "verify")),
    *(f"qbell verify {target}" for target in _TARGETS))
_VERIFY_BRANCH = (*_on("verify"), *(f"qbell verify {target}" for target in _TARGETS))


@pytest.fixture
def built(monkeypatch):
    """The progs of the parsers built since the test began, in build order."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return progs


def _build_whole_tree(monkeypatch):
    # every argv through argparse, and the whole tree built for it
    whole = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: whole())
    monkeypatch.setattr(cli, "_verify_args", lambda argv: None)


# path: the progs of the parsers that the run builds; a canonical verify argv builds none
@pytest.mark.parametrize(
    "argv, path",
    [
        # help at every level; an option first, or in place of a target, builds that level whole
        (["--help"], _WHOLE_TREE),
        (["-h", "verify"], _WHOLE_TREE),
        (["partition", "--help"], _on("partition")),
        (["sigma", "--help"], _on("sigma")),
        (["coeff", "--help"], _on("coeff")),
        (["bell", "--help"], _on("bell")),
        (["series", "--help"], _on("series")),
        (["verify", "--help"], _VERIFY_BRANCH),
        (["verify", "-h", "theorem"], _VERIFY_BRANCH),
        *[(["verify", name, "--help"], _on("verify", name)) for name in _TARGETS],
        # usage errors: the top parser's own usage, a bad int, missing arguments, bad choices
        (["verify", "theorem", "--max-n", "5", "junk"], _on("verify", "theorem")),
        (["partition", "abc"], _on("partition")),
        (["partition"], _on("partition")),
        (["verify", "theorem"], _on("verify", "theorem")),
        (["series", "G"], _on("series")),
        (["series", "cosine", "--order", "3"], _on("series")),
        (["coeff", "q", "3"], _on("coeff")),
        (["bell", "2", "4"], _on("bell")),
        (["verify", "all", "--order", "x"], _on("verify", "all")),
        (["verify"], _VERIFY_BRANCH),
        (["verify", "nothing", "--max-n", "3"], _VERIFY_BRANCH),
        (["verify", "--", "theorem", "--max-n", "3"], _VERIFY_BRANCH),
        ([], _WHOLE_TREE),
        (["nope"], _WHOLE_TREE),
        # each cap plus one
        (["verify", "theorem", "--max-n", "1524"], ()),
        (["verify", "eq2", "--order", "40000"], ()),
        (["verify", "eq3", "--order", "28571"], ()),
        (["verify", "congruences", "--max-k", "18182"], ()),
        (["verify", "all", "--max-n", "1524"], ()),
        (["series", "H", "--order", "28571"], _on("series")),
        (["bell", "1001", *["1"] * 1001], _on("bell")),
        (["partition", "200001"], _on("partition")),
        # passing runs
        (["partition", "12"], _on("partition")),
        (["sigma", "12"], _on("sigma")),
        (["coeff", "d", "7"], _on("coeff")),
        (["bell", "2", "4", "12"], _on("bell")),
        (["series", "G", "--order", "5"], _on("series")),
        (["verify", "theorem", "--max-n", "3"], ()),
        (["verify", "eq3", "--order", "3"], ()),
        (["verify", "all", "--max-n", "3", "--order", "3", "--max-k", "3"], ()),
        # a branch named but no target, and extra words or help after a leaf
        (["verify", "-h"], _VERIFY_BRANCH),
        (["verify", "--max-n", "3"], _VERIFY_BRANCH),
        (["verify", "all", "theorem"], _on("verify", "all")),
        (["verify", "eq3", "-h"], _on("verify", "eq3")),
        (["series", "-h"], _on("series")),
        # verify argvs that argparse reads: the = form and an abbreviation
        (["verify", "all", "--max-n=1524"], _on("verify", "all")),
        (["verify", "eq3", "--order=3"], _on("verify", "eq3")),
        (["verify", "theorem", "--max", "3"], _on("verify", "theorem")),
    ],
)
def test_a_path_build_prints_as_the_whole_tree(capsys, monkeypatch, built, argv, path):
    # the same exit code, stdout and stderr from the parsers argv names as from all of them
    monkeypatch.setenv("COLUMNS", "80")
    on_path = run_cli(capsys, argv)
    assert tuple(built) == path
    _build_whole_tree(monkeypatch)
    assert run_cli(capsys, argv) == on_path


def test_a_run_builds_only_the_parsers_its_argv_names(capsys, monkeypatch, built):
    canonical = run_cli(capsys, ["verify", "eq3", "--order", "3"])
    assert built == []
    argv = ["verify", "eq3", "--order=3"]
    on_path = run_cli(capsys, argv)
    assert on_path == canonical
    assert built == ["qbell", "qbell verify", "qbell verify eq3"]
    built.clear()
    _build_whole_tree(monkeypatch)
    assert run_cli(capsys, argv) == on_path
    assert built == list(_WHOLE_TREE) and len(built) == 12


def _canonical_verify_argvs():
    """Each target at 0, 1, its cap, its cap plus one and with leading zeros; verify all
    with every subset of its flags, in every order."""
    for t in cli._VERIFY_TARGETS:
        for text in ("0", "1", str(t.cap), str(t.cap + 1), "007", "0" * DIGIT_LIMIT):
            yield ["verify", t.name, t.flag, text]
    values = dict(zip(cli._VERIFY_ALL_SIZES, ("3", "0012", "18182")))
    for k in range(len(values) + 1):
        for flags in permutations(values, k):
            yield ["verify", "all", *(word for f in flags for word in (f, values[f]))]


# argvs that must go through argparse: each one's errors and help are argparse's own
_ARGPARSE_VERIFY_ARGVS = [
    ["verify", "theorem", "--max-n=5"],
    ["verify", "all", "--order=5"],
    ["verify", "theorem", "--max-n", "-5"],
    ["verify", "theorem", "--max-n", "+5"],
    ["verify", "all", "--max-k", "-1"],
    ["verify", "theorem", "--max", "5"],
    ["verify", "all", "--ord", "5"],
    ["verify", "theorem", "--max-n", "3", "--max-n", "4"],
    ["verify", "all", "--order", "3", "--max-n", "1", "--order", "4"],
    ["verify", "theorem", "--order", "5"],
    ["verify", "eq2", "--max-k", "5"],
    ["verify", "congruences", "--max-n", "5"],
    ["verify", "theorem", "--max-n", "5", "junk"],
    ["verify", "all", "--max-n", "5", "junk"],
    ["verify", "all", "theorem"],
    ["verify", "theorem"],
    ["verify"],
    ["verify", "nothing", "--max-n", "3"],
    ["verify", "-h"],
    ["verify", "theorem", "-h"],
    ["verify", "theorem", "--max-n", "-h"],
    ["verify", "all", "--help"],
    ["verify", "all", "--max-n", "3", "-h", "3"],
    ["verify", "--", "theorem", "--max-n", "3"],
    ["verify", "theorem", "--", "--max-n", "3"],
    ["verify", "theorem", "--max-n", "--", "3"],
    ["verify", "theorem", "--max-n", "\u0663"],
    ["verify", "theorem", "--max-n", "\uff11\uff12"],
    ["verify", "theorem", "--max-n", "1_0"],
    ["verify", "theorem", "--max-n", " 5"],
    ["verify", "theorem", "--max-n", ""],
    ["verify", "congruences", "--max-k", "1" * (DIGIT_LIMIT + 1)],
    ["verify", "all", "--max-k", "0" * (DIGIT_LIMIT + 1)],
    ["-h", "verify", "theorem", "--max-n", "3"],
    ["theorem", "--max-n", "3"],
    [],
]


def test_a_canonical_verify_argv_gives_argparse_namespace_and_no_other_does():
    for argv in _canonical_verify_argvs():
        fast = cli._verify_args(argv)
        assert fast is not None, argv
        assert vars(fast) == vars(cli.build_parser(argv).parse_args(argv)), argv
    for argv in _ARGPARSE_VERIFY_ARGVS:
        assert cli._verify_args(argv) is None, argv


def test_verify_all_emits_array(capsys):
    code, out, _ = run_cli(capsys, ["verify", "all"])
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list)
    assert [doc["label"] for doc in docs] == [
        "bell-identity",
        "p5k4-series",
        "p7n5-series",
        "ramanujan-congruences",
    ]
    assert all(doc["overallPass"] for doc in docs)


# the library entry point of each verify target
_LIBRARY_REPORTS = {
    "theorem": verify_theorem,
    "eq2": verify_p5k4_identity,
    "eq3": verify_p7n5_identity,
    "congruences": verify_congruences,
}


@pytest.mark.parametrize("target", cli._VERIFY_TARGETS, ids=lambda target: target.name)
def test_library_reports_print_as_their_verify_targets(capsys, target):
    # the library function and the front end's row give the same bytes at the `verify all` size
    size = cli._VERIFY_ALL_SIZES[target.flag]
    library = io.StringIO()
    write_json(_LIBRARY_REPORTS[target.name](size), library)
    argv = ["verify", target.name, target.flag, str(size)]
    assert run_cli(capsys, argv) == (0, library.getvalue() + "\n", "")


# the entry indices of each verify target at its smallest size
_SMALLEST_ENTRIES = {"theorem": [1], "eq2": [0], "eq3": [0], "congruences": [4, 5, 6]}


@pytest.mark.parametrize("target", cli._VERIFY_TARGETS, ids=lambda target: target.name)
def test_verify_targets_run_at_their_smallest_size(capsys, target):
    # the library report and the front end accept the lower bound they share
    report = _LIBRARY_REPORTS[target.name](target.smallest)
    assert [entry.index for entry in report.entries] == _SMALLEST_ENTRIES[target.name]
    assert report.overall_pass
    library = io.StringIO()
    write_json(report, library)
    argv = ["verify", target.name, target.flag, str(target.smallest)]
    assert run_cli(capsys, argv) == (0, library.getvalue() + "\n", "")


def test_verify_output_is_deterministic(capsys):
    first = run_cli(capsys, ["verify", "theorem", "--max-n", "4"])
    second = run_cli(capsys, ["verify", "theorem", "--max-n", "4"])
    assert first == second


# -- exit codes -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "abc"],
        ["partition", "1.5"],
        ["sigma"],
        ["coeff", "q", "3"],
        ["bell", "2", "4"],
        ["bell", "2", "4", "12", "5"],
        ["bell", "0", "5"],  # B_0 takes no argument
        ["bell", "1", "1/0"],
        ["bell", "1", "x"],
        ["bell", "1", "\u0663"],  # ARABIC-INDIC DIGIT THREE, a Unicode digit
        ["bell", "1", "5\n"],
        ["series", "euler"],
        ["series", "cosine", "--order", "3"],
        ["verify", "theorem"],
        ["verify", "nothing", "--max-n", "3"],
        ["unknown-command"],
        [],
        # int() alone takes Unicode digits, underscores and surrounding spaces
        ["partition", "\u0663"],
        ["partition", "\uff11\uff12"],  # FULLWIDTH DIGITS ONE and TWO
        ["partition", "1_0"],
        ["partition", " 5\n"],
        ["bell", "\u0662", "1", "2"],
        ["verify", "congruences", "--max-k", "1_0"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err != ""
    if argv[:1] == ["bell"]:  # the handler's own errors print bell's usage, as argparse's do
        assert captured.err.startswith("usage: qbell bell ")


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "0"],
        ["sigma", "--", "-4"],
        ["partition", "--", "-1"],
        ["coeff", "d", "0"],
        ["coeff", "e", "--", "-2"],
        ["bell", "-1"],
        ["bell", "-2", "1/2"],
        ["partition", "1000000000"],
        ["verify", "congruences", "--max-k", "100000"],
        ["verify", "theorem", "--max-n", "1524"],
        ["verify", "eq3", "--order", "28571"],
        ["verify", "eq2", "--order", "40000"],
        ["verify", "all", "--max-n", "1524"],
        ["series", "euler", "--order", "1000000000000000"],
        ["sigma", "1000000000000000000000"],
        ["coeff", "d", "1000000000000000000000"],
        ["bell", "1001", *["1"] * 1001],
        ["bell", "1000", *["9" * 100] * 1000],  # B_1000 would have 100,000 digits
        # u = 28.5 from 4i-digit numerators over 19949; ran 57.5 s before exit 3
        ["bell", "1000", *[f"{'7' * (4 * i)}/19949" for i in range(1, 1001)]],
        # b alone passes the work bound at its first 4000-digit denominator
        ["bell", "400", *[f"1/1{2 * i + 1:03999d}" for i in range(400)]],
        ["verify", "all", "--max-n", "1523", "--order", "28570", "--max-k", "-1"],
    ],
)
def test_precondition_errors_exit_three(capsys, argv):
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error:")
    assert elapsed < 1.0  # refused before any work


@pytest.fixture
def stub_reports(monkeypatch):
    """Replace every verify report by a stub; returns the (target, size) calls."""
    from qbell.reports import VerificationReport

    ran = []

    def stub(label):
        def report(size):
            ran.append((label, size))
            return VerificationReport(label, ())

        return report

    # the target name of each check row that the shared residue-class report is given
    name_of = {target.check: target.name for target in cli._VERIFY_TARGETS}

    def shared(check, size):
        return stub(name_of[check])(size)

    monkeypatch.setattr(cli.series, "residue_class_report", shared)
    return ran


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["verify", "theorem", "--max-n", "1524"], "1523"),
        (["verify", "eq3", "--order", "28571"], "28570"),
        (["verify", "eq2", "--order", "40000"], "39999"),
        (["verify", "all", "--max-n", "1524"], "1523"),
        (["verify", "all", "--order", "30000"], "28570"),
        (["verify", "congruences", "--max-k", "18182"], "18181"),
    ],
)
def test_verify_caps_are_checked_before_any_report(capsys, stub_reports, argv, cap):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, stub_reports) == (3, "", [])
    assert f"capped at {cap}" in err


@pytest.mark.parametrize(
    "argv, report, size",
    [
        (["verify", "all", "--max-n", "0"], verify_theorem, 0),
        (["verify", "all", "--order", "-1"], verify_p5k4_identity, -1),
        (["verify", "all", "--max-k", "-1"], verify_congruences, -1),
        (["verify", "theorem", "--max-n", "-5"], verify_theorem, -5),
        (["verify", "eq3", "--order", "-1"], verify_p7n5_identity, -1),
    ],
)
def test_verify_lower_bounds_are_checked_before_any_report(capsys, request, argv, report, size):
    # the front end refuses the size with the message the report itself raises,
    # taken before the stubs replace the shared report that the library reports call
    with pytest.raises(ValueError) as raised:
        report(size)
    stub_reports = request.getfixturevalue("stub_reports")
    assert run_cli(capsys, argv) == (3, "", f"error: {raised.value}\n")
    assert stub_reports == []


def test_verify_all_exits_1_when_any_one_report_fails(capsys, monkeypatch, stub_reports):
    from qbell.reports import VerificationReport

    failing = VerificationReport.from_rows("eq2", [(0, 1, 2)])
    stub = cli.series.residue_class_report

    def eq2_fails(check, size):
        return failing if check.label == "p5k4-series" else stub(check, size)

    monkeypatch.setattr(cli.series, "residue_class_report", eq2_fails)
    code, out, err = run_cli(capsys, ["verify", "all"])
    assert (code, err) == (1, "")
    docs = json.loads(out)
    assert [(doc["label"], doc["overallPass"]) for doc in docs] == [
        ("theorem", True), ("eq2", False), ("eq3", True), ("congruences", True)
    ]


def test_each_side_has_one_smallest_size(capsys, monkeypatch, stub_reports):
    # the library's report and the front end's lower bound read the same table entry
    monkeypatch.setitem(cli.series.SMALLEST_SIZE, "bell", 2)
    monkeypatch.setitem(cli.series.SMALLEST_SIZE, "congruence", 1)
    for report, argv, name, low in [
        (verify_theorem, ["verify", "theorem", "--max-n", "1"], "max_n", 2),
        (verify_congruences, ["verify", "congruences", "--max-k", "0"], "max_k", 1),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}$"):
            report(low - 1)
        assert run_cli(capsys, argv) == (3, "", f"error: {name} must be >= {low}\n")
    assert stub_reports == []


def test_each_size_has_one_name(capsys, monkeypatch, stub_reports):
    # the library's message, the front end's flag and its message read the same name
    monkeypatch.setitem(cli.series.SIZE_NAME, "bell", "largest_n")
    monkeypatch.setitem(cli.series.SIZE_NAME, "congruence", "largest_k")
    for report, argv, name, low in [
        (verify_theorem, ["verify", "theorem", "--largest-n", "0"], "largest_n", 1),
        (verify_congruences, ["verify", "congruences", "--largest-k", "-1"], "largest_k", 0),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}$"):
            report(low - 1)
        assert run_cli(capsys, argv) == (3, "", f"error: {name} must be >= {low}\n")
    assert stub_reports == []


def test_verify_caps_are_checked_before_lower_bounds(capsys, stub_reports):
    argv = ["verify", "all", "--max-n", "0", "--order", "30000"]
    assert run_cli(capsys, argv) == (3, "", "error: verify eq3 --order is capped at 28570\n")
    assert stub_reports == []


def test_verify_runs_at_its_cap(capsys, stub_reports):
    argv = ["verify", "all", "--max-n", "1523", "--order", "28570", "--max-k", "18181"]
    assert run_cli(capsys, argv)[0] == 0
    assert run_cli(capsys, ["verify", "eq2", "--order", "39999"])[0] == 0
    assert stub_reports == [
        ("theorem", 1523), ("eq2", 28570), ("eq3", 28570), ("congruences", 18181), ("eq2", 39999)
    ]


@pytest.mark.parametrize(
    "target",
    [target for target in cli._VERIFY_TARGETS if target.check.side == "bell"],
    ids=lambda target: target.name,
)
def test_bell_side_cap_is_the_last_printable_n(target):
    # The cap keeps n! p(M n + R) of the row's sum within qbell's digit bound;
    # one step past it the right side is past the bound.
    modulus, residue, _ = target.check.sum

    def rhs(n):
        return factorial(n) * partition_count(modulus * n + residue)

    assert len(format_exact(rhs(target.cap))) <= DIGIT_LIMIT
    assert rhs(target.cap + 1) >= 10**DIGIT_LIMIT


@pytest.mark.parametrize("limit", [640, 0])  # the interpreter's smallest limit, and none
def test_values_within_the_bound_do_not_follow_the_interpreter_limit(capsys, limit):
    argvs = [
        ["verify", "theorem", "--max-n", "400"],  # values up to about 950 digits
        ["bell", "2", "0", "9" * DIGIT_LIMIT],  # a result at the bound
        ["bell", "1", "7" * DIGIT_LIMIT],  # an argument at the bound
    ]
    with int_max_str_digits(DIGIT_LIMIT):
        expected = [run_cli(capsys, argv) for argv in argvs]
    assert [result[0] for result in expected] == [0, 0, 0]
    with int_max_str_digits(limit):
        assert [run_cli(capsys, argv) for argv in argvs] == expected


@pytest.mark.parametrize("limit", [DIGIT_LIMIT, 640, 0])
@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["bell", "1", "7" * (DIGIT_LIMIT + 1)],
         3, f"error: a rational is capped at {DIGIT_LIMIT} digits\n"),
        (["partition", "0" * DIGIT_LIMIT + "5"], 2, "invalid int value"),  # leading zeros count
    ],
    ids=["bell", "partition"],
)
def test_arguments_past_the_bound_are_refused_under_any_interpreter_limit(
    capsys, limit, argv, code, err
):
    with int_max_str_digits(limit):
        result = run_cli(capsys, argv)
    assert result[:2] == (code, "")
    assert err in result[2]


def test_series_order_is_capped_with_eq3(capsys, monkeypatch):
    # series --order builds the same G and H as verify eq3 --order
    from qbell.series import TruncatedSeries

    monkeypatch.setattr(cli.series, "series_h", lambda order: TruncatedSeries.zero(0))
    assert run_cli(capsys, ["series", "H", "--order", "28570"]) == (0, "0\t0\n", "")
    code, out, err = run_cli(capsys, ["series", "H", "--order", "28571"])
    assert (code, out, err) == (3, "", "error: series --order is capped at 28570\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["bell", "1", "7" * 4400],  # an argument past the limit
        ["bell", "1", "1/" + "0" * 4300 + "1"],  # leading zeros count, as in int()
        ["bell", "2", "7" * 3000, "0"],  # B_2 = x_1^2 + x_2 has 6000 digits
        ["bell", "2", "1", "9" * 4300],  # B_2 = 10^4300, one digit past
        ["bell", "2", "1/" + "7" * 3000, "0"],  # a 6000-digit denominator
    ],
)
def test_bell_refuses_values_past_the_digit_limit(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and f"capped at {DIGIT_LIMIT} digits" in err
    assert "set_int_max_str_digits" not in err  # qbell's message, not the interpreter's


def test_bell_argument_check_passes_results_within_the_limit(capsys):
    # x_2 enters B_2 and B_3 only to the first power, and x_1 = 0
    assert run_cli(capsys, ["bell", "2", "0", "9" * 4300]) == (0, "9" * 4300 + "\n", "")
    assert run_cli(capsys, ["bell", "3", "0", "7" * 3000, "0"]) == (0, "0\n", "")
    # B_3 = x_3 has a 2000-digit denominator, and B_5 with only x_2 nonzero is 0
    tiny = "1/1" + "0" * 1999
    assert run_cli(capsys, ["bell", "3", "0", "0", tiny]) == (0, tiny + "\n", "")
    assert run_cli(capsys, ["bell", "5", "0", "1" + "0" * 2199, "0", "0", "0"]) == (0, "0\n", "")


@pytest.mark.parametrize(
    "argv, refused",
    [
        # n^2 u against the bound 1.6e7 at n = 1000, u <= bits(b) + bits(x_i's numerator) / i
        (["bell", "1000", "32767", *["0"] * 999], False),  # u = 1 + 15 = 16
        (["bell", "1000", "32768", *["0"] * 999], True),  # u = 1 + 16
        (["bell", "1000", *["0"] * 999, "1/32767"], False),  # u = 15 + 1/1000
        (["bell", "1000", *["0"] * 999, "1/65535"], True),  # u = 16 + 1/1000
        (["bell", "1000", *["0"] * 998, "1/255", "1/511"], True),  # b alone: 17 bits
        # the exact bound: 603^2 (302 + 12987) = 302 * 1.6e7 + 1, and one bit less passes
        (["bell", "603", *["0"] * 301, format_exact(2**12986), *["0"] * 301], True),
        (["bell", "603", *["0"] * 301, format_exact(2**12985), *["0"] * 301], False),
    ],
)
def test_bell_argument_check_runs_before_any_work(capsys, monkeypatch, argv, refused):
    calls = []
    monkeypatch.setattr(cli, "complete_bell", lambda n, xs: calls.append(n) or Fraction(0))
    code, out, err = run_cli(capsys, argv)
    assert (code, calls) == ((3, []) if refused else (0, [int(argv[1])]))


def test_bell_work_bound_holds_without_the_digit_limit(capsys):
    with int_max_str_digits(0):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["bell", "1000", *["9" * 100] * 1000])
        elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err.startswith("error: bell work n^2 u is capped at")
    assert elapsed < 1.0


def test_verification_failure_exits_one(capsys, monkeypatch):
    from qbell.reports import CheckEntry, VerificationReport

    def broken(check, max_n):
        return VerificationReport(
            label="bell-identity",
            entries=[CheckEntry(index=1, computed=1, expected=2, passed=False)],
        )

    monkeypatch.setattr(cli.series, "residue_class_report", broken)
    code, out, _ = run_cli(capsys, ["verify", "theorem", "--max-n", "1"])
    assert code == 1
    doc = json.loads(out)
    assert doc["overallPass"] is False
    assert doc["entries"][0]["pass"] is False


# -- process-level entry point -----------------------------------------------------


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "qbell", "verify", "theorem", "--max-n", "3"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["overallPass"] is True


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_process_by_sigpipe():
    proc = subprocess.Popen(
        [sys.executable, "-m", "qbell", "verify", "congruences", "--max-k", "5000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


def test_importing_the_front_end_does_no_work():
    # no cap is computed at import: the partition table, the sigma cache and the
    # sigma block table stay empty
    check = (
        "import qbell.cli\n"
        "from qbell import numtheory, partitions\n"
        "print(len(partitions._table), numtheory.sigma.cache_info().currsize,\n"
        "      sum(block is not None for block in numtheory._sigma_blocks))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "1 0 0\n"


def test_importing_the_front_end_loads_only_what_it_runs():
    # -S keeps site's own imports out; the records need no dataclasses (which loads
    # inspect), annotations no typing, and only the console entry needs signal
    check = (
        "import sys\n"
        "import qbell, qbell.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing', 'signal'} & sys.modules.keys()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", check], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_a_canonical_verify_run_imports_no_locale():
    # -S keeps site's own imports out; argparse's first gettext lookup imports locale
    check = (
        "import sys, io, contextlib\n"
        "from qbell.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'locale' in sys.modules)\n"
    )
    for argv, loaded in [(["--max-n", "3"], False), (["--max-n=3"], True)]:
        proc = subprocess.run([sys.executable, "-S", "-c", check, "verify", "theorem", *argv],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == f"0 {loaded}\n"


def test_module_invocation_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "qbell", "partition", "not-a-number"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 2
