"""Command-line front end.

Scalar subcommands print exactly one value on stdout; ``series`` prints one
coefficient per line; ``verify`` prints a JSON report and exits 0 only when
every check passed.  Diagnostics go to stderr, output is byte-identical
across runs.

Each leaf parser of ``build_parser`` sets its handler ``run`` (returning
the exit code, None for 0) and its ``bounds``, rows of (label, dest,
smallest or None, largest) accepted size; ``main`` checks every bound
before it calls the handler.

A canonical verify argv, ``verify eq3 --order 400`` or ``verify all``
with any of its flags, each once with a plain digit value, builds no
parser: ``_verify_args`` gives the namespace argparse would, from the same
``_verify_defaults`` as the verify leaves.  Any other argv builds the
whole tree, 12 parsers, and parses with it.

Exit codes: 0 success or verified, 1 a verification entry failed, 2 usage
or parse error, 3 precondition violation, a size past its cap included.
"""

import argparse
import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import lcm

from . import series
from .bell import complete_bell
from .numtheory import d_coefficient, e_coefficient, sigma
from .partitions import partition_count
from .reports import DIGIT_LIMIT, format_exact, parse_exact, write_json

__all__ = ["main", "entry", "build_parser", "parse_rational"]

_INT_SYNTAX = re.compile(r"[+-]?[0-9]+")  # ASCII digits, whole text
_RATIONAL_SYNTAX = re.compile(rf"{_INT_SYNTAX.pattern}(/[0-9]+)?")

# Function names in qbell.series.  Every library function is looked up at
# call time, so one patched after import (a test double, a tracer) runs.
_SERIES = {"euler": "euler_product", "G": "series_g", "H": "series_h"}

# Largest bell n, and largest n^2 u, u a bound of max(bits(b), bits(y_i) / i)
# over the nonzero x_i: the kernel multiplies y_i = b^i x_i, b the lcm of the
# denominators.  u = 16 at n = 1000 runs up to about 19 s.  n is capped too:
# ones (u = 2) pass the work bound up to n = 2828, and B_2000 of ones takes 11 s.
# The library's complete_bell stays uncapped.
_BELL_MAX_N = 1000
_BELL_MAX_WORK = 16_000_000


def _flag(size: str) -> str:
    """The option that sets a library size parameter: --max-n sets max_n."""
    return "--" + size.replace("_", "-")


# verify targets in `verify all` order.  Each check is a row of qbell.series, run by its
# residue-class report.  The library owns the name of each side's size and its smallest value,
# qbell.series.SIZE_NAME and SMALLEST_SIZE: the name gives the flag and the smallest value its
# lower bound.  The theorem's cap is the Bell side's digit rule, a literal since computing it
# fills p(10666): n! p(7n+5) has 4298 digits at n = 1523 and 4302 at 1524.  Every other value has
# under 500 digits, and each other cap is the library's size_cap of the check: for congruences
# the (11, 6) family's.
class _Target(namedtuple("_Target", "name help check cap")):
    __slots__ = ()

    @property
    def size(self) -> str:
        return series.SIZE_NAME[self.check.side]

    @property
    def flag(self) -> str:
        return _flag(self.size)

    @property
    def smallest(self) -> int:
        # read by _verify_defaults on either route, so a patched table entry is the bound
        return series.SMALLEST_SIZE[self.check.side]


_VERIFY_TARGETS = (
    _Target("theorem", "Bell-polynomial identity for n! p(7n+5)", series.BELL_IDENTITY, 1523),
    _Target("eq2", "series identity for p(5k+4)", series.P5K4_SERIES,
            series.size_cap(series.P5K4_SERIES)),
    _Target("eq3", "series identity for p(7n+5)", series.P7N5_SERIES,
            series.size_cap(series.P7N5_SERIES)),
    _Target("congruences", "p(5k+4), p(7k+5), p(11k+6) divisibility",
            series.RAMANUJAN_CONGRUENCES, series.size_cap(series.RAMANUJAN_CONGRUENCES)),
)
# the size of each flag under `verify all`
_VERIFY_ALL_SIZES = {_flag(series.SIZE_NAME[side]): size
                     for side, size in (("bell", 64), ("product", 200), ("congruence", 1000))}


def _parse_int(text: str) -> int:
    """argparse type of every int argument: ASCII digits and a sign, unlike int() alone."""
    if _INT_SYNTAX.fullmatch(text) and len(text.lstrip("+-")) <= DIGIT_LIMIT:
        return parse_exact(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")  # argparse's own wording


def parse_rational(text: str) -> Fraction:
    """Parse "num" or "num/den" with an optional sign; no decimal points."""
    if not _RATIONAL_SYNTAX.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")
    if max(map(len, re.findall(r"[0-9]+", text))) > DIGIT_LIMIT:
        raise ValueError(f"a rational is capped at {DIGIT_LIMIT} digits")
    try:
        return Fraction(parse_exact(text))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree: the top parser, its six commands and the five verify targets."""
    parser = argparse.ArgumentParser(
        prog="qbell",
        description="Exact Bell polynomials, partition counts, divisor sums, "
        "and truncated q-series, with identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="print p(n)")
    p.add_argument("n", type=_parse_int)
    p.set_defaults(run=lambda args: print(partition_count(args.n)), bounds=())

    p = sub.add_parser("sigma", help="print the sum of divisors of n")
    p.add_argument("n", type=_parse_int)
    p.set_defaults(run=lambda args: print(sigma(args.n)), bounds=())

    p = sub.add_parser("coeff", help="print the coefficient d_n or e_n")
    p.add_argument("which", choices=("d", "e"))
    p.add_argument("n", type=_parse_int)
    p.set_defaults(run=_cmd_coeff, bounds=())

    bell = sub.add_parser("bell", help="print the complete Bell polynomial B_n(x1, ..., xn)",
                          description="Arguments are exact rationals, written num or num/den.")
    bell.add_argument("n", type=_parse_int)
    bell.add_argument("xs", nargs=argparse.REMAINDER, metavar="x")
    bell.set_defaults(run=lambda args: _cmd_bell(bell, args),
                      bounds=[("bell n", "n", None, _BELL_MAX_N)])

    p = sub.add_parser("series", help="print a truncated series, one coefficient per line")
    p.add_argument("which", choices=tuple(_SERIES))
    p.add_argument("--order", type=_parse_int, required=True)
    # the same G and H as verify eq3, so the same cap
    cap = series.size_cap(series.P7N5_SERIES)
    p.set_defaults(run=_cmd_series, bounds=[("series --order", "order", None, cap)])

    v = sub.add_parser("verify", help="run a verification report (JSON on stdout)")
    vsub = v.add_subparsers(dest="target", required=True)
    for target in _VERIFY_TARGETS:
        p = vsub.add_parser(target.name, help=target.help)
        p.add_argument(target.flag, type=_parse_int, required=True)
        p.set_defaults(**_verify_defaults([target]))
    p = vsub.add_parser("all", help="every verification at full scale")
    for flag, size in _VERIFY_ALL_SIZES.items():
        p.add_argument(flag, type=_parse_int, default=size)
    p.set_defaults(**_verify_defaults(_VERIFY_TARGETS))

    return parser


def _verify_defaults(targets) -> dict:
    """The handler, targets and bounds of a verify leaf, for its parser and for _verify_args."""
    bounds = [(f"verify {t.name} {t.flag}", t.size, t.smallest, t.cap) for t in targets]
    return {"run": _cmd_verify, "targets": targets, "bounds": bounds}


def _verify_args(argv):
    """The namespace argparse gives a canonical verify argv, else None, with no parser built.

    Canonical: ``verify <target> <its flag> <digits>``, or ``verify all`` and
    each of its flags at most once, in any order, with a value; a value is
    ASCII digits, at most DIGIT_LIMIT of them.  Help, ``--flag=value``, a
    sign, an abbreviation, a repeated or foreign flag, an extra word and
    ``--`` all leave it to argparse, so every error stays argparse's own.
    """
    if len(argv) < 2 or argv[0] != "verify":
        return None
    name, pairs = argv[1], argv[2:]
    targets = _VERIFY_TARGETS if name == "all" else [t for t in _VERIFY_TARGETS if t.name == name]
    if not targets or len(pairs) % 2 or (name != "all" and len(pairs) != 2):
        return None
    dests = {t.flag: t.size for t in targets}  # each flag is taken out once given
    sizes = {dests[f]: size for f, size in _VERIFY_ALL_SIZES.items()} if name == "all" else {}
    for flag, text in zip(pairs[::2], pairs[1::2]):
        dest = dests.pop(flag, None)
        if dest is None or not (text.isascii() and text.isdigit() and len(text) <= DIGIT_LIMIT):
            return None
        sizes[dest] = parse_exact(text)
    return argparse.Namespace(command="verify", target=name, **sizes, **_verify_defaults(targets))


def _cmd_coeff(args: argparse.Namespace) -> None:
    print(format_exact(d_coefficient(args.n) if args.which == "d" else e_coefficient(args.n)))


def _cmd_bell(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    # a negative n is a precondition error, raised by complete_bell below
    if args.n >= 0 and len(args.xs) != args.n:
        parser.error(f"bell {args.n} takes exactly {args.n} argument(s), got {len(args.xs)}")
    try:
        xs = [parse_rational(text) for text in args.xs]
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    # u from bit lengths, bits(y_i) / i <= bits(b) + bits(x_i's numerator) / i.
    # b alone past the bound stops the lcm, and the term of x_1 then refuses.
    n2 = max(args.n, 0) ** 2
    b = 1
    for x in xs:
        b = lcm(b, x.denominator)
        if n2 * b.bit_length() > _BELL_MAX_WORK:
            break
    if any(n2 * (i * b.bit_length() + x.numerator.bit_length()) > i * _BELL_MAX_WORK
           for i, x in enumerate(xs, 1)):
        raise ValueError(f"bell work n^2 u is capped at {_BELL_MAX_WORK}, u the bits of "
                         "b^i x_i per unit of i and b the lcm of the denominators")
    value = complete_bell(args.n, xs)
    if max(abs(value.numerator), value.denominator) >= 10**DIGIT_LIMIT:
        raise ValueError(f"bell results are capped at {DIGIT_LIMIT} digits")
    print(format_exact(value))


def _cmd_series(args: argparse.Namespace) -> None:
    for line in series.coefficient_lines(getattr(series, _SERIES[args.which])(args.order)):
        print(line)


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = [series.residue_class_report(t.check, getattr(args, t.size)) for t in args.targets]
    write_json(reports if args.target == "all" else reports[0], sys.stdout)
    print()
    return 0 if all(report.overall_pass for report in reports) else 1


def main(argv=None) -> int:
    """Run one invocation; returns the process exit code instead of exiting.

    A canonical verify argv (see _verify_args) builds no parser; every
    other argv goes through build_parser.  Either way the bounds are checked
    here, so every message and exit code is the same on both routes.
    """
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _verify_args(argv) or build_parser().parse_args(argv)
        # every cap first, so a size past its cap is named whatever the others are
        for label, dest, _, cap in args.bounds:
            if getattr(args, dest) > cap:
                raise ValueError(f"{label} is capped at {cap}")
        for _, dest, low, _ in args.bounds:
            if low is not None and getattr(args, dest) < low:
                raise ValueError(f"{dest} must be >= {low}")  # the library's message
        return args.run(args) or 0
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code  # argparse exits with an int
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """Console-script entry point.

    A reader that closes stdout early (``| head``) ends the process by
    SIGPIPE, as it ends ``cat``, where the platform has the signal.
    ``signal`` is imported here, so that importing the front end does not load it.
    """
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
