"""Spans around the public functions of every qbell module, set from outside.

`Tracer.install` replaces each traced function or method with a wrapper,
in its own module and in every qbell module that re-imported it (the
package itself, identity, series, cli, reports), and `uninstall` puts the
originals back.  Nothing inside src/qbell is changed on disk.

A span is [name id, start, end, parent index, result, first argument],
kept in memory until `pass_metrics` reduces them; results are kept so
that their bit sizes can be measured after the pass, outside any span.
"""

import sys
import time
from fractions import Fraction
from statistics import median

# (metric group, module, attribute path) for every traced public name.
_TS = "TruncatedSeries."
_VR = "VerificationReport."
TARGETS = [
    ("cli", "qbell.cli", ["main", "build_parser", "parse_rational"]),
    ("reports", "qbell.reports", [
        "format_exact", "CheckEntry.__init__", _VR + "to_json_dict",
        _VR + "overall_pass", _VR + "failures",
    ]),
    ("identity", "qbell.identity", [
        "theorem_lhs", "theorem_rhs", "verify_theorem", "verify_congruences",
    ]),
    ("bell", "qbell.bell", [
        "partial_bell", "partial_bell_by_enumeration", "complete_bell",
        "complete_bell_sequence",
    ]),
    ("numtheory", "qbell.numtheory", [
        "sigma", "seven_adic_split", "sigma_ratio", "d_coefficient", "e_coefficient",
    ]),
    ("partitions", "qbell.partitions", ["partition_count", "partition_count_brute"]),
    ("series.mul", "qbell.series", [_TS + "__mul__", _TS + "__rmul__"]),
    ("series.pow", "qbell.series", [_TS + "__pow__"]),
    ("series.inverse", "qbell.series", [_TS + "inverse"]),
    ("series.log_exp", "qbell.series", [_TS + "log", _TS + "exp"]),
    ("series.named", "qbell.series", [
        "euler_product", "series_g", "series_h", _TS + "substitute_power",
    ]),
    ("series.other", "qbell.series", [
        _TS + "__add__", _TS + "__radd__", _TS + "__sub__", _TS + "__rsub__",
        _TS + "__neg__", _TS + "__truediv__", _TS + "zero", _TS + "one",
        _TS + "monomial", "extract_log_coefficients", "verify_p7n5_identity",
        "verify_p5k4_identity", "coefficient_lines",
    ]),
]
LAYERS = ("cli", "reports", "identity", "bell", "numtheory", "partitions", "series")
SERIES_PARTS = ("mul", "pow", "inverse", "log_exp", "named")
SIZED = ("bell", "series", "partitions")  # layers whose results are numbers

# every per-layer metric a traced run reports, with its unit
METRICS = {
    "bell.self_s": "s", "bell.calls": "count", "bell.max_bits": "bits",
    "series.self_s": "s",
    **{f"series.{part}.self_s": "s" for part in SERIES_PARTS},
    "series.calls": "count", "series.max_bits": "bits",
    "partitions.self_s": "s", "partitions.calls": "count",
    "partitions.max_n": "n", "partitions.max_bits": "bits",
    "numtheory.self_s": "s", "numtheory.calls": "count",
    "numtheory.sigma_hits": "count", "numtheory.sigma_misses": "count",
    "identity.self_s": "s", "identity.calls": "count",
    "reports.self_s": "s", "reports.calls": "count",
    "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


def max_bits(value) -> int:
    """Largest numerator or denominator bit length in a number, series or list."""
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    value = getattr(value, "coefficients", value)
    if isinstance(value, (list, tuple)):
        return max((max_bits(v) for v in value), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.names = []   # span name by id
        self.groups = []  # metric group by id
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, group, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, None, args[0] if args else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                span[4] = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return span[4]

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        qbell_modules = [m for n, m in sys.modules.items() if n == "qbell" or n.startswith("qbell.")]
        for group, module_name, paths in TARGETS:
            module = sys.modules[module_name]
            for path in paths:
                name = f"{module_name.removeprefix('qbell.')}.{path}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, property):
                        wrapped = property(self._wrap(group, name, raw.fget))
                    elif isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(group, name, raw.__func__))
                    else:
                        wrapped = self._wrap(group, name, raw)
                    self._patch(cls, attr, wrapped)
                    continue
                original = getattr(module, path)
                wrapped = self._wrap(group, name, original)
                for holder in qbell_modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def pass_metrics(self, solve_s: float, sigma_info: tuple, stdout_bytes: int) -> dict:
        """Per-layer metrics of the spans recorded since the last call; clears them."""
        spans = self.spans
        self_time = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_time[s[3]] -= s[2] - s[1]
        groups = {}
        calls = {layer: 0 for layer in LAYERS}
        bits = {layer: 0 for layer in SIZED}
        max_n = 0
        for s, own in zip(spans, self_time):
            group = self.groups[s[0]]
            layer = group.split(".")[0]
            groups[group] = groups.get(group, 0.0) + own
            calls[layer] += 1
            if layer in bits:
                bits[layer] = max(bits[layer], max_bits(s[4]))
            if layer == "partitions" and isinstance(s[5], int):
                max_n = max(max_n, s[5])
        series = {part: groups.get(f"series.{part}", 0.0) for part in SERIES_PARTS}
        out = {f"{layer}.self_s": groups.get(layer, 0.0) for layer in LAYERS if layer != "series"}
        out["series.self_s"] = sum((v for g, v in groups.items() if g.startswith("series")), 0.0)
        out.update({f"series.{part}.self_s": v for part, v in series.items()})
        out.update({f"{layer}.calls": n for layer, n in calls.items() if layer != "cli"})
        out.update({f"{layer}.max_bits": b for layer, b in bits.items()})
        out["partitions.max_n"] = max_n
        out["numtheory.sigma_hits"], out["numtheory.sigma_misses"] = sigma_info
        out["cli.stdout_bytes"] = stdout_bytes
        out["trace.unattributed_s"] = solve_s - sum(groups.values())
        spans.clear()
        return out

    def span_records(self) -> list[dict]:
        """The spans recorded since the last reduction, for the trace file."""
        return [
            {"id": i, "name": self.names[s[0]], "start": s[1], "end": s[2], "parent": s[3]}
            for i, s in enumerate(self.spans)
        ]


def median_metrics(passes: list[dict]) -> dict:
    """Median over traced passes of every metric a pass reports."""
    return {key: median(p[key] for p in passes) for key in passes[0]}
