#!/usr/bin/env python3
"""Benchmark of qbell: time to a checked verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qbell checkout; it uses the sources in src/ and
installs nothing.  Each workload is single-process and sequential:

- theorem      `qbell verify theorem --max-n 384`, a fresh interpreter per pass
- series       `qbell verify eq3 --order 400` then `eq2 --order 400`, likewise
- congruences  `qbell verify congruences --max-k 5000`, likewise
- lookups      one warm interpreter times a seeded batch of library calls;
               three such interpreters in turn share the run

Times are in reference seconds: raw times scaled by the machine's speed
during the pass, sampled as described in speed.py.  The raw medians go to
the result file in perfbench/out/ only.

Every output is checked against values computed without qbell (see
reference.py) before the result is printed.  With --trace 0 the last line
of stdout is a JSON object holding the end-to-end metrics; with --trace 1
rounds of one untraced and one traced pass give the per-layer metrics
instead, and the spans of the last traced pass go to perfbench/out/.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from math import factorial
from statistics import median

import reference
from batch import NAMES, SIGMA_MAX, SIZE, make_batch
from tracer import METRICS, median_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

THEOREM_N = 384
SERIES_ORDER = 400
CONGRUENCE_K = 5000
PROBES_PER_PASS = 2  # set-up-only interpreters after each verify pass, for setup_s
LOOKUP_WORKERS = 3
CONGRUENCE_SAMPLE = 24  # p(n) values checked against sympy per congruences run
PARTITION_SAMPLE = 200  # distinct partition keys checked against sympy per lookups run
WORKER_TIMEOUT_S = 150
WORKER_RETRIES = 1  # further starts of a worker that a signal ended or that could not start
RETRY_PAUSE_S = 1.0
CONGRUENCES = ((5, 4), (7, 5), (11, 6))  # p(mk + r) = 0 mod m

VERIFY = {
    "theorem": [["verify", "theorem", "--max-n", str(THEOREM_N)]],
    "series": [
        ["verify", "eq3", "--order", str(SERIES_ORDER)],
        ["verify", "eq2", "--order", str(SERIES_ORDER)],
    ],
    "congruences": [["verify", "congruences", "--max-k", str(CONGRUENCE_K)]],
}
WORKLOADS = (*VERIFY, "lookups")
END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(job: dict) -> dict:
    """Run one worker interpreter to its end and return what it printed.

    A worker that could not be started, or that a signal from outside
    ended (on a shared host, say, the kernel's out-of-memory killer), is
    started once more.  A worker that exits with an error is not: that is
    an error in qbell or in the benchmark, and the run fails on it."""
    what = job.get("argv", job["kind"])
    for _ in range(1 + WORKER_RETRIES):
        spawned = clock()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, repr(spawned), json.dumps(job)],
                cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            )
        except OSError as exc:
            error = f"could not start a worker for {what}: {exc}"
        else:
            if proc.returncode == 0:
                return json.loads(proc.stdout)
            error = f"worker failed ({proc.returncode}) on {what}:\n{proc.stderr}"
            if proc.returncode > 0:
                break
        print(f"warning: {error}", file=sys.stderr)
        time.sleep(RETRY_PAUSE_S)
    raise BenchError(error)


# -- expected reports, computed without qbell ----------------------------


def expected_reports(workload: str) -> list[tuple[str, list[tuple[int, str, str]]]]:
    """Per CLI call: (label, [(index, lhs, rhs)]) of a fully passing report."""
    if workload == "congruences":
        entries = [
            (m * k + r, "0", "0")
            for m, r in CONGRUENCES
            for k in range(CONGRUENCE_K + 1)
        ]
        return [("ramanujan-congruences", entries)]
    if workload == "theorem":
        p = reference.partition_table(7 * THEOREM_N + 5)
        entries = []
        for n in range(1, THEOREM_N + 1):
            value = str(factorial(n) * p[7 * n + 5])
            entries.append((n, value, value))
        return [("bell-identity", entries)]
    p = reference.partition_table(7 * SERIES_ORDER + 5)
    spots = {"p7n5-series": (7, 77, 490), "p5k4-series": (5, 30, 135)}
    out = []
    for label, (m, r) in (("p7n5-series", (7, 5)), ("p5k4-series", (5, 4))):
        entries = [(k, str(p[m * k + r]), str(p[m * k + r])) for k in range(SERIES_ORDER + 1)]
        if tuple(int(v) for _, v, _ in entries[:3]) != spots[label]:
            raise BenchError(f"reference table disagrees with the spot values of {label}")
        out.append((label, entries))
    return out


def check_report(text: str, code: int, label: str, entries) -> tuple[int, list[str]]:
    """Compare one CLI output with the expected report: (failed entries, faults)."""
    faults = []
    report = json.loads(text)
    got = report["entries"]
    if report["label"] != label or len(got) != len(entries):
        return 0, [f"{label}: wrong label or {len(got)} entries instead of {len(entries)}"]
    failed = 0
    for entry, (n, lhs, rhs) in zip(got, entries):
        if entry["n"] != n or entry["rhs"] != rhs:
            faults.append(f"{label}: entry {entry['n']} has rhs {entry['rhs']}, expected n={n} rhs={rhs}")
        elif not entry["pass"]:
            failed += 1
            if entry["lhs"] == rhs:
                faults.append(f"{label}: entry {n} equal but marked failed")
        elif entry["lhs"] != lhs:
            faults.append(f"{label}: entry {n} passed with lhs {entry['lhs']}, expected {lhs}")
    if report["overallPass"] != (failed == 0) or code != (0 if failed == 0 else 1):
        faults.append(f"{label}: overallPass {report['overallPass']} and exit {code} with {failed} failures")
    return failed, faults


def check_congruence_sample(values: dict) -> list[str]:
    """p(n) read from qbell at sampled report indices, against sympy."""
    faults = []
    for n, value in values.items():
        true = reference.partition_sympy(int(n))
        if value != str(true):
            faults.append(f"p({n}) = {value}, sympy gives {true}")
        elif any(true % m for m, r in CONGRUENCES if int(n) % m == r):
            faults.append(f"p({n}) breaks a Ramanujan congruence")
    return faults


# -- workloads -------------------------------------------------------------


def combine_layers(parts: list[dict]) -> dict:
    """Layer metrics of one pass made of several CLI calls: sums, maxima for max_*."""
    out = {}
    for key in parts[0]:
        values = [p[key] for p in parts]
        out[key] = max(values) if ".max_" in key else sum(values)
    return out


def run_verify(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = expected_reports(workload)
    index_set = [n for _, entries in expected for n, _, _ in entries]
    sample = sorted(random.Random(seed).sample(index_set, CONGRUENCE_SAMPLE)) if workload == "congruences" else []
    passes, setups, rss_kb, faults = [], [], 0, []
    first = None  # (stdout, exit) of every call in the first pass
    failed_per_pass = 0
    spans = []
    start = clock()
    # whole rounds; in a traced run a round is one untraced and one traced pass
    while not passes or clock() - start < seconds or (trace and len(passes) % 2):
        traced = trace and len(passes) % 2 == 1
        outs = [
            spawn({"kind": "verify", "argv": argv, "trace": traced, "sample": sample if first is None else []})
            for argv in VERIFY[workload]
        ]
        records = [out["passes"][0] for out in outs]
        setups += [(out["setup_s"], out["raw_setup_s"]) for out in outs]
        rss_kb = max([rss_kb] + [out["peak_rss_kb"] for out in outs])
        seen = [(out["stdout"], rec["exit"]) for out, rec in zip(outs, records)]
        if first is None:
            first = seen
            for (text, code), (label, entries) in zip(seen, expected):
                failed, found = check_report(text, code, label, entries)
                failed_per_pass += failed
                faults += found
            faults += check_congruence_sample(outs[0]["sample"])
        elif seen != first:
            faults.append(f"pass {len(passes)} ({'traced' if traced else 'untraced'}) printed other bytes than pass 0")
        record = {key: sum(r[key] for r in records) for key in ("solve_s", "cpu_s", "raw_solve_s", "raw_cpu_s")}
        record["traced"] = traced
        if traced:
            record["layers"] = combine_layers([r["layers"] for r in records])
            spans = [dict(s, call=" ".join(argv)) for out, argv in zip(outs, VERIFY[workload]) for s in out["spans"]]
        passes.append(record)
        if not trace:
            setups += [(probe["setup_s"], probe["raw_setup_s"]) for probe in (spawn({"kind": "probe"}) for _ in range(PROBES_PER_PASS))]
    ops = sum(len(entries) for _, entries in expected)
    return {
        "passes": passes, "setups": setups, "rss_kb": rss_kb, "faults": faults,
        "attempted": ops * len(passes), "failed": failed_per_pass * len(passes), "spans": spans,
    }


def lookup_references(seed: int, queries) -> tuple[list, set]:
    """Expected answer string per query (None for partition reads) and sampled partition keys."""
    sig = reference.sigma_table(SIGMA_MAX)
    refs = []
    for cls, args in queries:
        name = NAMES[cls]
        if name == "partition_count":
            refs.append(None)
        elif name == "sigma":
            refs.append(str(sig[args[0]]))
        elif name == "d_coefficient":
            refs.append(str(reference.d_reference(sig, args[0])))
        elif name == "e_coefficient":
            refs.append(str(reference.e_reference(sig, args[0])))
        else:
            refs.append(str(reference.complete_bell_reference(*args)))
    keys = sorted({args[0] for cls, args in queries if NAMES[cls] == "partition_count"})
    sampled = set(random.Random(seed).sample(keys, PARTITION_SAMPLE))
    return refs, sampled


def check_lookups(queries, refs, sampled, answers) -> list[str]:
    faults = []
    partitions = {}
    for (cls, args), ref, answer in zip(queries, refs, answers):
        if ref is None:
            if partitions.setdefault(args[0], answer) != answer:
                faults.append(f"partition_count({args[0]}) gave two answers")
        elif answer != ref:
            faults.append(f"{NAMES[cls]}{tuple(args)} = {answer}, expected {ref}")
    for n in sorted(sampled):
        if partitions[n] != str(reference.partition_sympy(n)):
            faults.append(f"partition_count({n}) = {partitions[n]} disagrees with sympy")
    return faults[:20]


def run_lookups(seed: int, seconds: float, trace: bool) -> dict:
    queries = make_batch(seed)
    refs, sampled = lookup_references(seed, queries)
    outs = [
        spawn({
            "kind": "lookups", "seed": seed, "seconds": seconds / LOOKUP_WORKERS,
            "trace": trace, "keep_spans": w == LOOKUP_WORKERS - 1,
        })
        for w in range(LOOKUP_WORKERS)
    ]
    faults = check_lookups(queries, refs, sampled, outs[0]["answers"])
    for w, out in enumerate(outs):
        if not out["consistent"] or out["answers"] != outs[0]["answers"]:
            faults.append(f"worker {w} gave other answers than worker 0")
    passes = [p for out in outs for p in out["passes"]]
    return {
        "passes": passes, "setups": [(out["setup_s"], out["raw_setup_s"]) for out in outs],
        "rss_kb": max(out["peak_rss_kb"] for out in outs), "faults": faults,
        "attempted": SIZE * len(passes), "failed": 0, "spans": outs[-1].get("spans", []),
    }


# -- result ----------------------------------------------------------------


def raw_medians(run: dict) -> dict:
    """Unscaled medians of the untraced passes, kept in the result file only."""
    plain = [p for p in run["passes"] if not p["traced"]]
    return {
        "setup_s": median(raw for _, raw in run["setups"]),
        "solve_s": median(p["raw_solve_s"] for p in plain),
        "cpu_s": median(p["raw_cpu_s"] for p in plain),
        "passes": len(plain), "setups": len(run["setups"]),
    }


def metrics_of(run: dict, trace: bool) -> dict:
    plain = [p for p in run["passes"] if not p["traced"]]
    if not trace:
        values = {
            "setup_s": median(scaled for scaled, _ in run["setups"]),
            "solve_s": median(p["solve_s"] for p in plain),
            "cpu_s": median(p["cpu_s"] for p in plain),
            "peak_rss_mb": run["rss_kb"] / 1024,
        }
        units = END_TO_END
    else:
        traced = [p for p in run["passes"] if p["traced"]]
        values = median_metrics([p["layers"] for p in traced])
        values["trace.overhead_s"] = median(p["solve_s"] for p in traced) - median(p["solve_s"] for p in plain)
        units = METRICS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qbell", "cli.py")):
        print(f"error: no qbell sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        spawn({"kind": "probe"})  # compiles bytecode and warms the file cache; not measured
        if args.workload == "lookups":
            run = run_lookups(args.seed, args.seconds, trace)
        else:
            run = run_verify(args.workload, args.seed, args.seconds, trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for fault in run["faults"]:
        print(f"FAULT: {fault}", file=sys.stderr)
    result = {
        "correct": not run["faults"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics_of(run, trace),
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w") as f:
        json.dump(dict(result, seed=args.seed, seconds=args.seconds, raw=raw_medians(run)), f, indent=1)
    if trace:
        with open(os.path.join(OUT, f"{args.workload}-spans.jsonl"), "w") as f:
            for span in run["spans"]:
                f.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
