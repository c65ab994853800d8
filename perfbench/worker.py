"""One fresh interpreter of the benchmark: set up qbell, run passes, report.

    python3 perfbench/worker.py SPAWNED JOB

SPAWNED is the parent's CLOCK_MONOTONIC reading just before it started
this process, so that set-up time counts interpreter start-up.  JOB is a
JSON object; its "kind" is "probe" (set up only), "verify" (one pass of
`qbell.cli.main(JOB["argv"])`) or "lookups" (warm the caches with one
batch, then time batches for JOB["seconds"]).  Every timed interval is
sampled with speed.Sampler and reported both raw and in reference
seconds.  The process prints one JSON object on stdout.
"""

import os
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_SPAWNED = float(sys.argv[1])
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import speed  # noqa: E402

speed.pin_to_current_cpu()
with speed.Sampler() as _SETUP:
    import qbell  # noqa: E402
    import qbell.cli  # noqa: E402

    _IMPORTED = _clock()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

from batch import NAMES, make_batch  # noqa: E402
from tracer import Tracer  # noqa: E402

_SIGMA = qbell.numtheory.sigma  # the lru_cache itself, even while traced
# Sampling a lookups batch less often disturbs its cache-bound reads less.
LOOKUP_PERIOD_S = 0.02


def _cpu() -> float:
    """User + system CPU of this process and of any children it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    """Peak resident set of this process (VmHWM) or of any child it waited for.

    getrusage's own ru_maxrss would do, but Linux carries it over from the
    forking parent across exec, so it would count the benchmark's parent.
    """
    with open("/proc/self/status") as status:
        hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _sigma_counts() -> tuple[int, int]:
    info = _SIGMA.cache_info()
    return info.hits, info.misses


def _timed(tracer, work, period=speed.PERIOD_S):
    """Run work() once under a Sampler, traced if a tracer is given."""
    if tracer:
        tracer.install()
    sigma_before = _sigma_counts()
    with speed.Sampler(period) as sampler:
        cpu0 = _cpu()
        t0 = _clock()
        try:
            result = work()
        finally:
            t1 = _clock()
            cpu1 = _cpu()
    if tracer:
        tracer.uninstall()
    sigma_after = _sigma_counts()
    solve_s, cpu_s = sampler.scale(t1 - t0, cpu1 - cpu0)
    record = {
        "solve_s": solve_s, "cpu_s": cpu_s, "raw_solve_s": t1 - t0, "raw_cpu_s": cpu1 - cpu0,
        "traced": bool(tracer),
        "sigma": (sigma_after[0] - sigma_before[0], sigma_after[1] - sigma_before[1]),
    }
    return result, record


def _finish(tracer, record, stdout_bytes, keep_spans, out):
    """Reduce a traced pass's spans to layer metrics, times in reference seconds;
    the sampler's own time is shared out over the spans it interrupted."""
    if tracer:
        if keep_spans:
            out["spans"] = tracer.span_records()
        layers = tracer.pass_metrics(record["raw_solve_s"], record["sigma"], stdout_bytes)
        factor = record["solve_s"] / record["raw_solve_s"]
        record["layers"] = {k: v * factor if k.endswith("_s") else v for k, v in layers.items()}


def run_verify(job: dict, out: dict) -> None:
    buffer = io.StringIO()

    def work():
        with redirect_stdout(buffer):
            return qbell.cli.main(job["argv"])

    tracer = Tracer() if job["trace"] else None
    code, record = _timed(tracer, work)
    text = buffer.getvalue()
    record["exit"] = code
    _finish(tracer, record, len(text.encode()), True, out)
    out["passes"] = [record]
    out["stdout"] = text
    # p(n) at the indices the parent samples, read after the timed call
    out["sample"] = {str(n): str(qbell.partition_count(n)) for n in job.get("sample", [])}


def run_lookups(job: dict, out: dict) -> None:
    batch = make_batch(job["seed"])

    def work():
        fns = [getattr(qbell, name) for name in NAMES]
        return [fns[cls](*args) for cls, args in batch]

    first, warmup = _timed(None, work, LOOKUP_PERIOD_S)
    out["setup_s"] += warmup["solve_s"]
    out["raw_setup_s"] += warmup["raw_solve_s"]
    tracer = Tracer() if job["trace"] else None
    passes = []
    consistent = True
    deadline = _clock() + job["seconds"]
    # whole rounds; in a traced run a round is one untraced and one traced batch
    while not passes or _clock() < deadline:
        for traced in ((False, True) if tracer else (False,)):
            answers, record = _timed(tracer if traced else None, work, LOOKUP_PERIOD_S)
            consistent = consistent and answers == first
            last = traced and _clock() >= deadline
            _finish(tracer if traced else None, record, 0, last and job["keep_spans"], out)
            passes.append(record)
    out["passes"] = passes
    out["consistent"] = consistent
    out["peak_rss_kb"] = _peak_rss_kb()
    out["answers"] = [str(a) for a in first]


def main() -> None:
    job = json.loads(sys.argv[2])
    raw_setup_s = _IMPORTED - _SPAWNED
    out = {"setup_s": _SETUP.scale(raw_setup_s, 0.0)[0], "raw_setup_s": raw_setup_s}
    if job["kind"] == "verify":
        run_verify(job, out)
    elif job["kind"] == "lookups":
        run_lookups(job, out)
    out.setdefault("peak_rss_kb", _peak_rss_kb())
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
