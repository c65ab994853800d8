"""The machine's speed all through a timed interval, read from a reference loop.

The benchmark shares its machine with other work.  On the 2-vCPU guest it
was tuned on, a fixed loop of a fraction of a millisecond ran either at
full speed or about 1.8 times slower, switching every tenth of a second or
so, on either CPU, with the slow share drifting over seconds; and the
hypervisor now and then held the vCPU back altogether (steal time).  Raw
pass times of `qbell verify theorem --max-n 384` spread by 29% between
quartiles: a raw time says as much about the neighbours as about qbell.

So while a pass runs, a `Sampler` interrupts it every PERIOD_S with SIGALRM
and takes the CPU time of one short `reference_loop`, which uses no qbell
code, and it reads the steal time of the pass's CPU (the worker pins
itself to one).  A pass is reported as

    scaled = (raw - steal - time spent in the sampler) * mean(REFERENCE_S / sample)

(CPU time likewise, without the steal, which it never counted), that is,
in seconds of a machine on which the loop always takes REFERENCE_S, about
its time at full speed on that box.  Ten 15 s runs then spread by 1-4%
between quartiles.  The scaling is the same for both sides of a
comparison, so a change to qbell moves the scaled figure by the same share
as the raw one.
"""

import os
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0002  # duration of one reference_loop() at full speed; sets the unit
PERIOD_S = 0.005


def reference_loop() -> int:
    """Fixed work in the styles qbell spends its time in: Fraction sums,
    big-integer products and additions, dict and list traffic."""
    acc = Fraction(0)
    table = {}
    big = 3**400
    for i in range(1, 70):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        table[i % 64] = table.get(i % 64, 0) + i * i
        big = (big * (i | 1) + i) >> 2
    return acc.numerator.bit_length() + len(table) + big.bit_length()


def pin_to_current_cpu() -> None:
    """Keep this process on the CPU it runs on, so that the steal time of
    that CPU is the steal time of this process.

    Best effort: where the CPU set of the process changes between reading
    its CPU and pinning to it, the kernel refuses the pin and the process
    stays unpinned; its steal time is then read over all its CPUs."""
    try:
        with open("/proc/self/stat") as stat:
            fields = stat.read().rpartition(")")[2].split()
        os.sched_setaffinity(0, {int(fields[36])})
    except (OSError, ValueError, IndexError):
        pass


def steal_s() -> float:
    """Seconds the hypervisor has held back the CPUs this process may run on
    (the steal column of /proc/stat, in clock ticks)."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    ticks = 0
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if fields and fields[0] in cpus and len(fields) > 8:
                    ticks += int(fields[8])
    except (OSError, ValueError):
        return 0.0  # no steal column to read: count none
    return ticks / os.sysconf("SC_CLK_TCK")


class Sampler:
    """Times reference_loop() every `period` seconds of wall time, from a
    SIGALRM handler, while the `with` block runs in the main thread, and
    reads the steal time over the block.

    Samples are CPU times: the guest's CPU clock stops while the hypervisor
    runs something else on our CPU, so a sample measures only how fast the
    core runs.  Steal is subtracted from wall time on its own.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples = []  # CPU seconds of each reference loop
        self.spent = [0.0, 0.0]  # (wall, cpu) seconds inside the handler
        self.stolen = 0.0
        self._busy = False

    @staticmethod
    def _sample() -> float:
        c0 = time.process_time()
        reference_loop()
        return time.process_time() - c0

    def _tick(self, signum, frame):
        # A tick that falls due while one runs (the vCPU was held back for a
        # whole period) is dropped, so that no sample holds another.
        if self._busy:
            return
        self._busy = True
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            self.samples.append(self._sample())
            self.spent[0] += time.perf_counter() - w0
            self.spent[1] += time.process_time() - c0
        finally:
            self._busy = False

    def __enter__(self):
        self.stolen = -steal_s()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.stolen += steal_s()

    def factor(self) -> float:
        """Mean REFERENCE_S / sample."""
        # an interval shorter than one period takes one sample now; a sample
        # the CPU clock could not resolve is left out
        samples = [c for c in self.samples or [self._sample()] if c > 0] or [REFERENCE_S]
        return sum(REFERENCE_S / c for c in samples) / len(samples)

    def scale(self, wall: float, cpu: float) -> tuple[float, float]:
        """(wall, cpu) seconds of the sampled interval, less the sampler's own
        time and, for wall time, less the steal, in reference seconds."""
        f = self.factor()
        return (wall - self.stolen - self.spent[0]) * f, (cpu - self.spent[1]) * f
