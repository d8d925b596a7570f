"""Machine-speed probe: how fast the CPUs ran while a run measured.

The benchmark was written on a host whose vCPUs switch, from one second
to the next, between a fast state and one about 1.7x slower (as when
another tenant runs on the same physical core), and the share of time in
the slow state drifts over minutes.  CPU time equals wall time and there
is no steal, so the program is not descheduled: every instruction just
takes longer.  The same enumerate pass ran 25-37 s within five minutes.

While a run measures, one probe process per CPU of the benchmark's
affinity set, pinned to that CPU, wakes every ``PERIOD_S``, times a fixed
unit of pure-Python ``Fraction`` arithmetic (standard library only, so no
change to rootproj can change it) and sleeps again, taking about 1% of
each CPU.  The mean unit time over an interval is how slow the machine
was then.  ``Probe.scale`` turns it into the factor by which a time
measured in that interval is multiplied to read as it would on a machine
where the unit takes ``REFERENCE_S``.  Each duration is scaled by the
samples taken while it ran (at least ``MIN_SAMPLES``, the nearest in time
for a short one), because the state changes within a pass.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right

PERIOD_S = 0.2
MIN_SAMPLES = 20      # about 2 s of samples on 2 CPUs
REFERENCE_S = 0.002   # the unit's time in the fast state of the host above

# The unit is rank-8 Fraction dot products, the kind of arithmetic rootproj
# spends its time on.  Samples are (start, duration) on ``perf_counter``,
# which on Linux is CLOCK_MONOTONIC, shared by every process, so they line
# up with the benchmark's and the pool workers' timestamps.
PROBE_CHILD = """\
import json, os, select, sys, time
from fractions import Fraction
os.sched_setaffinity(0, {int(sys.argv[1])})
period = float(sys.argv[2])
rows = [[Fraction(i * j % 7 - 3, (i + j) % 4 + 1) for j in range(8)]
        for i in range(40)]
samples = []
while not select.select([sys.stdin], [], [], period)[0]:
    t0 = time.perf_counter()
    total = Fraction(0)
    for row in rows:
        total += sum(x * y for x, y in zip(row, rows[0]))
    samples.append((t0, time.perf_counter() - t0))
print(json.dumps(samples), flush=True)
"""


class Probe:
    """Probe processes for the duration of a ``with`` block.

    They stop when the block ends, however it ends: closing their stdin
    tells them to print their samples and exit.
    """

    def __init__(self):
        self.children = []
        self.samples = []
        self.times = []

    def __enter__(self) -> "Probe":
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self.children.append(subprocess.Popen(
                    [sys.executable, "-c", PROBE_CHILD, str(cpu), str(PERIOD_S)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc):
        self._stop()

    def _stop(self) -> None:
        for child in self.children:
            try:
                out, _ = child.communicate("", timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                out, _ = child.communicate()
            if child.returncode == 0 and out.strip():
                self.samples.extend(json.loads(out))
        self.children = []
        self.samples.sort()
        self.times = [t for t, _ in self.samples]

    def unit_s(self, start: float, end: float) -> float:
        """Mean unit time of the samples taken in [start, end], or of the
        ``MIN_SAMPLES`` nearest to it (all, in a very short run) if fewer
        fell inside."""
        if not self.samples:
            raise RuntimeError("the speed probe returned no samples")
        need = min(MIN_SAMPLES, len(self.samples))
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
        while hi - lo < need:
            if hi == len(self.times) or (
                    lo > 0 and start - self.times[lo - 1] < self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(d for _, d in self.samples[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor for a time measured in [start, end]; divide a rate by it."""
        return REFERENCE_S / self.unit_s(start, end)
