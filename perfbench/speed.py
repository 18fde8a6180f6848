"""Host-speed reference that puts the benchmark's op times on a fixed scale.

The hosts this benchmark runs on are shared: the same op can take twice as
long in one minute as in the next, because other tenants contend for the
core.  Measured on the 2-core reference host, raw ops/s of 30 s pool-study
runs spread 15-30 % between runs, which drowns the changes the benchmark
exists to show.  So the runner interleaves a fixed reference unit with the
ops and scales every op's measured time by

    NOMINAL_S / (running median duration of the nearby reference units)

which reads the time as if the host ran the reference at NOMINAL_S.  The
unit uses no optnode code, so a change to the package cannot move it; it
mixes what the ops spend their time in: interpreter dispatch, numpy calls
on small arrays and a dense LAPACK solve.  Units run between ops, outside
the timed intervals.

Set-up probes are scaled the same way by a pure-Python unit run in the
probe's own interpreter just before and after it imports optnode: module
loading is interpreter work, and that unit needs no numpy, so it can run
before the import it scales.  The runner prints the raw wall-clock figures
next to the scaled ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter

NOMINAL_S = 0.003      # about one unit at full speed on the 2-core reference host
EVERY_S = 0.1          # seconds of op time between two units
SMOOTH = 5             # units on each side in the running median
INTERPRETER_NOMINAL_S = 0.0004   # one interpreter unit, same host


def interpreter_unit():
    """Run the pure-Python unit and return its duration in seconds."""
    t0 = perf_counter()
    acc = 0
    for k in range(5000):
        acc += k * k % 7
    return perf_counter() - t0


class Reference:
    """The fixed reference unit and the samples taken during one loop."""

    def __init__(self):
        import numpy
        self._np = numpy
        rng = numpy.random.default_rng(0)
        self._a = rng.standard_normal((120, 120))
        self._x = rng.standard_normal(100)
        self.after_op = []     # number of ops run before each sample
        self.seconds = []
        self._next = 0.0

    def unit(self):
        """Run one reference unit and return its duration in seconds."""
        np = self._np
        t0 = perf_counter()
        acc = 0.0
        for _ in range(300):
            acc += float(np.sum((self._x - 0.3) ** 2))
        np.linalg.solve(self._a, self._a)
        return perf_counter() - t0 + interpreter_unit()

    def tick(self, ops_done, busy):
        """Sample a unit once every EVERY_S seconds of op time."""
        if busy >= self._next:
            self.sample(ops_done)
            self._next = busy + EVERY_S

    def sample(self, ops_done):
        self.after_op.append(ops_done)
        self.seconds.append(self.unit())

    def factors(self, n_ops):
        """Scale factor for each of n_ops ops: NOMINAL_S over the running
        median of the units sampled around it."""
        if not self.seconds:
            self.sample(0)
        smooth = [statistics.median(self.seconds[max(0, k - SMOOTH):k + SMOOTH + 1])
                  for k in range(len(self.seconds))]
        last = len(smooth) - 1
        return [NOMINAL_S / smooth[min(bisect_left(self.after_op, j + 1), last)]
                for j in range(n_ops)]
