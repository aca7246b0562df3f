"""Host speed, measured with a fixed reference loop that is not library code.

On a shared virtual machine the speed of the host drifts: the same fit can
take 1.5 s in one minute and 3 s a few minutes later, and CPU time grows
with wall time, so it is contention, not descheduling.  The benchmark runs
this loop just before and just after every timed op, and reports times
scaled to a host on which the loop takes REFERENCE_S:

    time at reference speed = wall time * REFERENCE_S / loop time

For an op, the loop time is the mean of two figures: the mean of the loops
next to it, which see the state the host was in around the op, and the
mean of every loop of the run, which sees the run's mix of states.  On a
2-vCPU host, the op's own loops alone spread the cli_campaign run medians
twice as much as the mean of the two did, and the run's mean alone did the
same to fit_warm.

Set-up (starting a process, importing numpy and disphom, building inputs)
is slowed by other things than compute, so a set-up probe is scaled by
`import numpy` timed in fresh processes just before and after it, against
IMPORT_REFERENCE_S.  disphom's own import and the input building are the
rest of the probe, so a change to them moves the scaled time in full.

The loop has the same make-up as the library's hot paths (short numpy
ufunc chains on 201-point arrays, complex Horner steps, Python-level
looping), so host drift slows it about as much as it slows an op.  It never
calls disphom, so a change to the library moves the scaled times in full.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Loop time on a 2-vCPU x86-64 virtual machine while no neighbour slows it.
REFERENCE_S = 0.0110
# `import numpy` in a fresh process on the same machine in the same state.
IMPORT_REFERENCE_S = 0.110

_X = np.linspace(-3.0, 3.0, 201)
_COEFFS = [1.0 / math.factorial(n) for n in range(23, -1, -1)]
_ROUNDS = 200
LOOPS_PER_SIDE = 2


def _loop():
    acc = 0.0
    for k in range(_ROUNDS):
        z = (_X + 1j * (0.1 + 0.01 * k)) * 0.5
        p = np.zeros_like(z)
        for c in _COEFFS:
            p = p * z + c
        y = np.exp(-_X * _X) * p.real + 1.0 / (1.0 + _X * _X)
        acc += float(y @ y)
    return acc


class HostSpeed:
    """Reference-loop timings taken around each measurement of a run."""

    def __init__(self):
        self.samples = []
        _loop()  # warm-up, not recorded

    def _sample(self):
        times = []
        for _ in range(LOOPS_PER_SIDE):
            start = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - start)
        self.samples.extend(times)
        return times

    def bracket(self, func):
        """Run func between reference loops: (its result, mean loop seconds)."""
        before = self._sample()
        result = func()
        after = self._sample()
        return result, statistics.fmean(before + after)

    def run_loop_s(self):
        """Mean of every loop time of the run."""
        return statistics.fmean(self.samples)

    def op_time(self, wall_s, loop_s):
        """An op's wall time at reference speed; loop_s from its bracket."""
        return wall_s * REFERENCE_S / (0.5 * (loop_s + self.run_loop_s()))

    @staticmethod
    def setup_time(wall_s, import_s):
        """A set-up probe's wall time at reference speed; import_s is the
        time of `import numpy` in fresh processes just before and after it."""
        return wall_s * IMPORT_REFERENCE_S / import_s
