"""Pass timing in reference seconds, corrected for the machine's speed.

On a shared 2-core virtual machine the CPU speed a process gets drifts by
up to 2x over tens of seconds, with wall and CPU time alike, so a plain
median of pass times moves with the neighbours' load. The clock runs a
fixed calibration kernel about once a second between passes, and scales
each pass's wall time by the kernel's reference time over the mean of the
two kernel times around it. The kernel uses only numpy and the
standard library, never hypercurv, so a change to the library moves the
corrected time and a change in machine speed mostly does not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter

import numpy as np

# Uncontended time of one calibration kernel on the reference machine
# (2-core Intel Xeon KVM guest, Python 3.11.7, numpy 2.4.6). It only sets
# the scale of the corrected times, so that they read as seconds there.
CAL_REF_S = 0.188
CAL_INTERVAL_S = 1.0
# Uncontended wall time of a fresh interpreter importing numpy on the same
# machine: the reference that scales set-up time, because start-up, mostly
# numpy's own import, slows with the machine differently from the kernel.
NUMPY_START_REF_S = 0.11

_MATS = [np.array([[(3 * i + 5 * j + 7 * k) % 11 - 5.0 for j in range(4)] for i in range(4)])
         for k in range(64)]
_MATS = [m + m.T for m in _MATS]


def calibration_kernel() -> int:
    """Fixed mix of small numpy linear algebra, Fraction arithmetic and JSON."""
    size = 0
    for _ in range(16):
        out = []
        acc = Fraction(0)
        for k, M in enumerate(_MATS):
            ev = np.linalg.eigvalsh(M)
            T = np.einsum("ik,jl->ijkl", M, M)
            out.append({"ev": ev.tolist(), "t": float(np.einsum("ijkl,ijkl->", T, T)),
                        "s": sorted(ev.tolist())})
            for i in range(1, 40):
                acc += Fraction(k + i, 3 * i + 1) * Fraction(2 * i - 1, k + 5)
        out.append({"acc": str(acc)})
        size += len(json.dumps(out, indent=2, sort_keys=True))
    return size


class Clock:
    """Times passes in wall seconds and converts them to reference seconds.

    The kernel runs at start and then after any pass that ends at least
    ``CAL_INTERVAL_S`` after the previous kernel run, so short passes share
    one kernel run per second. A pass is scaled by the mean of the kernel
    times just before and just after it.
    """

    def __init__(self):
        self.cals = []
        self.passes = []
        self._since = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        t0 = perf_counter()
        calibration_kernel()
        self._since = perf_counter()
        self.cals.append(self._since - t0)

    def time(self, fn):
        """Run ``fn``; return (result, pass id, wall seconds)."""
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        self.passes.append((len(self.cals) - 1, wall))
        if perf_counter() - self._since >= CAL_INTERVAL_S:
            self.calibrate()
        return result, len(self.passes) - 1, wall

    def reference(self) -> list:
        """Reference seconds of every timed pass, by pass id."""
        if self.passes and self.passes[-1][0] == len(self.cals) - 1:
            self.calibrate()
        return [wall * CAL_REF_S / (0.5 * (self.cals[k] + self.cals[k + 1]))
                for k, wall in self.passes]
