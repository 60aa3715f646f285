"""Reference seconds: wall time corrected for the machine's speed at the moment.

On a small shared machine the same single-threaded work runs up to about
1.8 times slower, in phases from tens of milliseconds to seconds long, and
process CPU time slows with it, so neither clock separates the program from
its neighbours.  The benchmark therefore runs a short fixed loop,
``calibrate``, after every few tens of milliseconds of work and scales the
wall time of each window of work by ``REFERENCE_S`` over the mean slice time
in that window.  Measured on a 2-CPU x86 virtual machine, this cut the spread of
per-run fuzz throughput medians from 7-9% to 1-1.5%.  The loop does the kind of work
the program spends most of its time on (``Fraction`` arithmetic, whose
gcds run on growing integers) and touches no quadconc code, so a change to
the program cannot move it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

ITERATIONS = 250  # one slice takes about a millisecond
REFERENCE_S = 0.00075  # about what one slice takes at full speed on a 2-CPU x86 virtual machine


def calibrate() -> float:
    """Wall seconds of one pass of the fixed loop, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, ITERATIONS + 1):
            total += Fraction(i * 7919 % 1009 + 1, i * 104729 % 997 + 1)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(cal_seconds: float) -> float:
    """Factor from wall seconds to reference seconds at this calibration."""
    return REFERENCE_S / cal_seconds
