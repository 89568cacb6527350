"""Machine-speed calibration for the end-to-end times.

On small shared machines the same pure-Python work runs up to 1.5x slower
for stretches of seconds to minutes, because neighbours contend for the
core and its caches.  CPU time slows down with wall time, so neither can
be compared across runs taken minutes apart.  A fixed reference kernel,
timed next to the trials in the same process, slows down by the same
factor; the ratio of trial time to reference time is steady.

Calibrated seconds are wall seconds scaled by ``NOMINAL_S`` divided by the
reference kernel's duration measured around them: a time as it would read
on a machine where the kernel takes exactly ``NOMINAL_S``.  The kernel is
part of the benchmark, never of the program, so a change to the program
cannot move it.
"""

from __future__ import annotations

import gc
import time

# Tuple hashing and set insertion, like the simplex-set work the sweeps do.
ITERATIONS = 5000
# The kernel duration that calibrated times are expressed at (a unit, not a
# measurement).
NOMINAL_S = 0.002


def _kernel() -> int:
    seen = set()
    acc = 0
    for i in range(ITERATIONS):
        t = (i, i * 7 % 13)
        seen.add(t)
        acc += hash(t) & 15
    return acc


def reference_seconds() -> float:
    """One timed run of the reference kernel, with the cyclic collector off
    so that the size of the program's heap cannot change its duration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(latencies, refs) -> list:
    """Calibrated latencies.

    ``refs`` holds (index, seconds) pairs: a reference run taken just before
    ``latencies[index]`` (an index equal to ``len(latencies)`` means after the
    last one).  Each latency is scaled by the mean of the two reference runs
    that bracket it.
    """
    if not refs or refs[0][0] != 0 or refs[-1][0] != len(latencies):
        raise ValueError("reference runs must bracket every latency")
    out = []
    for (start, before), (end, after) in zip(refs, refs[1:]):
        scale = NOMINAL_S / ((before + after) / 2)
        out.extend(latency * scale for latency in latencies[start:end])
    return out
