"""Reference loop that tells how fast the machine runs Python at the moment.

On a shared virtual machine the same CPU-bound call can take 0.15 s or
0.30 s depending on what the other tenants of the host do, and such speed
levels last from seconds to minutes, so whole runs land in one of them.
Process CPU time does not help: it moves with wall time, because the time is
lost while the CPU runs, not while it waits.  The benchmark therefore times
this fixed loop next to every measured call and rescales the call's wall
time to a machine on which the loop takes REFERENCE_S.  The loop is
interpreted scalar code with `math` calls and dict stores, the kind of work
that dominates the package, and it uses nothing but the standard library,
so it can run in a fresh interpreter before anything is imported.

A change to this file changes every rescaled figure.
"""

import math
import time

# wall time of reference_s() on the machine the bounds were set on
# (2 vCPU x86-64 virtual machine, CPython 3.11) in its most common state
REFERENCE_S = 0.015


def reference_s() -> float:
    """Wall time of one pass of the fixed reference loop, in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(60000):
        x = math.exp(-i * 1e-5)
        acc += x * x
        table[i & 255] = acc
    return time.perf_counter() - t0


def rescale(wall: float, ref_before: float, ref_after: float) -> float:
    """`wall` as it would read on a machine where the loop takes REFERENCE_S."""
    return wall * REFERENCE_S / (0.5 * (ref_before + ref_after))

