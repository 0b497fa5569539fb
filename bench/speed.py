"""Machine-speed probe for normalizing timings.

The virtual machine this benchmark was tuned on (2 vCPUs, 2.1 GHz Xeon)
changes speed by up to 1.4x over minutes, in both directions and for every
process alike, because it shares cores and caches with other machines.  A
fixed pure-Python loop that never touches the library slows down with it:
over 90 s, 3-second medians of library calls varied by 22% (coefficient of
variation), the probe by 24%, and their ratio by 4%.  Timings are therefore reported at the speed at which
this probe takes REFERENCE_S seconds, which is about the fast regime of that
machine.  Imports only the standard library, so it can run before the
library is imported.
"""

from __future__ import annotations

import math
import statistics
import time

LOOPS = 40000
REFERENCE_S = 0.0085


def probe():
    """Seconds for one fixed loop of float, tuple and dict work."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(LOOPS):
        x = (i * 0.5, i + 1.0)
        acc += math.sqrt(x[0] * x[1] + 1.0) - acc * 1e-9
        table[i & 255] = x
    return time.perf_counter() - t0


def slowness(repeats=3):
    """Median probe time over REFERENCE_S: 1.0 at reference speed."""
    return statistics.median(probe() for _ in range(repeats)) / REFERENCE_S
