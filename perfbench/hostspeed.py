"""How fast the host runs right now, from a fixed reference kernel.

The benchmark shares its host with other tenants, whose memory traffic
slows every memory-bound Python program by up to about 1.6x for minutes at
a time.  Repeating a call inside one run cannot average such a phase out,
so each repetition also times this kernel -- fixed, pure-stdlib work that
builds and probes a dict and a heap the way the replay loops do -- just
before its set-up, and scales its times by ``NOMINAL_S`` over the kernel's
time.  The kernel depends on no simulator code, so a change to the
simulator moves the scaled times exactly as much as the raw ones.
"""

import heapq
import time

#: Nominal kernel time, about what it takes on the reference host (2 vCPUs,
#: Intel Xeon at 2.0 GHz, Python 3.11) while other tenants are quiet.  It
#: only sets the scale: scaled times are seconds at that host speed.
NOMINAL_S = 0.2

_N = 60_000


def _kernel() -> float:
    table = {}
    heap = []
    x = 12345
    for i in range(_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x] = (i, float(x))
        heapq.heappush(heap, (x % 100003, i))
    total = 0.0
    x = 12345
    for _ in range(_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[x][1]
        heapq.heappop(heap)
    return total


def reference_s() -> float:
    """Host seconds the reference kernel takes once, now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
