"""Host-speed scaling: times in reference seconds.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to 1.8x within a minute, in wall time and CPU time alike.  So every timed
region runs under a HostSpeed clock.  Every PERIOD_S seconds a SIGALRM
handler runs a fixed reference kernel in the main thread and times it; the
program time up to the next sample is scaled by REFERENCE_S over the median
of the latest kernel times, and the kernel's own time is left out.  A reference second is the time
the program would take on a host that runs the kernel in REFERENCE_S.

The kernel is this file's own frozen copy of the two costs the program
spends its time on: an exact characteristic polynomial by Faddeev-LeVerrier
over Python ints, and a count of induced P4s over the 4-sets of a bitmask
graph.  It shares no code with p4spec, so a change to the program moves the
program's times and never the kernel's.  On a 2-vCPU Xeon VM of a shared
host, the analyze-mix serving time over the kernel's time stayed within 4%
per 13-second stretch while the raw times moved by 1.8x.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from itertools import combinations
from time import perf_counter, thread_time

PERIOD_S = 0.1
SMOOTHING = 5  # the scale comes from the median of the last few samples
# About the kernel's median time on a 2-vCPU Intel Xeon VM of a shared host
# (Python 3.11.7), so that a reference second is close to a wall second there.
REFERENCE_S = 0.003

# Cold starts are scaled by the start of a bare interpreter instead: a spawn
# and its imports do not slow down in step with the kernel.  This is about
# that start's median wall time on the same VM.
BARE_ARGV = ["-c", "pass"]
BARE_REFERENCE_S = 0.075

# A fixed 9-vertex graph and its complement, as adjacency bitmasks.
_EDGES = ((0, 1), (0, 2), (0, 6), (0, 7), (1, 3), (1, 6), (1, 8), (2, 4), (2, 7),
          (3, 5), (3, 7), (4, 5), (4, 8), (5, 6), (5, 7), (6, 8), (7, 8))
_ADJ = [0] * 9
for _u, _v in _EDGES:
    _ADJ[_u] |= 1 << _v
    _ADJ[_v] |= 1 << _u
_GRAPHS = (tuple(_ADJ), tuple(~a & 0x1FF & ~(1 << v) for v, a in enumerate(_ADJ)))


def _char_poly(adj) -> list[int]:
    n = len(adj)
    a = [[adj[i].bit_count() if i == j else -(adj[i] >> j & 1) for j in range(n)]
         for i in range(n)]
    rng = range(n)
    c = [0] * (n + 1)
    c[n] = 1
    b = [row[:] for row in a]
    c[n - 1] = -sum(b[i][i] for i in rng)
    for k in range(2, n + 1):
        ck = c[n - k + 1]
        for i in rng:
            b[i][i] += ck
        b = [[sum(ar[m] * b[m][j] for m in rng) for j in rng] for ar in a]
        c[n - k] = -sum(b[i][i] for i in rng) // k
    return c


def _p4_count(adj) -> int:
    count = 0
    for quad in combinations(range(len(adj)), 4):
        mask = sum(1 << v for v in quad)
        if sorted((adj[v] & mask).bit_count() for v in quad) == [1, 1, 2, 2]:
            count += 1
    return count


def _kernel() -> list:
    return [(_char_poly(adj), _p4_count(adj)) for adj in _GRAPHS]


KERNEL_RESULT = _kernel()


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = perf_counter()
    result = _kernel()
    dt = perf_counter() - t0
    if result != KERNEL_RESULT:
        raise RuntimeError("reference kernel gave another result")
    return dt


class HostSpeed:
    """A clock in reference seconds.

    now() advances with wall time times the current scale, REFERENCE_S over
    the median of the last SMOOTHING kernel times, so one disturbed sample
    moves nothing; it stands still while the kernel runs.  raw() is wall
    time with the kernel's time left out; kernel_cpu is the main thread's
    CPU time spent in the kernel, to be taken out of CPU figures.

    While entered, the clock samples every PERIOD_S seconds.  Use one clock
    per process, from the main thread, with no worker processes running: a
    kernel run would compete with them.
    """

    def __init__(self):
        self.kernel_wall = 0.0
        self.kernel_cpu = 0.0
        self.samples = 0
        self._scaled = 0.0
        self._mark = perf_counter()
        self._recent = deque((kernel_s() for _ in range(SMOOTHING)), SMOOTHING)
        self._scale = REFERENCE_S / statistics.median(self._recent)
        self._saved = None

    def now(self) -> float:
        return self._scaled + (perf_counter() - self._mark) * self._scale

    def raw(self) -> float:
        return perf_counter() - self.kernel_wall

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        self._scaled += (t0 - self._mark) * self._scale
        c0 = thread_time()
        self._recent.append(kernel_s())
        self._scale = REFERENCE_S / statistics.median(self._recent)
        self.kernel_cpu += thread_time() - c0
        self._mark = perf_counter()
        self.kernel_wall += self._mark - t0
        self.samples += 1

    def __enter__(self) -> HostSpeed:
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)


class RawClock:
    """perf_counter behind the HostSpeed interface, for traced runs: their
    spans must not contain kernel samples."""

    kernel_wall = kernel_cpu = 0.0
    now = raw = staticmethod(perf_counter)
