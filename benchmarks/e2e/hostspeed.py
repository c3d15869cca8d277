"""Host-speed reference: a fixed kernel timed throughout a run.

The benchmark shares its processor with other tenants, whose load slows
every instruction it runs by up to 70% for seconds at a time.  Process CPU
time slows just as much, so no choice of clock removes it.  What does
remove most of it is timing, throughout the run, a fixed *reference
kernel* written in the style of the engine's issue loop (an LRU set probe,
a completion heap and append-lists), and scaling each measured interval
by how fast that kernel ran around it.

:class:`HostSpeed` runs the kernel from a ``SIGALRM`` interval timer every
:data:`INTERVAL_S` (2-3% of the run's time) and records the kernel's thread
CPU time, which waiting for the processor does not inflate.
:meth:`HostSpeed.normalized` turns a wall interval of the benchmark process
into *reference seconds*: the interval minus the kernel's own time inside
it, times :data:`REFERENCE_S` over the mean kernel time around it.  On a
host where the kernel takes :data:`REFERENCE_S`, reference seconds are
seconds.  The kernel is the benchmark's own code, so two commits of the
program are measured against the same yardstick.

The timer is the process's only ``SIGALRM`` user; interval timers are not
inherited across ``fork``, so pool workers and the service never run the
kernel.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

import numpy as np

__all__ = ["HostSpeed", "REFERENCE_S", "INTERVAL_S", "kernel"]

#: The unit of the benchmark's times: about the CPU seconds one kernel run
#: takes on a quiet 2-vCPU "Intel(R) Xeon(R) Processor" VM with Python 3.11.
REFERENCE_S = 0.002
#: Seconds between kernel runs.
INTERVAL_S = 0.1
#: Kernel runs this close to an interval also count for it, so a short
#: interval is scaled by about ten of them.
PAD_S = 0.5

_ADDRESSES = (np.random.default_rng(0).zipf(1.3, size=4000) * 64 % (1 << 24)).tolist()


def kernel() -> int:
    """The reference kernel: an 8-way LRU cache and a completion heap over
    a fixed 4000-access address stream (about 2 ms of CPU)."""
    sets: "dict[int, list[int]]" = {}
    heap: "list[int]" = []
    completions: "list[int]" = []
    cycle = 0
    for address in _ADDRESSES:
        line = address >> 6
        ways = sets.get(line & 255)
        if ways is None:
            ways = sets[line & 255] = []
        if line in ways:
            ways.remove(line)
            ways.append(line)
            latency = 2
        else:
            ways.append(line)
            if len(ways) > 8:
                del ways[0]
            latency = 40
        cycle += 1
        heapq.heappush(heap, cycle + latency)
        while heap and heap[0] <= cycle:
            heapq.heappop(heap)
        completions.append(cycle + latency)
    return int(np.asarray(completions).sum())


class HostSpeed:
    """Kernel timings of one run and the interval scaling they give."""

    def __init__(self) -> None:
        #: ``(wall start, wall end, thread CPU seconds)`` per kernel run,
        #: walls on ``time.perf_counter``.
        self.samples: "list[tuple[float, float, float]]" = []
        self._previous = None

    def sample(self) -> None:
        """Run and time the kernel once."""
        w0, c0 = perf_counter(), thread_time()
        kernel()
        self.samples.append((w0, perf_counter(), thread_time() - c0))

    def start(self) -> None:
        """Time the kernel now and then every :data:`INTERVAL_S`."""
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _around(self, t0: float, t1: float) -> "list[tuple[float, float, float]]":
        starts = [s[0] for s in self.samples]
        near = self.samples[bisect_left(starts, t0 - PAD_S):bisect_right(starts, t1 + PAD_S)]
        if near:
            return near
        i = min(bisect_left(starts, t0), len(starts) - 1)
        return self.samples[max(i - 1, 0):i + 1]

    def slowdown(self) -> float:
        """Mean kernel time of the run over :data:`REFERENCE_S`."""
        return statistics.fmean(cpu for *_, cpu in self.samples) / REFERENCE_S

    def normalized(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval ``[t0, t1]``."""
        probing = sum(max(min(e, t1) - max(s, t0), 0.0) for s, e, _ in self.samples)
        kernel_s = statistics.fmean(cpu for *_, cpu in self._around(t0, t1))
        return (t1 - t0 - probing) * REFERENCE_S / kernel_s
