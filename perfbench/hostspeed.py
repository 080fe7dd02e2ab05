"""How fast the host runs right now, sampled on a side thread.

The reference host is a shared virtual machine whose speed drifts by up
to 1.6x in phases that last from a few seconds to minutes; CPU time
drifts with wall time, so the cause is the physical host, not
preemption inside the guest.  A ten-run set that straddles a phase
change then reads as a program change.  ``HostSpeed`` measures that
drift while a workload runs: every ``PERIOD_S`` a daemon thread runs a
fixed calibration kernel (dict updates, float arithmetic, method calls
on small objects and small numpy reductions, the mix of work the
program does) and records how much CPU time of its own thread it took.
Thread CPU time leaves out the time the sampler waits for the GIL or
for a core, so the sample tracks the speed of the host and not how busy
the guest is.

``scale(t0, t1)`` is the host's slowness over an interval: the mean of
``sample / NOMINAL_SAMPLE_S`` over the samples taken in it (widened to at
least ``MIN_WINDOW_S``).  A timing divided by it is a *reference-speed*
timing: about what the operation would have taken on the reference
host at its usual speed.  The kernel does not touch the program, so a program
change moves reference-speed timings exactly as it moves wall-clock
ones.  Raw wall-clock figures stay in every run record.
"""

from __future__ import annotations

import bisect
import threading
import time

import numpy as np

#: Seconds between samples; one sample takes about 1 ms of CPU.
PERIOD_S = 0.05
#: Intervals shorter than this are widened around their midpoint, so a
#: short operation is scaled by about ten samples.
MIN_WINDOW_S = 0.5
#: About the thread CPU seconds one sample takes on the reference host
#: (2-vCPU "Intel(R) Xeon(R) Processor", Python 3.11.7, numpy 2.4.6),
#: where samples ran 0.7-1.4 ms as its speed drifted.  It only sets the
#: unit: reference-speed timings read close to wall-clock ones there.
NOMINAL_SAMPLE_S = 1.0e-3


class _Item:
    __slots__ = ("weight", "bias")

    def __init__(self, weight: int, bias: int) -> None:
        self.weight = weight
        self.bias = bias

    def apply(self, x: int) -> int:
        return self.weight * x + self.bias


_ITEMS = [_Item(i, i + 1) for i in range(64)]
_MATRIX = np.arange(64, dtype=np.float64).reshape(8, 8)


def kernel() -> float:
    """The calibration work: fixed, allocation-light, program-free."""
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(1500):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += (i * 0.5) / (key + 1.0)
        acc += _ITEMS[i & 63].apply(i) & 7
    for i in range(40):
        acc += float(np.cumsum(_MATRIX, axis=1)[i & 7].min())
    return acc + len(table)


class HostSpeed:
    """A side thread that samples the host's speed until ``stop``."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.times: list[float] = []    # perf_counter at each sample
        self.costs: list[float] = []    # thread CPU seconds it took
        self._lock = threading.Lock()   # guards times and costs
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-hostspeed")

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._done.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._done.wait(PERIOD_S):
            c0 = time.thread_time()
            kernel()
            cost = time.thread_time() - c0
            at = time.perf_counter()
            with self._lock:
                self.times.append(at)
                self.costs.append(cost)

    def scale(self, t0: float, t1: float) -> float:
        """Mean slowness over ``[t0, t1]`` (perf_counter seconds)
        against the reference speed; 1.0 when no sample covers it."""
        if t1 - t0 < MIN_WINDOW_S:
            mid = (t0 + t1) / 2
            t0, t1 = mid - MIN_WINDOW_S / 2, mid + MIN_WINDOW_S / 2
        with self._lock:
            lo = bisect.bisect_left(self.times, t0)
            hi = bisect.bisect_right(self.times, t1)
            window = self.costs[lo:hi]
        if not window:
            return 1.0
        return sum(window) / len(window) / NOMINAL_SAMPLE_S

    def summary(self) -> dict[str, float]:
        with self._lock:
            costs = sorted(self.costs)
        if not costs:
            return {"hostspeed_samples": 0}
        return {"hostspeed_samples": len(costs),
                "hostspeed_scale_p10": costs[len(costs) // 10]
                / NOMINAL_SAMPLE_S,
                "hostspeed_scale_p50": costs[len(costs) // 2]
                / NOMINAL_SAMPLE_S,
                "hostspeed_scale_p90": costs[len(costs) * 9 // 10]
                / NOMINAL_SAMPLE_S}
