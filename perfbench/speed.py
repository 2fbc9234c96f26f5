"""Machine-speed sampling, so host times from a shared host compare.

On a host shared with other tenants, the same repetition takes anywhere
from 1.0x to 1.9x its quiet time, in phases lasting a fraction of a
second to minutes: a ~0.5 ms probe timed back to back for 20 s read
1.0x-1.9x its fastest time in 0.2 s buckets, in CPU time as in wall
time (the slowdown is contention on the host, not stolen time).
Medians over a run do not remove that; it set a 10-25 % quartile spread
across runs of the steady-churn legs.

So while each repetition runs, a daemon thread times a fixed ~0.5 ms
pure-Python probe (heap, dict and integer work, no ``repro`` code) every
:data:`PERIOD_S` seconds, and the repetition's host times are scaled by
``PROBE_REF_S`` over the mean probe time: the metrics are host seconds
at the reference speed, the speed at which the probe takes
``PROBE_REF_S``.  Only samples taken during the repetition follow the
speed closely enough: bursts of probes just before and after each
repetition left the quartile spread of ``fleet-survey`` at 15-17 % over
five seeds, no better than unscaled host time.

The probe is kept independent of the program it scales:

* It is timed in the CPU time of its own thread, so time it spends
  waiting for a CPU the program keeps busy, or for the GIL, does not
  count; only how fast the CPU runs the probe's own instructions does.
* It allocates no object the garbage collector tracks, so it never
  starts a collection over the program's heap.
* A pure-Python or a numpy memory-streaming process on the other CPU of
  the tuning machine did not slow it (0.98x and 0.99x its time beside
  an idle CPU, medians over 12 cycles of one-second phases).

The runner pins single-process workloads to one CPU, so the probe times
the CPU the work runs on; for multi-process workloads it runs in the
parent and samples whichever CPU it is given.  The probe costs the work
~2 % of one CPU, the same share on every commit.  Raw host times are
kept next to the scaled ones in every run record.
"""

from __future__ import annotations

import gc
import heapq
import threading
import time

#: Probe time at the reference speed: the 2nd percentile of probe times
#: on the machine the benchmark was tuned on (Intel Xeon, 2 vCPUs,
#: Python 3.11).
PROBE_REF_S = 0.00054
#: Seconds between probes.
PERIOD_S = 0.025

# The probe's containers, reused so that a probe allocates no object
# the garbage collector tracks.
_heap: list = []
_counts: dict = {}


def probe_s() -> float:
    """CPU seconds of one probe in the calling thread."""
    t0 = time.thread_time()
    _heap.clear()
    _counts.clear()
    x = 5
    for i in range(1_200):
        x = (x * 1_103_515_245 + 12_345) & 0x7FFF_FFFF
        heapq.heappush(_heap, x)
        _counts[i & 1023] = _counts.get(i & 1023, 0) + 1
        if len(_heap) > 500:
            heapq.heappop(_heap)
    return time.thread_time() - t0


class _Sampler:
    """Times the probe every :data:`PERIOD_S` seconds while the ``with``
    block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.samples.append(probe_s())

    def __enter__(self) -> "_Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a block shorter than one period
            self.samples.append(probe_s())


def measured(fn):
    """``fn()``, run after a garbage collection and under the probe:
    its result and the factor that takes its host seconds to the
    reference speed."""
    gc.collect()
    with _Sampler() as sampler:
        result = fn()
    return result, PROBE_REF_S * len(sampler.samples) / sum(sampler.samples)
