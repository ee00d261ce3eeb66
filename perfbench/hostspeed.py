"""Host speed, sampled with a fixed unit of pure-Python work.

On a shared host, how fast a vCPU runs Python code drifts: by a third
within seconds, and by a quarter between runs minutes apart. The CPU
time a thread is charged drifts with it, so the slowdown is contention
inside the host (a busy sibling core, shared caches), not time taken
away, and neither wall nor CPU time can tell it from a slower program.
The vCPUs drift independently of each other.

A compile job and a short reference unit run back to back on the same
vCPU slow down together. Over one-second slices of an in-process
compile loop on a 2-vCPU VM, the compile time per slice varied by 36%
(quartile distance over median) and the reference unit by 40%; their
ratio varied by 3%.

So the benchmark reports every timing at *reference speed*: a measured
duration is multiplied by the host's speed while it ran, where speed is
:data:`REFERENCE_S` over the thread CPU time one unit took. The unit is
benchmark code, so a change to the program moves the metrics as much as
before; only the host's drift is divided out. The unit allocates no
container, so no collector pause lands inside it, and it is timed in
thread CPU time, so waiting for a CPU or for the interpreter lock does
not count as a slow host.

Two ways to sample:

* :class:`Samples` is filled by the measuring thread itself, between
  jobs, so every sample is taken on the vCPU that runs the jobs.
* :class:`Background` runs one sampling thread pinned to each CPU, for
  phases whose work is spread over processes and CPUs (store fills,
  server boot, the served window). A set-up adds :func:`bracket`
  samples from the measuring thread: over twenty in-process set-ups,
  background samples alone narrowed the spread of set-up time from 19%
  to 11%, and with the bracket samples to 6%.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

#: Thread CPU seconds one unit takes at reference speed: about its median
#: on the 2-vCPU VM the bounds were set on, so that figures at reference
#: speed read close to those measured there.
REFERENCE_S = 0.00125
#: Dictionary updates in one unit.
UNIT_STEPS = 10_000
#: Seconds between samples.
INTERVAL_S = 0.1
#: Samples taken up to this many seconds before a job starts or after it
#: ends rate the host's speed while it ran.
NEAR_S = 0.3

_TABLE = dict.fromkeys(range(1024), 0)


def unit_seconds() -> float:
    """Thread CPU seconds of one reference unit."""
    table = _TABLE
    began = time.thread_time()
    for step in range(UNIT_STEPS):
        table[step & 1023] ^= step
    return time.thread_time() - began


class Samples:
    """Speed samples of one phase, as (time, speed) pairs."""

    def __init__(self) -> None:
        self._pairs: list[tuple[float, float]] = []
        self._lock = threading.Lock()

    def take(self) -> float:
        """Time one unit and record its speed; returns when it ended."""
        speed = REFERENCE_S / max(unit_seconds(), 1e-9)
        now = time.perf_counter()
        with self._lock:
            self._pairs.append((now, speed))
        return now

    def _sorted(self) -> tuple[list[float], list[float]]:
        with self._lock:
            pairs = sorted(self._pairs)
        return [t for t, _ in pairs], [s for _, s in pairs]

    def mean(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean speed over samples taken in ``[start, end]``.

        Falls back to the sample nearest the interval, and to 1.0 when
        there are no samples at all.
        """
        return self.rater()(start, end)

    def rater(self):
        """``rate(start, end)``: :meth:`mean` over a frozen, sorted copy.

        Rates many intervals in logarithmic time each.
        """
        times, speeds = self._sorted()
        prefix = [0.0]
        for speed in speeds:
            prefix.append(prefix[-1] + speed)

        def rate(start: float, end: float) -> float:
            if not times:
                return 1.0
            low = bisect.bisect_left(times, start)
            high = bisect.bisect_right(times, end)
            if high > low:
                return (prefix[high] - prefix[low]) / (high - low)
            if low == len(times):
                return speeds[-1]
            if low == 0 or times[low] - end < start - times[low - 1]:
                return speeds[low]
            return speeds[low - 1]

        return rate

    def near(self):
        """``rate(start, end)`` over samples within :data:`NEAR_S` of a job."""
        rate = self.rater()
        return lambda start, end: rate(start - NEAR_S, end + NEAR_S)


def bracket(samples: Samples, count: int = 3) -> None:
    """``count`` samples on the calling thread, right before or after a
    phase it starts."""
    for _ in range(count):
        samples.take()


class Background:
    """One sampling thread per CPU, pinned to it, while the block runs.

    ``with Background() as samples:`` fills ``samples`` about every
    :data:`INTERVAL_S` on every CPU this process may run on.
    """

    def __init__(self) -> None:
        self.samples = Samples()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    def _run(self, cpu: int) -> None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass
        while not self._stop.wait(INTERVAL_S):
            self.samples.take()

    def __enter__(self) -> Samples:
        for cpu in sorted(os.sched_getaffinity(0)):
            thread = threading.Thread(target=self._run, args=(cpu,), daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.samples

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
