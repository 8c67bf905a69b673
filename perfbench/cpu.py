"""Steady timings on a shared host: CPU chasing and speed rescaling.

On a shared host each CPU's speed swings by up to ~1.5x for seconds at a
time, as other tenants load the physical core it shares; the swings of
different CPUs are mostly independent, and at times the whole host is slow
for a minute or more. Raw wall times of identical passes therefore spread
by 15-30% between runs (see README.md).

`CpuChaser` does two things about it, touching nothing but this process:

* every `interval` seconds it times a fixed pure-Python probe on each
  allowed CPU and pins this process to the fastest one; `clock()` leaves
  the probing time out;
* it keeps the probe times of the CPU it was running on, so a pass's wall
  time can be rescaled to a reference CPU that runs the probe in
  `REFERENCE_PROBE_S`: rescaled = wall x REFERENCE_PROBE_S / (mean probe
  time during the pass).

The affinity is restored on exit.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from typing import Callable

# The probe's time on an unloaded CPU of the 2-vCPU Intel Xeon machine the
# benchmark was defined on; rescaled times are seconds on such a CPU.
REFERENCE_PROBE_S = 1.2e-3


def probe() -> float:
    """Seconds for a fixed integer loop, about 1.2 ms on the reference CPU."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class CpuChaser:
    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.cpus = sorted(os.sched_getaffinity(0))
        self.spent = 0.0   # seconds spent probing, left out of clock()
        self.current: int | None = None
        self.probes: list[float] = []   # probe time of the current CPU at each pin
        self.on_pause: list[Callable[[float], None]] = []
        self._busy = False
        self._old_handler = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def pin(self) -> None:
        """Time the probe on the current CPU, then move to the allowed CPU
        that runs it fastest right now.

        The current CPU's probe comes first, before any choice, so the
        recorded time is an unbiased sample of the speed the process has
        been running at; the other CPUs' times only serve the choice.
        """
        self._busy = True
        t0 = time.perf_counter()
        times = []
        if self.current is not None:
            here = probe()
            self.probes.append(here)
            times.append((here, self.current))
        for cpu in self.cpus:
            if cpu != self.current:
                os.sched_setaffinity(0, {cpu})
                times.append((probe(), cpu))
        self.current = min(times)[1]
        os.sched_setaffinity(0, {self.current})
        dt = time.perf_counter() - t0
        self.spent += dt
        self._busy = False
        for callback in self.on_pause:
            callback(dt)

    def mark(self) -> int:
        return len(self.probes)

    def speed_factor(self, since: int) -> float:
        """REFERENCE_PROBE_S over the mean probe time recorded since `mark()`
        returned `since`; ends with a pin, so the window holds a probe."""
        self.pin()
        return REFERENCE_PROBE_S / statistics.fmean(self.probes[since:])

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # the timer may fire inside an explicit pin()
            self.pin()

    def __enter__(self) -> "CpuChaser":
        self.pin()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        os.sched_setaffinity(0, self.cpus)
        self.current = None
