"""Host-speed meter: the benchmark's timings at a fixed host speed.

The benchmark runs on a share of a larger machine.  There, the same
Python work takes 25-40% longer in some stretches than in others, in
phases of a few seconds, and the mix of fast and slow phases drifts from
minute to minute.  Raw wall times of one op then spread more between
runs than any useful regression bound.

While a :class:`HostMeter` runs, a ``SIGALRM`` every ``INTERVAL_S`` runs
a fixed pure-Python probe on the main thread and records its CPU time
(``thread_time``, so time spent waiting for a core does not count).
:func:`at_reference_speed` scales an interval's wall time by
``REFERENCE_PROBE_S`` over the median probe time taken inside the
interval: the seconds the interval would have taken at the reference
speed.  Work the program adds or removes changes the result; a slow
phase of the host slows the probe as much as the program and cancels
out.  The probe costs about 0.5% of the time it meters, in every run.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from pathlib import Path
from time import perf_counter

#: Iterations of the probe loop, and the seconds between two probes.
PROBE_LOOPS = 3000
INTERVAL_S = 0.05
#: The probe's CPU time at the reference speed: its median on a 2-core
#: x86-64 VM (Python 3.11) in the host's fast phases, so that timings
#: read close to the wall seconds of an unloaded host of that kind.
REFERENCE_PROBE_S = 2.3e-4
#: An interval with fewer probes inside uses the ones nearest to it.
MIN_SAMPLES = 5


def probe() -> int:
    """The fixed unit of work the meter times."""
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return total


class HostMeter:
    """Times :func:`probe` every ``INTERVAL_S`` while started.

    ``samples`` holds ``(perf_counter() when taken, probe CPU seconds)``.
    ``perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, so samples
    written by another process line up with this one's intervals.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.thread_time()
        probe()
        self.samples.append((perf_counter(), time.thread_time() - started))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.samples))


def read_samples(path: str | Path) -> list[tuple[float, float]]:
    return [tuple(sample) for sample in json.loads(Path(path).read_text())]


def at_reference_speed(
    interval: tuple[float, float], samples: list[tuple[float, float]]
) -> float:
    """Seconds ``interval`` (perf_counter start, end) would have taken
    at the reference speed, from the probes in ``samples``."""
    start, end = interval
    inside = [seconds for at, seconds in samples if start <= at <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        inside = [seconds for _, seconds in nearest[:MIN_SAMPLES]]
    if not inside:
        raise RuntimeError("the host meter took no samples")
    return (end - start) * REFERENCE_PROBE_S / statistics.median(inside)
