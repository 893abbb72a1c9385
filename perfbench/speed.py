"""CPU-speed normalization for timings taken on a shared, drifting host.

On a host shared with other tenants the same Python code can run 1.5x
slower for tens of seconds at a time, and a wall-clock median then moves
with the neighbours rather than with the program. ``SpeedMeter`` samples the
host's speed during every operation: every ``INTERVAL_S`` of this process's
CPU time a profiling-timer signal runs a fixed reference loop and records
how long it took. An operation's wall time is then rescaled to the speed at
which the reference loop takes ``REFERENCE_S``:

    normalized = wall time * mean(REFERENCE_S / reference loop time)

The samples are evenly spaced in CPU time, so the mean of the speed ratios
weights each stretch of the operation by its length, which a median of the
loop times would not when the host changes speed part-way. The samples are
those taken during the operation, topped up with the latest earlier ones
when the operation was too short to collect ``MIN_SAMPLES``. Sampling costs
about 0.4% of the CPU time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.005
REFERENCE_S = 16e-6  # the reference loop's time on an uncontended 2-core x86-64 VM
MIN_SAMPLES = 20


def _reference_loop() -> float:
    # Plain integer arithmetic: it tracks the host's speed and, unlike work
    # that allocates, barely depends on the heap the measured code leaves.
    start = time.perf_counter()
    total = 0
    for i in range(300):
        total += i * i
    return time.perf_counter() - start


class SpeedMeter:
    def __init__(self):
        self.samples: list[float] = []

    def _on_signal(self, _signum, _frame) -> None:
        self.samples.append(_reference_loop())

    def __enter__(self) -> "SpeedMeter":
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        while len(self.samples) < MIN_SAMPLES:  # fill the first window
            _reference_loop()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def normalize(self, seconds: float, since: int) -> float:
        """``seconds`` measured since ``mark()`` returned ``since``, rescaled."""
        end = len(self.samples)
        window = self.samples[max(0, min(since, end - MIN_SAMPLES)):end]
        return seconds * statistics.fmean(REFERENCE_S / t for t in window)
