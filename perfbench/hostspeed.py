"""The host's current speed, sampled while the benchmark measures.

The shared hosts this benchmark runs on change speed for minutes at a time:
on a 2-vCPU Xeon (Sapphire Rapids) KVM guest the same campaign iteration
took 20 s in one period and 34 s in the next, with no steal time reported,
and pure-Python and numpy code slowed alike.  Runs of the same code then
spread far beyond any useful regression bound, however long each run is.

A :class:`HostSpeed` sampler runs a fixed pure-Python calibration loop,
independent of the program, every :data:`PERIOD_S` of CPU time
(``SIGPROF``) in the benchmark's own process, so on the same CPU and during
the same interval as the work it measures.  Over 18 iterations of the
batched matrix on that guest, the loop's median correlated 0.88 with the
iteration's wall time and halved its spread; a small-array numpy loop
correlated 0.70.

:meth:`HostSpeed.scale` turns a measured time into *reference seconds*: the
time at the speed where one sample takes :data:`REFERENCE_S`.  A program
change moves a scaled time as it moves the raw one, since the loop runs no
program code; a change of host speed moves it much less.  The program itself only uses
``SIGALRM`` (task deadlines), so the two timers do not meet.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: CPU time between two samples.
PERIOD_S = 0.02
#: Median sample duration that defines the reference speed; about what the
#: 2-vCPU Xeon KVM guest above measured in its faster periods.
REFERENCE_S = 6.0e-5
#: Samples taken back to back when a measurement needs one right away.
BURST = 25


class HostSpeed:
    """Calibration-loop samples; ``with`` samples on ``SIGPROF`` meanwhile."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        """Time one pass of the calibration loop."""
        if self._busy:  # a signal that arrived during a sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            total = 0
            for i in range(2000):
                total += i
            self.samples.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def sampled_s(self) -> float:
        """Time the samples took, to take out of a measured interval."""
        return sum(self.samples)

    def scale(self, seconds: float) -> float:
        """``seconds`` measured at the sampled speed, in reference seconds."""
        return seconds * REFERENCE_S / statistics.median(self.samples)
