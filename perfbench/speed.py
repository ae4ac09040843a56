"""CPU-speed probe that converts measured intervals to reference-speed seconds.

The 2-CPU virtual machines this benchmark was built on change speed by up to
70 % from one ten-second stretch to the next (a busy hyperthread sibling on
the host, frequency changes), which swamps any change a pull request makes.
A SIGALRM timer therefore runs a fixed probe every PERIOD_S in the measuring
thread itself: exact Fraction sums and small-integer arithmetic, the two
kinds of work cubespec does.  The probe's duration c(t) tracks the current
speed, and an interval [a, b] of perf_counter time converts to reference
seconds as the integral of REF_PROBE_S / c(t) over it, leaving out the time
spent inside the probes.  A change to cubespec moves the interval, not the
probe, so it shows in full; a change of machine speed moves both and
cancels.  The raw perf_counter times are kept next to the converted ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# Probe duration at the speed the reference seconds refer to: the fast state
# of the 2-CPU Xeon (2.1 GHz) this benchmark was calibrated on.
REF_PROBE_S = 1.5e-4
SMOOTH = 5  # probes in the running median that gives c(t)

_TERMS = [Fraction((7 * k) % 19 - 9, 1 + (5 * k) % 8) for k in range(60)]


def probe_work() -> int:
    acc = Fraction(0)
    for x in _TERMS:
        acc += x
    s = 0
    for i in range(800):
        s += (i * 7) % 13
    return s + acc.numerator


class SpeedProbe:
    """Samples the probe on a timer while started; converts intervals."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - t)
        self.starts.append(t)

    def start(self) -> None:
        self._tick(None, None)  # so even a very short interval has a speed
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _speed(self, k: int) -> float:
        """REF_PROBE_S over the running median of probe durations around k."""
        lo = max(0, min(k, len(self.durations) - 1) - SMOOTH // 2)
        return REF_PROBE_S / statistics.median(self.durations[lo:lo + SMOOTH])

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds in the perf_counter interval [a, b]."""
        first = bisect.bisect_left(self.starts, a)
        last = bisect.bisect_left(self.starts, b)
        total = 0.0
        edge = a
        for k in range(first, last):
            # the stretch before probe k runs at the speed measured around k
            total += max(0.0, self.starts[k] - edge) * self._speed(k)
            edge = self.starts[k] + self.durations[k]
        return total + max(0.0, b - edge) * self._speed(last - 1 if last > 0 else 0)
