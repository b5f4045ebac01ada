"""A clock that runs at a reference host speed.

The shared host this benchmark was built on changes speed by up to 80% over
seconds: a fixed slice of the module sweep took 154 ms to 277 ms in 5 s
windows of one minute, in process time as much as in wall time.  A short
pure-Python loop (Fraction arithmetic and dict updates, like ddcp's own
work) slows down with it, and the ratio of the two stayed within 42-45
across those windows.

So the benchmark times everything with HostClock: every EVERY_S a timer
signal re-measures the loop, and the clock advances by the elapsed time
multiplied by REFERENCE_S / (the loop's time), leaving out the time of the
measurement itself.  Its seconds are those of a host on which the loop takes
REFERENCE_S, roughly this host at its fast setting.
"""

import signal
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0013
EVERY_S = 0.2


def _loop():
    t0 = perf_counter()
    acc = Fraction(0)
    counts = {}
    for i in range(1, 600):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    return perf_counter() - t0


def _scale():
    return REFERENCE_S / min(_loop(), _loop())


class HostClock:
    """Use as a context manager; it owns SIGALRM while open."""

    def __enter__(self):
        self._scaled = 0.0
        self._tick_count = 0
        self.scale = _scale()
        self._mark = perf_counter()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _tick(self, signum, frame):
        # The segment keeps the scale now() has been using, so the clock
        # never runs backwards.
        self._scaled += (perf_counter() - self._mark) * self.scale
        self.scale = _scale()
        self._mark = perf_counter()
        self._tick_count += 1

    def now(self):
        """Reference seconds since the clock was opened."""
        while True:
            # A tick between these reads would mix two segments; read again.
            ticks = self._tick_count
            value = self._scaled + (perf_counter() - self._mark) * self.scale
            if ticks == self._tick_count:
                return value
