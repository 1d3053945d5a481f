"""The host's speed, sampled while pcflab runs, and times scaled by it.

On a shared host a fixed computation takes up to twice as long in a slow
phase as in a fast one, and the phases last from seconds to minutes, longer
than a run.  Raw wall times of the same code then differ between two sets of
runs by more than any useful bound.  So the benchmark samples the host's
speed with a fixed kernel while pcflab runs and scales each operation's
wall time by it.

``Speedometer`` arms an interval timer.  Every ``period`` seconds of wall
time the signal handler runs ``kernel()`` in the main thread, between two
bytecodes of whatever pcflab is doing, and records how long it took.  The
kernel is benchmark code only, one part in the style of each of pcflab's
layers: a linear substitution into an exact form with ``Fraction``
coefficients (``poly``), fixed-point arithmetic on Python integers of a few
hundred bits, the way mpmath's pure-Python backend works (``numeric``), and
a complex double-precision loop (``fatou``).  A change to pcflab therefore cannot
change the kernel's time; a slow phase of the host slows both.

The samples fall evenly in wall time, so the mean of their speeds,
``REFERENCE_S`` over each kernel time, is the host's mean speed over an
interval relative to the reference.  An operation's scaled time is its wall
time less the time spent in the handler, times that mean over the samples
taken during the operation and up to one period around it.  It reads in
seconds on a host where the kernel takes ``REFERENCE_S``; a kernel sample
that an interrupt slowed has a speed near 0 and so moves the mean little.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import bench_oracle as oracle

REFERENCE_S = 0.002  # the kernel's time at the reference speed
PERIOD_S = 0.05  # wall time between two samples

_FORMS = [oracle.parse_form(s, 3) for s in
          ("3*x^2 - 2*x*y + 5*y*z - z^2", "x^2 + 7*y^2 - 3*x*z", "2*x*y - y^2 + 4*z^2")]
_SUBS = [oracle.linear([Fraction(1, 3), 2, -1]), oracle.linear([1, Fraction(-5, 7), 1]),
         oracle.linear([2, 1, Fraction(1, 2)])]


def kernel():
    """A fixed computation of about REFERENCE_S seconds; the result is discarded."""
    oracle.substitute(_FORMS[0], _SUBS, 3)
    x, y, out = (3 << 190) + 12345, (5 << 189) + 777, []
    for i in range(1000):
        m = (x * y) >> 192
        t = (1, m, i - 192, m.bit_length())
        x = m | 1 if t[3] > 100 else x
        out.append(t)
    z = 0j
    for _ in range(5000):
        z = z * z * 0.5 + (0.1 + 0.2j)
    return z, out


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    """Mean speed over kernel times, relative to the reference: > 1 on a fast host."""
    return statistics.fmean(REFERENCE_S / dt for dt in samples)


class Speedometer:
    """Samples the kernel every ``period`` seconds while active (a context manager)."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples = []  # (perf_counter at the sample's end, kernel seconds)
        self.spent = 0.0  # seconds spent in the handler
        self._old = None
        self._busy = False

    def _handler(self, signum, frame):
        if not self._busy:  # a sample slower than the period is not interrupted
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def sample(self):
        """Time the kernel once, now."""
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def clock(self):
        """(perf_counter, perf_counter less the handler's time), read without a sample between."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = time.perf_counter()
            return now, now - self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def scaled(self, start, end) -> float:
        """Scaled seconds between two ``clock()`` readings."""
        lo, hi = start[0] - self.period, end[0] + self.period
        near = [dt for t, dt in self.samples if lo <= t <= hi]
        if not near:  # a timer signal that came late; never divide by nothing
            near = [dt for _, dt in self.samples[-3:]] or [kernel_seconds()]
        return (end[1] - start[1]) * speed_factor(near)
