"""A yardstick for the host's speed, timed next to the measured work.

The benchmark shares its host with other machines' work, and the same
Python code runs up to a third slower or faster from one minute to the
next. A fixed computation that no change to singchi touches, exact
polynomial arithmetic of the kind an operation and a set-up do, is timed
alongside the measured work. A time is scaled by the yardstick's
reference time over its median time around that work, so a slow spell
that slows both cancels out, and the figures read as times on a host
where the yardstick takes its reference time.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_MS = 2.5


def _arithmetic():
    """Product of two dense bivariate polynomials with Fraction coefficients."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    b = {(i, j): Fraction(j + 3, i + 1) for i in range(6) for j in range(6)}
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


class Yardstick:
    """The arithmetic yardstick and the times measured for it."""

    def __init__(self):
        self.samples_ms = []

    def sample(self):
        start = perf_counter_ns()
        _arithmetic()
        self.samples_ms.append((perf_counter_ns() - start) / 1e6)

    def factor(self, start=0, stop=None):
        """Reference over median time of the samples in [start, stop):
        multiply a time measured next to those samples by this."""
        return REFERENCE_MS / statistics.median(self.samples_ms[start:stop])
