"""Speed calibration for the benchmark's end-to-end times.

The benchmark runs on a few cores of a shared host.  The speed those cores
give one Python thread drifts by a quarter or more over minutes, as other
tenants load the host, and a loop of fixed work shows the drift as plainly as
ttscheck does.  So each timed stretch of ttscheck is paired with timings of a
fixed unit of work taken inside that stretch, and the time is rescaled to the
speed at which one unit takes `REFERENCE_S` seconds:

    scaled = raw * REFERENCE_S / mean(unit times inside the stretch)

The unit mimics ttscheck's hot loops, so contention slows both alike: a
shortest-path closure of a difference-bound matrix of exact rational bounds
(`zone.canonicalize`), and hashing of tuples of its rows into a dict
(`classgraph`).  The unit is fixed here, outside the program under test, so a
change to ttscheck changes the scaled time just as it changes the raw one.
"""

from __future__ import annotations

import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# The speed that scaled times refer to: one unit in 25 ms, about what a
# 2-vCPU x86-64 cloud VM gives CPython 3 on a quiet host.
REFERENCE_S = 0.025
# Wall time between two units while ttscheck runs.
PERIOD_S = 0.2

_SIZE = 12
_RNG = random.Random(20130729)
_MATRICES = tuple(
    tuple(tuple((Fraction(_RNG.randrange(-20, 40), _RNG.choice((1, 2, 3))),
                 _RNG.random() < 0.3) if i != j and _RNG.random() < 0.6
                else ((Fraction(0), False) if i == j else None)
                for j in range(_SIZE)) for i in range(_SIZE))
    for _ in range(3))


def _close(m: tuple) -> tuple:
    rows = [list(row) for row in m]
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            rik = rows[i][k]
            if rik is None:
                continue
            ri = rows[i]
            for j in range(n):
                b = rk[j]
                if b is None:
                    continue
                via = (rik[0] + b[0], rik[1] or b[1])
                c = ri[j]
                if c is None or via[0] < c[0] or (via[0] == c[0] and via[1] and not c[1]):
                    ri[j] = via
    return tuple(tuple(row) for row in rows)


def unit() -> int:
    """One unit of fixed work; returns a checksum of its result."""
    seen: dict = {}
    for m in _MATRICES:
        closed = _close(m)
        for i in range(_SIZE):
            for j in range(_SIZE):
                key = (closed[i], closed[j], i - j)
                seen[key] = seen.get(key, 0) + 1
    return len(seen)


def time_unit() -> float:
    t0 = time.perf_counter()
    unit()
    return time.perf_counter() - t0


def scale(raw: float, units: list) -> float:
    """`raw` seconds rescaled to the speed at which a unit takes REFERENCE_S."""
    return raw * REFERENCE_S * len(units) / sum(units)


@contextmanager
def ticking():
    """Time one unit every `PERIOD_S` of wall time, from SIGALRM, while
    active.  Yields the list the unit times go to; their sum is to be taken
    off the wall time of the stretch."""
    units: list = []

    def fire(signum, frame) -> None:
        units.append(time_unit())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
    try:
        yield units
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
