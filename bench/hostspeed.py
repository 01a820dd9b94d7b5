"""A fixed probe of the host's current speed, used to scale wall-clock times.

The benchmark runs on a few cores of a shared host whose speed drifts by
half or more over seconds and minutes as other tenants come and go.  A
raw wall-clock time therefore measures the neighbours as much as the
program.  The benchmark runs :func:`probe` next to every timed op and
set-up, and scales each time by ``REFERENCE_S / probe time``: the result
is the time the op would take on a host where the probe takes
``REFERENCE_S``, so two runs of the same code agree even when the host
was slower during one of them.

The probe does the kind of work the library does (big-integer products
and comparisons, list copies, dict building and a ``Fraction`` sum) in
plain Python and the standard library, so it slows down with the host
in about the same proportion, and it touches no apportree code, so a
change to the library cannot move it.  Do not change the probe or
``REFERENCE_S``: either changes every scaled metric.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The probe's time on the 2-vCPU shared host the benchmark was written on
# when its neighbours were quiet.
REFERENCE_S = 0.002

_WIDTH = 64
_A = [(3**k + 7) * 10**20 + k for k in range(_WIDTH)]
_B = [(5**k + 11) * 10**18 + k for k in range(_WIDTH)]


def _work() -> tuple[int, Fraction, int]:
    best = 0
    counts = {}
    for _ in range(40):
        seats = list(range(_WIDTH))
        for i in range(_WIDTH):
            a = _A[i] * (seats[i] + 1)
            b = _B[i] * (seats[(i * 7) % _WIDTH] + 2)
            if a * _B[(i + 1) % _WIDTH] < b * _A[(i + 3) % _WIDTH]:
                best = i
        counts = {i: seats[i] for i in range(0, _WIDTH, 3)}
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 7 + 1, i + 3)
    return best, total, len(counts)


def probe() -> float:
    """Seconds one run of the fixed probe takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def probe_median(runs: int = 5) -> float:
    """Median of ``runs`` probes, for timing a single long interval."""
    return statistics.median(probe() for _ in range(runs))


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
