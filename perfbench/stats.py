"""Order statistics used by the benchmark.

Percentiles use linear interpolation between closest ranks (the
"inclusive" method of ``statistics.quantiles``), so the median and the
quartiles reported here match what ``statistics.quantiles(values, n=4)``
gives on the same list.
"""

from __future__ import annotations

import math

#: The tail percentile reported for operation latency.
TAIL_PERCENTILE = 90
#: Samples that must lie beyond the tail percentile for it to be reported.
MIN_BEYOND_TAIL = 10


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(n, q):
    """How many of n samples lie strictly above the q-th percentile rank."""
    return n - 1 - math.floor((n - 1) * q / 100)


def min_samples_for_tail(q=TAIL_PERCENTILE, beyond=MIN_BEYOND_TAIL):
    """Smallest sample count that leaves `beyond` samples past percentile q."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def summary(values):
    """Sample count, median and quartiles of a non-empty sequence."""
    return {"n": len(values),
            "median": percentile(values, 50),
            "q1": percentile(values, 25),
            "q3": percentile(values, 75)}


def growth_exponent(sizes, seconds):
    """Least-squares slope of log(seconds) against log(size): t ~ size^k."""
    if len(sizes) < 2:
        return None
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
