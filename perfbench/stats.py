"""Statistics helpers of the benchmark report.

Every timing is reported as a median plus the highest percentile that keeps
at least ten samples beyond it, with its sample count; every ratio carries
its base. test_stats.py pins these helpers.
"""

import math
import statistics

MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as Python's
    statistics.quantiles(values, n=4) gives them (exclusive method)."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median: the steadiness measure the benchmark is held to."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail_percentile(values, wanted=99.0, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile at `wanted`, lowered until at least
    `min_beyond` samples lie above it.

    Returns (value, percentile_used, samples_beyond). With no more than
    `min_beyond` samples no percentile qualifies and the median is returned
    with percentile_used 50.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    if n <= min_beyond:
        return median(ordered), 50.0, n - math.ceil(n / 2)
    used = min(wanted, 100.0 * (n - min_beyond) / n)
    # used * n / 100 is a whole number at the boundary; keep rounding error
    # from pushing the rank one past it.
    rank = max(1, math.ceil(used * n / 100.0 - 1e-9))
    return ordered[rank - 1], used, n - rank


class Ratio:
    """A ratio that remembers its base, so a report can print both."""

    def __init__(self, part, base):
        self.part = part
        self.base = base

    @property
    def value(self):
        return self.part / self.base if self.base else 0.0

    def __str__(self):
        return f"{self.value:.6g} ({self.part:g} / {self.base:g})"
