"""Order statistics used by every report: median, percentile, spread."""

from __future__ import annotations

import statistics
from statistics import median  # noqa: F401 - re-exported for reports


def percentile(values, q):
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def iqr(values):
    """Distance between the first and third quartile (0 for < 2 values).

    ``statistics.quantiles(values, n=4)`` is the estimator the benchmark
    contract uses for run-to-run spread, so reports use the same one.
    """
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def summary(values):
    """``{median, iqr, n}`` of a sample: the shape every report row has."""
    return {"median": median(values), "iqr": iqr(values), "n": len(values)}
