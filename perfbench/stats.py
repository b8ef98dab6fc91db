"""Summary statistics for per-op latencies."""

from __future__ import annotations

MIN_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least
    MIN_BEYOND samples beyond it, or None for too few samples.

    By the nearest-rank rule that is the sample of rank N - MIN_BEYOND,
    the (MIN_BEYOND + 1)-th largest, at percentile 100 * (N - MIN_BEYOND) / N.
    """
    n = len(values)
    if n <= MIN_BEYOND:
        return None
    return 100.0 * (n - MIN_BEYOND) / n, sorted(values)[n - MIN_BEYOND - 1]
