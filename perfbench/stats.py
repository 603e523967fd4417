"""Summary statistics shared by the runner, the compare mode and the self-tests."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10
RATE_WINDOWS = 5


def tail(latencies) -> tuple[float, float, int, int]:
    """The tail sample at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond, sample count). With n
    samples sorted, the nearest-rank percentile 100 * (n - 10) / n is
    the sample of rank n - 10, and exactly 10 samples lie above that
    rank. Runs too short to leave 10 samples report their maximum.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0, n
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n - rank, n


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def ops_per_s(latencies, oks) -> float:
    """Correct ops per second of timed time, as the median over
    RATE_WINDOWS consecutive runs of ops.

    latencies are in seconds, NaN for an op that raised. A slow spell of
    the host that covers less than half the run moves a mean but not
    this median.
    """
    n = len(oks)
    rates = []
    for k in range(RATE_WINDOWS):
        lo, hi = n * k // RATE_WINDOWS, n * (k + 1) // RATE_WINDOWS
        busy = sum(x for x in latencies[lo:hi] if not math.isnan(x))
        if busy:
            rates.append(sum(oks[lo:hi]) / busy)
    return statistics.median(rates) if rates else 0.0
