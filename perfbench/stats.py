"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics

# Percentiles tried for the tail, as hundredths of a percent, highest last.
# The ladder stops at p99: over 27 s windows of one cut_corpus loop, p99
# varied by 5% (interquartile share of the median) but p99.9 by 25% and
# p99.99 by 53%; that deep, the tail measures the shared host's worst
# moments rather than the program.
TAIL_LADDER_BP = (5000, 7500, 9000, 9500, 9900)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], bp: int) -> tuple[float, int]:
    """Nearest-rank percentile ``bp``/100 and the number of samples above it."""
    n = len(sorted_values)
    rank = max(1, -(-bp * n // 10000))
    return sorted_values[rank - 1], n - rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """Latency at the highest ladder percentile with >= 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 20
    samples no ladder step qualifies and the maximum is returned as the
    100th percentile with nothing beyond it.
    """
    ordered = sorted(values)
    best = None
    for bp in TAIL_LADDER_BP:
        value, beyond = nearest_rank(ordered, bp)
        if beyond >= TAIL_MIN_BEYOND:
            best = (value, bp / 100, beyond)
    if best is None:
        return ordered[-1], 100.0, 0
    return best


def p50(values: list[float]) -> float:
    value, _ = nearest_rank(sorted(values), 5000)
    return value


def finite_or(value: float, fallback: float) -> float:
    """JSON has no infinity: a failed op's latency is reported as ``fallback``."""
    return value if math.isfinite(value) else fallback


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
