"""Order statistics used by the benchmark: medians and the tail-percentile rule.

A tail percentile is reported only together with the number of samples that
lie strictly beyond it; a run must hold enough samples that at least
MIN_BEYOND of them do.
"""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def nearest_rank(values, pct: int) -> float:
    """Nearest-rank pct-th percentile (integer pct in 1..100) of `values`."""
    if not 1 <= pct <= 100:
        raise ValueError(f"pct must be in 1..100, got {pct}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (pct * len(ordered) + 99) // 100   # ceil(pct * n / 100), exact
    return ordered[rank - 1]


def tail_percentile(values, pct: int) -> tuple[float, int]:
    """The nearest-rank percentile and the count of samples strictly above it."""
    value = nearest_rank(values, pct)
    return value, sum(1 for v in values if v > value)


def min_samples(pct: int) -> int:
    """Fewest samples for which MIN_BEYOND of them lie above the pct-th percentile."""
    n = MIN_BEYOND
    while n - (pct * n + 99) // 100 < MIN_BEYOND:
        n += 1
    return n


def median(values) -> float:
    return float(statistics.median(values))
