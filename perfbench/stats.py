"""Order statistics and span arithmetic used by the benchmark.

Kept free of numpy and of blockinv so the tests in ``perfbench/tests`` can
check the arithmetic on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics

# Percentiles considered for the tail figure, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# A tail percentile is reported only when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10

# The order in which schur.invert_with_fallback tries its pivot formulas.
PIVOT_ORDER = ("via_a", "via_d", "via_b", "via_c")


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def median_ratio(values, refs) -> float:
    """Median of ``values[i] / refs[i]`` over paired samples."""
    values, refs = list(values), list(refs)
    if len(values) != len(refs):
        raise ValueError(f"{len(values)} values but {len(refs)} references")
    return median(v / r for v, r in zip(values, refs))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    rank = math.ceil(pct / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def tail_percentile(values):
    """(pct, value) for the highest of TAIL_PERCENTILES that has at least
    TAIL_MIN_BEYOND samples strictly above its rank, or None."""
    n = len(values)
    best = None
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            best = (pct, percentile(values, pct))
    return best


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / median(values)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its children cover.

    Children may overlap each other (worker threads) and are clipped to the
    parent, so the result is never negative.
    """
    return (end - start) - covered_length(child_intervals, start, end)


def pivot_attempts(outcome) -> int:
    """Formulas one invert_with_fallback call tried.

    ``outcome`` is the returned formula name, or None when the call raised
    after trying all four.
    """
    if outcome is None:
        return len(PIVOT_ORDER)
    return 1 + PIVOT_ORDER.index(outcome)
