"""Summary statistics shared by ``run.py`` and the workloads.

Standard library only: ``run.py`` imports this module
without numpy, and the workloads use the same helpers so every
percentile in a result is computed one way.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation between
    order statistics -- the definition ``numpy.percentile`` uses by
    default.  Raises ``ValueError`` on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def linear_fit(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares ``y = intercept + slope * x`` over ``(x, y)``
    points.  Needs at least two distinct ``x`` values."""
    count = len(points)
    mean_x = sum(x for x, _ in points) / count
    mean_y = sum(y for _, y in points) / count
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0.0:
        raise ValueError("linear fit needs at least two distinct x values")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    return mean_y - slope * mean_x, slope


def tracing_overhead(pairs: Sequence[Tuple[float, float]]) -> dict:
    """Overhead of tracing from paired ``(untraced_s, traced_s)`` runs
    of identical work: traced over untraced wall time, minus one.  The
    spread is the interquartile range of the per-pair overheads; when it
    is wider than the overhead itself, the overhead is unresolved."""
    untraced = sum(u for u, _ in pairs)
    traced = sum(t for _, t in pairs)
    overhead = traced / untraced - 1.0
    per_pair = [t / u - 1.0 for u, t in pairs]
    spread = percentile(per_pair, 75) - percentile(per_pair, 25)
    return {
        "overhead_frac": overhead,
        "pair_spread": spread,
        "pairs": len(pairs),
        "resolved": spread <= abs(overhead),
    }
