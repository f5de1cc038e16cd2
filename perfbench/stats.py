"""Percentiles and the tail rule used for every reported timing.

A timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it (a p99 from 200 samples rests
on two values, so it is not reported as a p99).  Below p90 a percentile
is no longer a tail; with fewer than 100 samples the tail is the
slowest sample, labelled ``max``.
"""

from __future__ import annotations

import math

#: Percentiles a tail may be named as, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return math.floor(count * (100.0 - pct) / 100.0 + 1e-9)


def tail_percentile(count: int, highest: float = LADDER[0]) -> float | None:
    """The highest ladder percentile, at most ``highest``, with at
    least ten of ``count`` samples beyond it (None when even p90 has
    fewer)."""
    for pct in LADDER:
        if pct <= highest and beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def tail(values, highest: float | None) -> tuple[str, float]:
    """``(label, value)`` of the tail of ``values``: the percentile
    ``highest`` when the samples support it, else the highest one they
    do support, else the maximum (labelled ``max``; also what
    ``highest=None`` asks for)."""
    pct = None if highest is None else tail_percentile(len(values), highest)
    if pct is None:
        return "max", max(values)
    return f"p{pct:g}", percentile(values, pct)


def median(values) -> float:
    return percentile(values, 50.0)
