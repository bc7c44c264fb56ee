"""Small statistics helpers shared by run.py and its tests."""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence, Tuple


def median(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("median of no values")
    return statistics.median(vals)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them (its default, exclusive method). Needs at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("spread of values whose median is 0")
    return (q3 - q1) / abs(q2)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when there is nothing to divide by (a layer
    the workload never enters)."""
    return num / den if den else 0.0

