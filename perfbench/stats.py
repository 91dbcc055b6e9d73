"""Order statistics shared by the runner and the comparison command."""

from __future__ import annotations

import math
import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "samples": len(values)}
