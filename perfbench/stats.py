"""Order statistics and latency accounting used by every workload."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def p50(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, quantile, samples)``.  With ``n`` samples sorted
    ascending, the order statistic at index ``n - TAIL_BEYOND - 1`` has
    exactly ``TAIL_BEYOND`` samples above it; its quantile is reported as
    ``(index + 1) / n``.  A run with ``TAIL_BEYOND`` samples or fewer has
    no such percentile and raises.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(values)
    index = n - TAIL_BEYOND - 1
    return ordered[index], (index + 1) / n, n


def open_loop_latency(due: float, done: float) -> float:
    """Open-loop latency: from when the request was *due*, not sent.

    A generator that falls behind sends late; timing from the send would
    hide the wait the stall imposed.  Timing from the due time counts it.
    """
    return done - due


def lateness(due: float, sent: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent - due)
