"""Summary statistics shared by every workload.

Timings are reported as a median plus a tail: the highest percentile of a
fixed ladder that still has at least ``MIN_BEYOND`` samples beyond it, so a
tail figure never rests on a handful of outliers. Serving goodput counts
a request as good only when it succeeded within the latency limit.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: percentiles a tail figure may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail figure with the percentile and sample count behind it."""

    value: float
    percentile: float
    n_samples: int
    n_beyond: int


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` in ``n`` samples."""
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[min(_rank(q, len(ordered)), len(ordered)) - 1]


def tail(values) -> Tail | None:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples
    strictly above its nearest rank; ``None`` when no rung qualifies (fewer
    than ``MIN_BEYOND + 1`` samples, or a sample too small for the p50)."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for q in PERCENTILE_LADDER:
        if n == 0:
            break
        rank = _rank(q, n)
        beyond = n - rank
        if beyond >= MIN_BEYOND:
            best = Tail(ordered[rank - 1], q, n, beyond)
    return best


def median(values) -> float:
    return float(statistics.median(values))


def goodput(outcomes, limit_s: float, seconds: float) -> float:
    """Good answers per second: status 200 within ``limit_s``.

    ``outcomes`` holds ``(status, latency_s)`` pairs; a failed or refused
    request (any other status, or ``status`` ``None`` for a transport
    error) counts as a miss whatever its latency.
    """
    if seconds <= 0:
        raise ValueError("goodput needs a positive measuring time")
    good = sum(
        1
        for status, latency in outcomes
        if status == 200 and latency is not None and latency <= limit_s
    )
    return good / seconds
