"""Pure arithmetic shared by the benchmark: percentiles, open-loop
latency, span accounting and reconciliation.

Kept free of any I/O and of the program under test so the self-tests
in ``test_perfbench.py`` can pin every rule the benchmark reports by.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

#: A reported percentile must have at least this many samples beyond it.
MIN_BEYOND = 10

#: Percentiles the benchmark may report, highest first.
_TAILS = (99.9, 99.0, 90.0, 50.0)


def _rank(n: int, p: float) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it (always a real sample)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``p``-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float:
    """The highest reportable percentile for ``n`` samples: the
    highest of p99.9/p99/p90/p50 with at least :data:`MIN_BEYOND`
    samples beyond it."""
    for p in _TAILS:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    raise ValueError(
        f"{n} samples support no percentile with {MIN_BEYOND} beyond it"
    )


def checked_percentile(values: Sequence[float], p: float) -> float:
    """:func:`percentile`, refusing a ``p`` the sample cannot support."""
    if beyond(len(values), p) < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it"
        )
    return percentile(values, p)


def due_latency(due: float, done: float) -> float:
    """Open-loop latency: from when the request was *due* to be sent,
    not from when the generator got round to sending it, so a stall
    in either the generator or the server counts against every
    request queued behind it."""
    return done - due


def send_lag(due: float, sent: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent - due)


def reconcile(total: float, parts: Mapping[str, float]) -> float:
    """The unattributed rest: ``total`` minus the named parts. The
    parts plus the returned ``other`` equal ``total`` by construction;
    callers check that ``other`` is small relative to ``total``."""
    return total - math.fsum(parts.values())


def idle_time(
    intervals: Iterable[tuple[float, float]], start: float, end: float
) -> float:
    """Time within ``[start, end]`` covered by none of ``intervals``
    (one worker's busy spans), measured independently of their sum so
    that busy + idle = window is a real check, not an identity."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    idle = 0.0
    cursor = start
    for a, b in clipped:
        if a > cursor:
            idle += a - cursor
        cursor = max(cursor, b)
    if end > cursor:
        idle += end - cursor
    return idle

