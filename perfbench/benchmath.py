"""The benchmark's own arithmetic: percentiles, lateness and self time.

Everything here is a pure function of its arguments so the unit tests in
``perfbench/tests`` can pin it down without a daemon or a clock.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer and one outlier decides the figure.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* (0 < q <= 100) of *values*.

    Nearest rank returns a value that was actually observed, so a p99 over
    a stall reports the stall rather than an interpolation toward it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def window_percentiles(stamped: Iterable[Tuple[float, float]], q: float,
                       width: float) -> List[float]:
    """Percentile *q* within each *width*-second window of ``(seconds,
    value)`` samples, one figure per window in time order.  A window with
    fewer than ``MIN_BEYOND`` samples beyond *q* gives no figure.

    Host speed on a small VM swings from one second to the next, so one
    percentile over a whole run lands wherever the slow and fast
    stretches happen to meet; per-window figures keep them apart.
    """
    windows: dict = {}
    for at, value in stamped:
        windows.setdefault(int(at // width), []).append(value)
    return [percentile(windows[k], q) for k in sorted(windows)
            if samples_beyond(len(windows[k]), q) >= MIN_BEYOND]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie strictly beyond percentile *q*."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supported_tail(count: int, candidates: Iterable[float] = TAIL_CANDIDATES) -> Optional[float]:
    """The highest candidate percentile with ``MIN_BEYOND`` samples past it."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def lateness_us(due_ns: Sequence[int], sent_ns: Sequence[int]) -> List[float]:
    """Per-request generator lateness: how long after its due time each
    request actually left.  Never negative -- a request is never sent early."""
    if len(due_ns) != len(sent_ns):
        raise ValueError("due and sent timestamps must pair up")
    out = []
    for due, sent in zip(due_ns, sent_ns):
        if sent < due:
            raise ValueError("a request was sent before it was due")
        out.append((sent - due) / 1000.0)
    return out


def latencies_from_due_us(
    due_ns: Sequence[int], done_ns: Sequence[Optional[int]], missing_us: float = math.inf
) -> List[float]:
    """End-to-end latency of each request, timed from when it was *due*.

    A request with no successful completion (``None``: refused, failed or
    never answered) counts as *missing_us*, i.e. as missing every latency
    limit, so a refusal can never improve a percentile.
    """
    if len(due_ns) != len(done_ns):
        raise ValueError("due and completion timestamps must pair up")
    return [
        missing_us if done is None else (done - due) / 1000.0
        for due, done in zip(due_ns, done_ns)
    ]


def backlog_growth(due_ns: Sequence[int], done_ns: Sequence[Optional[int]], lo: int, hi: int,
                   samples: int = 64) -> float:
    """How much the open-loop backlog grew over ``[lo, hi)``.

    The backlog at an instant is the number of requests already due but
    not yet answered; a request never answered stays in it.  It is
    sampled at *samples* evenly spaced instants, and the result is its
    median over the last quarter of them minus its median over the first
    quarter.  Medians, so one collector pause near either end does not
    read as growth.  A daemon that keeps up gives about zero; one offered
    more than it can serve gives a backlog that climbs through the phase.
    """
    if hi <= lo or samples < 4:
        raise ValueError("need a non-empty window and at least 4 samples")
    due = sorted(due_ns)
    done = sorted(ns for ns in done_ns if ns is not None)
    step = (hi - lo) / samples
    backlog = [
        bisect_right(due, t) - bisect_right(done, t)
        for t in (lo + (k + 0.5) * step for k in range(samples))
    ]
    quarter = samples // 4
    return median(backlog[-quarter:]) - median(backlog[:quarter])


# -- self time -------------------------------------------------------------------

def covered_length(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``.

    Children may overlap each other (a span recorded around a call that
    itself fanned out), so their durations cannot simply be summed.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0
    cur_a: Optional[int] = None
    cur_b = 0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times_ns(starts: Sequence[int], ends: Sequence[int],
                  parents: Sequence[int]) -> List[int]:
    """Each span's duration minus the part of it its child spans cover.

    Spans come as columns; ``parents[i]`` is the index of span *i*'s
    parent, or -1 for a root.
    """
    children: dict = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    own = [end - start for start, end in zip(starts, ends)]
    for parent, spans in children.items():
        own[parent] -= covered_length(spans, starts[parent], ends[parent])
    return own
