"""The benchmark's own arithmetic: percentiles, open-loop latency, and the
per-layer time breakdown.  perfbench/tests/test_stats.py checks all of it."""

import math
import statistics

# Tail percentiles tried from the highest down; a percentile is reported
# only when at least MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly beyond the nearest-rank p-th
    percentile."""
    if n == 0:
        return 0
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(values, wanted=99.0):
    """(p, value, beyond) for the highest percentile <= `wanted` with at least
    MIN_BEYOND samples beyond it; (None, nan, 0) when even p50 has too few."""
    for p in TAIL_LADDER:
        if p > wanted:
            continue
        beyond = samples_beyond(len(values), p)
        if beyond >= MIN_BEYOND:
            return p, percentile(values, p), beyond
    return None, float("nan"), 0


def open_loop_latency(due_s, done_s):
    """Latency of one open-loop request in ms, measured from when it was due
    to be sent (so a stall also charges the requests queued behind it)."""
    return (done_s - due_s) * 1e3


def lateness(due_s, sent_s):
    """How late the generator dispatched a request, in ms (never negative:
    an early dispatch is a generator bug, reported as zero)."""
    return max(0.0, (sent_s - due_s) * 1e3)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_breakdown(wall_ms, layer_spans, child_spans):
    """Splits a traced wall time into layer self times.

    `layer_spans` are (layer, start_ms, end_ms) on the calling thread; they
    do not overlap each other.  `child_spans` are (layer, start_ms, end_ms)
    on any thread, nested inside some layer span (store reads and writes
    issued from inside engine calls, possibly from pool workers).

    A layer span's self time is its duration minus the part of its interval
    that child spans cover; the children's covered time is charged to
    `covered_ms`.  Returns (self_ms by layer, covered_ms, child busy ms by
    layer, unattributed_ms) where

        sum(self_ms.values()) + covered_ms + unattributed_ms == wall_ms.
    """
    self_ms = {}
    covered_total = 0.0
    for layer, start, end in layer_spans:
        inside = [(max(s, start), min(e, end)) for _, s, e in child_spans
                  if s < end and e > start]
        covered = union_length(inside)
        covered_total += covered
        self_ms[layer] = self_ms.get(layer, 0.0) + (end - start) - covered
    busy = {}
    for layer, start, end in child_spans:
        busy[layer] = busy.get(layer, 0.0) + (end - start)
    unattributed = wall_ms - sum(self_ms.values()) - covered_total
    return self_ms, covered_total, busy, unattributed
