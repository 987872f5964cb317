"""The memory bound of ``latency_stats``, shared by its guard in
``test_latency.py`` and by ``benchmarks/bench_micro.py``.

The pooled sample is one float64 per log row (an ``np.empty`` upper
bound, filled chunk by chunk and sorted in place); everything else —
the chunks being read, a chunk's selected part, the mean fold's scratch
block — is bounded by the chunk size, not by the log.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.analysis.latency import LatencyStats, latency_stats
from repro.pubsub.client import _LOG_SCHEMA, DeliveryLog, SubscriberHandle

#: Bytes a delivery-log row takes in a chunk.
LOG_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _LOG_SCHEMA)


def latency_stats_peak(handles: list[SubscriberHandle]) -> tuple[LatencyStats, int]:
    """``latency_stats(handles)`` and the bytes tracemalloc saw it hold at
    its peak, above what was allocated when it was called."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stats = latency_stats(handles)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return stats, peak


def latency_stats_peak_bound(log: DeliveryLog) -> int:
    """8 bytes a log row plus two chunks of the log."""
    return 8 * len(log) + 2 * log.chunk_rows * LOG_ROW_BYTES
