"""The memory bounds of the report reducers, shared by their guards in
``test_latency.py`` / ``test_timeseries.py`` and by
``benchmarks/bench_micro.py``.

``latency_stats`` pools one float64 per log row (an ``np.empty`` upper
bound, filled chunk by chunk and sorted in place); everything else —
the chunks being read, a chunk's selected part, the mean fold's scratch
block — is bounded by the chunk size, not by the log.

``windowed_metrics`` carries nothing across chunks but its per-window
accumulators: the log's ``first`` column settles each pair, so no set of
settled pair keys grows with the log.

Over a spilled log both hold what they hold over the same log in memory,
plus the one chunk being read (a log in memory already holds it): no
previous chunk, no file buffers.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Callable, TypeVar

import numpy as np

from repro.analysis.latency import LatencyStats, latency_stats
from repro.analysis.timeseries import MetricsTimeSeries, windowed_metrics
from repro.pubsub.client import _LOG_SCHEMA, DeliveryLog, SubscriberHandle
from repro.pubsub.system import PubSubSystem

#: Bytes a delivery-log row takes in a chunk.
LOG_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _LOG_SCHEMA)

#: Allowance of the windowed series beyond its chunks: the per-window
#: accumulators.
WINDOWED_FIXED_BYTES = 64 * 1024

#: Allowance of a reducer over a spilled log beyond its peak over the same
#: log in memory and the one chunk it reads.
SPILLED_SLACK_BYTES = 8 * 1024

T = TypeVar("T")


def _traced_peak(fn: Callable[..., T], *args: Any) -> tuple[T, int]:
    """``fn(*args)`` and the bytes tracemalloc saw it hold at its peak,
    above what was allocated when it was called."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def latency_stats_peak(handles: list[SubscriberHandle]) -> tuple[LatencyStats, int]:
    """``latency_stats(handles)`` and its tracemalloc peak."""
    return _traced_peak(latency_stats, handles)


def latency_stats_peak_bound(log: DeliveryLog) -> int:
    """8 bytes a log row plus two chunks of the log."""
    return 8 * len(log) + 2 * log.chunk_rows * LOG_ROW_BYTES


def windowed_metrics_peak(
    system: PubSubSystem, window_ms: float, horizon_ms: float
) -> tuple[MetricsTimeSeries, int]:
    """``windowed_metrics(system, window_ms, horizon_ms)`` and its
    tracemalloc peak."""
    return _traced_peak(windowed_metrics, system, window_ms, horizon_ms)


def windowed_metrics_peak_bound(log: DeliveryLog) -> int:
    """Five chunks of the log plus :data:`WINDOWED_FIXED_BYTES`: nothing
    that grows with the log's length."""
    return 5 * log.chunk_rows * LOG_ROW_BYTES + WINDOWED_FIXED_BYTES


def spilled_peak_bound(
    in_memory_peak: int, log: DeliveryLog, names: tuple[str, ...] | None = None
) -> int:
    """A reducer's peak over the same log in memory, plus one chunk of
    the ``names`` columns it reads (all by default) and
    :data:`SPILLED_SLACK_BYTES`."""
    row = sum(
        np.dtype(dtype).itemsize for name, dtype in _LOG_SCHEMA if names is None or name in names
    )
    return in_memory_peak + log.chunk_rows * row + SPILLED_SLACK_BYTES
