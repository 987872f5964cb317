"""The memory bounds of the report reducers, shared by their guards in
``test_latency.py`` / ``test_timeseries.py`` and by
``benchmarks/bench_micro.py``.

The bounds are stated in :data:`LOG_RECORD_BYTES`, the 26 bytes of one
delivery record with every column one value a row — the width the log
stored until it kept ``msg_id``/``time``/``latency`` once an append — so
that no bound moved in absolute bytes when the log got narrower.

``latency_stats`` pools a few words a run of the log (one latency and
one selected-row count, sorted and counted), plus one chunk of scratch
and the mean fold's block: nothing that grows with the rows a run holds.

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
from repro.core.folds import FOLD_BLOCK
from repro.pubsub.client import DeliveryLog, SubscriberHandle
from repro.pubsub.system import PubSubSystem
from tests.core.frozen_log import FROZEN_SCHEMA as LOG_RECORD

#: One delivery record, every column one value a row (the frozen
#: per-row store's schema): the width the bounds are stated in.
LOG_RECORD_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in LOG_RECORD)

#: What the log stores at most: 6 bytes a row (``sub_id``, ``valid``,
#: ``first``) and 24 bytes a run (its row count, ``msg_id``, ``time``,
#: ``latency``).
STORED_ROW_BYTES = 6
STORED_RUN_BYTES = 24

#: Allowance of ``latency_stats`` a run of the log: the pooled latency
#: and count, their sort order and sorted copies, the run ends.
LATENCY_RUN_BYTES = 160

#: The mean fold's block (``fold_sum_runs``): one float64 an element.
FOLD_BLOCK_BYTES = 8 * (FOLD_BLOCK + 1)

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
    """:data:`LATENCY_RUN_BYTES` a run of the log, one chunk of records
    and the fold's block: independent of the log's rows."""
    return (
        LATENCY_RUN_BYTES * log.run_count + log.chunk_rows * LOG_RECORD_BYTES
        + FOLD_BLOCK_BYTES
    )


def stored_bytes_bound(log: DeliveryLog) -> int:
    """:data:`STORED_ROW_BYTES` a row plus :data:`STORED_RUN_BYTES` a run."""
    return STORED_ROW_BYTES * len(log) + STORED_RUN_BYTES * log.run_count


def windowed_metrics_peak(
    system: PubSubSystem, window_ms: float, horizon_ms: float
) -> tuple[MetricsTimeSeries, int]:
    """``windowed_metrics(system, window_ms, horizon_ms)`` and its
    tracemalloc peak."""
    return _traced_peak(windowed_metrics, system, window_ms, horizon_ms)


def windowed_metrics_peak_bound(log: DeliveryLog) -> int:
    """Five chunks of the log plus :data:`WINDOWED_FIXED_BYTES`: nothing
    that grows with the log's length."""
    return 5 * log.chunk_rows * LOG_RECORD_BYTES + WINDOWED_FIXED_BYTES


def spilled_peak_bound(
    in_memory_peak: int, log: DeliveryLog, names: tuple[str, ...] | None = None
) -> int:
    """A reducer's peak over the same log in memory, plus one chunk of
    the ``names`` columns it reads (all by default) and
    :data:`SPILLED_SLACK_BYTES`."""
    row = sum(
        np.dtype(dtype).itemsize for name, dtype in LOG_RECORD if names is None or name in names
    )
    return in_memory_peak + log.chunk_rows * row + SPILLED_SLACK_BYTES
