"""Delivery-latency distributions.

Every reducer streams each backing :class:`DeliveryLog` once and does its
selecting, pooling and grouping in numpy: per chunk one boolean row mask
(validity, plus an endpoint lookup table when the handles are not every
endpoint of the log), never a slice or a Python float per endpoint.
Quantiles are read off the ascending sample, so results are independent
of chunk boundaries and byte-identical to the per-handle gathers they
replaced.

Memory: every row of a log append shares one latency (the log stores it
once, as a run), so :func:`latency_stats` pools one ``(latency, selected
rows)`` pair a run, sorts the pairs and reads the quantiles by counting;
the mean folds the ascending sample block by block
(:func:`~repro.core.folds.fold_sum_runs`).  Its sample costs a few words
a run, independent of the rows a run holds, plus O(chunk) scratch.  The
per-endpoint reducers pool one float64 a selected row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.folds import fold_sum_array, fold_sum_runs
from repro.core.growable import GrowableArray
from repro.pubsub.client import DeliveryLog, SubscriberHandle, endpoints_by_log


@dataclass(frozen=True, slots=True)
class LatencyStats:
    """Summary of a latency sample (milliseconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float] | np.ndarray) -> "LatencyStats":
        # Values only, so the (vectorised, unstable) default sort is exact:
        # equal floats are interchangeable.
        return cls.from_sorted(np.sort(np.asarray(samples, dtype=np.float64)))

    @classmethod
    def from_sorted(cls, ordered: np.ndarray) -> "LatencyStats":
        """Summary of an ascending float64 sample (not copied)."""
        count = ordered.shape[0]
        if not count:
            return cls(count=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, maximum=0.0)
        return cls(
            count=count,
            # The left fold over the ascending sample (RL006).
            mean=fold_sum_array(ordered) / count,
            p50=_quantile(ordered, 0.50),
            p90=_quantile(ordered, 0.90),
            p99=_quantile(ordered, 0.99),
            maximum=float(ordered[-1]),
        )

    @classmethod
    def from_sorted_runs(cls, values: np.ndarray, counts: np.ndarray) -> "LatencyStats":
        """Summary of the ascending sample ``np.repeat(values, counts)``
        (``values`` ascending, ``counts`` positive), equal to
        :meth:`from_sorted` over it bit for bit, without expanding it."""
        ends = np.cumsum(counts)
        if not ends.shape[0]:
            return cls.from_sorted(np.empty(0))
        ordered = _RunSample(values, ends)
        count = len(ordered)
        return cls(
            count=count,
            # The same left fold over the same ascending sample (RL006).
            mean=fold_sum_runs(values, counts) / count,
            p50=_quantile(ordered, 0.50),
            p90=_quantile(ordered, 0.90),
            p99=_quantile(ordered, 0.99),
            maximum=float(values[-1]),
        )


class _RunSample:
    """An ascending sample held as runs: ``values[i]`` repeated up to
    row ``ends[i]``; indexing finds an element's run by binary search."""

    __slots__ = ("_values", "_ends")

    def __init__(self, values: np.ndarray, ends: np.ndarray) -> None:
        self._values = values
        self._ends = ends

    def __len__(self) -> int:
        return int(self._ends[-1])

    def __getitem__(self, k: int) -> np.float64:
        return self._values[int(np.searchsorted(self._ends, k, side="right"))]


def _quantile(ordered: Sequence[float] | np.ndarray | _RunSample, q: float) -> float:
    """Linear-interpolation quantile on a pre-sorted sample."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def _wanted(log: DeliveryLog, ids: np.ndarray) -> np.ndarray | None:
    """The endpoint lookup table of ``ids`` (duplicates select once), or
    ``None`` when they are every endpoint of the log."""
    wanted = np.zeros(log.endpoint_count, dtype=bool)
    wanted[ids] = True
    return None if wanted.all() else wanted


def _row_mask(
    wanted: np.ndarray | None, sub: np.ndarray, valid: np.ndarray, valid_only: bool
) -> np.ndarray | None:
    """The rows of one chunk addressed to the ``wanted`` endpoints (valid
    ones only on request); ``None`` for every row."""
    if wanted is None:
        return valid if valid_only else None
    mask = wanted[sub]
    if valid_only:
        mask &= valid
    return mask


def _selected_rows(
    log: DeliveryLog, ids: np.ndarray, valid_only: bool
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | slice]]:
    """One streaming pass: per chunk ``(sub_id, latency, mask)``, the mask
    selecting the rows addressed to the endpoints ``ids`` (valid ones
    only on request)."""
    wanted = _wanted(log, ids)
    for sub, latency, valid in log.iter_chunks(("sub_id", "latency", "valid")):
        mask = _row_mask(wanted, sub, valid, valid_only)
        yield sub, latency, slice(None) if mask is None else mask


def _selected_runs(
    log: DeliveryLog, ids: np.ndarray, valid_only: bool
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One streaming pass: per chunk ``(latency, selected)``, one latency
    a run and how many of the run's rows the endpoints ``ids`` select
    (valid ones only on request)."""
    wanted = _wanted(log, ids)
    for run_rows, (sub, latency, valid) in log.iter_runs(("sub_id", "latency", "valid")):
        mask = _row_mask(wanted, sub, valid, valid_only)
        if mask is None:
            yield latency, run_rows
        else:
            # Every run holds a row, so the run starts are distinct.
            starts = np.cumsum(run_rows) - run_rows
            yield latency, np.add.reduceat(mask, starts, dtype=np.int64)


def _pool(
    log: DeliveryLog,
    ids: np.ndarray,
    valid_only: bool,
    latencies: np.ndarray,
    subs: np.ndarray,
) -> int:
    """Write the selected rows' latencies and endpoint ids into the
    buffers, in log order; returns the rows written.  The buffers must
    have room for every row of the log."""
    at = 0
    for sub, latency, mask in _selected_rows(log, ids, valid_only):
        part = latency[mask]
        end = at + part.shape[0]
        latencies[at:end] = part
        subs[at:end] = sub[mask]
        at = end
    return at


def latency_stats(
    handles: list[SubscriberHandle], valid_only: bool = True
) -> LatencyStats:
    """Pooled latency stats over a set of subscriber endpoints.

    Streams each backing log once, pooling one ``(latency, selected
    rows)`` pair a run, and sorts the pairs by latency; sorting makes
    pooling in chunk order result-identical to pooling in handle order."""
    values, counts = GrowableArray(np.float64), GrowableArray(np.int64)
    for log, ids in endpoints_by_log(handles):
        for latency, selected in _selected_runs(log, ids, valid_only):
            values.extend(latency)
            counts.extend(selected)
    value, count = values.view(), counts.view()
    kept = np.flatnonzero(count)
    # Equal latencies are interchangeable, so the sort need not be stable.
    order = kept[np.argsort(value[kept])]
    return LatencyStats.from_sorted_runs(value[order], count[order])


class _SamplesByEndpoint:
    """Latency samples of the requested endpoints, grouped per endpoint
    in arrival order: per backing log one CSR pair ``(offsets, values)``
    from a single stable argsort of the selected ``sub_id`` rows."""

    def __init__(self, handles: list[SubscriberHandle], valid_only: bool) -> None:
        self._by_log: dict[DeliveryLog, tuple[np.ndarray, np.ndarray]] = {}
        for log, ids in endpoints_by_log(handles):
            latencies = np.empty(len(log))
            subs = np.empty(len(log), dtype=np.int32)
            count = _pool(log, ids, valid_only, latencies, subs)
            sub = subs[:count]
            offsets = np.zeros(log.endpoint_count + 1, dtype=np.int64)
            np.cumsum(np.bincount(sub, minlength=log.endpoint_count), out=offsets[1:])
            values = latencies[:count][np.argsort(sub, kind="stable")]
            self._by_log[log] = offsets, values

    def of(self, handle: SubscriberHandle) -> np.ndarray:
        offsets, values = self._by_log[handle.log]
        return values[offsets[handle.log_id]:offsets[handle.log_id + 1]]


def latency_by_subscriber(
    handles: list[SubscriberHandle], valid_only: bool = True
) -> dict[str, LatencyStats]:
    """Per-subscriber latency stats (subscribers with no deliveries included
    with an empty summary, so tier comparisons stay total).  One chunk
    stream per backing log, not one log scan per subscriber."""
    samples = _SamplesByEndpoint(handles, valid_only)
    return {h.name: LatencyStats.from_samples(samples.of(h)) for h in handles}


def deadline_margins(
    handles: list[SubscriberHandle], deadline_ms: float
) -> list[float]:
    """``deadline − latency`` per valid delivery against a common deadline,
    handle-major, arrival order within each handle.

    Positive margins are slack; the left tail shows how close the scheduler
    runs to the bound (EB runs much closer than FIFO — it spends slack on
    rescuing other messages).
    """
    if deadline_ms <= 0.0:
        raise ValueError("deadline_ms must be positive")
    if not handles:
        return []
    samples = _SamplesByEndpoint(handles, valid_only=True)
    return (deadline_ms - np.concatenate([samples.of(h) for h in handles])).tolist()
