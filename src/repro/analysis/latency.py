"""Delivery-latency distributions.

Every reducer streams each backing :class:`DeliveryLog` once and does its
selecting, pooling and grouping in numpy: per chunk one boolean row mask
(validity, plus an endpoint lookup table when the handles are not every
endpoint of the log), never a slice or a Python float per endpoint.
Quantiles sort the pooled sample, so results are independent of chunk
boundaries and byte-identical to the per-handle gathers they replaced.

Memory: the pooled path holds one float64 per selected delivery (plus
the sort's and the mean fold's same-sized temporaries) — 8 bytes a row
where the Python-float lists it replaced cost 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.folds import fold_sum_array
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
        ordered = np.sort(np.asarray(samples, dtype=np.float64))
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


def _quantile(ordered: Sequence[float] | np.ndarray, q: float) -> float:
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


def _selected_rows(
    log: DeliveryLog, ids: np.ndarray, valid_only: bool
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | slice]]:
    """One streaming pass: per chunk ``(sub_id, latency, mask)``, the mask
    selecting the rows addressed to the endpoints ``ids`` (valid ones
    only on request).  Duplicate ids select their rows once."""
    wanted = np.zeros(log.endpoint_count, dtype=bool)
    wanted[ids] = True
    every_endpoint = bool(wanted.all())
    for sub, latency, valid in log.iter_chunks(("sub_id", "latency", "valid")):
        if every_endpoint:
            mask = valid if valid_only else slice(None)
        else:
            mask = wanted[sub]
            if valid_only:
                mask &= valid
        yield sub, latency, mask


def latency_stats(
    handles: list[SubscriberHandle], valid_only: bool = True
) -> LatencyStats:
    """Pooled latency stats over a set of subscriber endpoints.

    Streams each backing log once; the pooled sample is sorted before
    summarising, so pooling in chunk order is result-identical to
    pooling in handle order."""
    parts = [
        latency[mask]
        for log, ids in endpoints_by_log(handles)
        for _, latency, mask in _selected_rows(log, ids, valid_only)
    ]
    return LatencyStats.from_samples(np.concatenate(parts) if parts else ())


class _SamplesByEndpoint:
    """Latency samples of the requested endpoints, grouped per endpoint
    in arrival order: per backing log one CSR pair ``(offsets, values)``
    from a single stable argsort of the selected ``sub_id`` rows."""

    def __init__(self, handles: list[SubscriberHandle], valid_only: bool) -> None:
        self._by_log: dict[DeliveryLog, tuple[np.ndarray, np.ndarray]] = {}
        for log, ids in endpoints_by_log(handles):
            subs, latencies = [np.empty(0, dtype=np.int64)], [np.empty(0)]
            for sub, latency, mask in _selected_rows(log, ids, valid_only):
                subs.append(sub[mask])
                latencies.append(latency[mask])
            sub = np.concatenate(subs)
            offsets = np.zeros(log.endpoint_count + 1, dtype=np.int64)
            np.cumsum(np.bincount(sub, minlength=log.endpoint_count), out=offsets[1:])
            values = np.concatenate(latencies)[np.argsort(sub, kind="stable")]
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
