"""The post-run report reducers as they were before the columnar rewrite,
frozen verbatim as test-side oracles.

``repro.analysis.latency`` and ``repro.analysis.revenue`` now pool and
group in numpy; these keep the per-endpoint Python forms they replaced
(a dict of per-endpoint sample arrays, ``sorted`` + ``fold_mean`` over
Python floats, one ``handle.valid_count`` per live subscriber), so the
differential in ``test_report_oracle.py`` and the microbenches compare
against what the code *was*, not against itself.  Only the result types
(``LatencyStats``, ``TierRevenue``) are shared with ``src/``.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.analysis.latency import LatencyStats
from repro.analysis.revenue import TierRevenue
from repro.core.chunked import grouped_runs, sorted_contains
from repro.core.folds import fold_mean
from repro.pubsub.client import DeliveryLog, SubscriberHandle
from repro.pubsub.system import PubSubSystem


def frozen_from_samples(samples: list[float]) -> LatencyStats:
    if not samples:
        return LatencyStats(count=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, maximum=0.0)
    ordered = sorted(samples)
    return LatencyStats(
        count=len(ordered),
        mean=fold_mean(ordered),
        p50=frozen_quantile(ordered, 0.50),
        p90=frozen_quantile(ordered, 0.90),
        p99=frozen_quantile(ordered, 0.99),
        maximum=ordered[-1],
    )


def frozen_quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile on a pre-sorted sample."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def frozen_pooled_samples_by_log(
    handles: list[SubscriberHandle], valid_only: bool
) -> dict[tuple[int, int], np.ndarray]:
    by_log: dict[int, tuple[DeliveryLog, set[int]]] = {}
    for h in handles:
        log = h.log
        entry = by_log.setdefault(id(log), (log, set()))
        entry[1].add(h.log_id)
    out: dict[tuple[int, int], list[np.ndarray]] = defaultdict(list)
    for log_key, (log, wanted) in by_log.items():
        wanted_arr = np.fromiter(wanted, dtype=np.int64, count=len(wanted))
        wanted_arr.sort()
        for sub, latency, valid in log.iter_chunks(("sub_id", "latency", "valid")):
            if valid_only:
                sub, latency = sub[valid], latency[valid]
            if not sub.shape[0]:
                continue
            hit = sorted_contains(wanted_arr, sub)
            if not hit.any():
                continue
            sub, latency = sub[hit], latency[hit]
            order, s_sorted, starts, stops = grouped_runs(sub)
            lat_sorted = latency[order]
            for a, b in zip(starts.tolist(), stops.tolist()):
                out[(log_key, int(s_sorted[a]))].append(lat_sorted[a:b])
    return {
        key: np.concatenate(parts) if len(parts) > 1 else parts[0]
        for key, parts in out.items()
    }


def frozen_latency_stats(
    handles: list[SubscriberHandle], valid_only: bool = True
) -> LatencyStats:
    pooled = frozen_pooled_samples_by_log(handles, valid_only)
    samples = [s for arr in pooled.values() for s in arr.tolist()]
    return frozen_from_samples(samples)


def _pooled_key(handle: SubscriberHandle) -> tuple[int, int]:
    return (id(handle.log), handle.log_id)


def frozen_latency_by_subscriber(
    handles: list[SubscriberHandle], valid_only: bool = True
) -> dict[str, LatencyStats]:
    pooled = frozen_pooled_samples_by_log(handles, valid_only)
    empty = np.empty(0)
    return {
        h.name: frozen_from_samples(pooled.get(_pooled_key(h), empty).tolist())
        for h in handles
    }


def frozen_deadline_margins(
    handles: list[SubscriberHandle], deadline_ms: float
) -> list[float]:
    if deadline_ms <= 0.0:
        raise ValueError("deadline_ms must be positive")
    pooled = frozen_pooled_samples_by_log(handles, valid_only=True)
    empty = np.empty(0)
    return [
        deadline_ms - sample
        for h in handles
        for sample in pooled.get(_pooled_key(h), empty).tolist()
    ]


def frozen_revenue_by_tier(system: PubSubSystem) -> list[TierRevenue]:
    """Live subscribers only — under churn this loses the revenue of
    every endpoint that left, which is the bug the rewrite fixes; it is
    the oracle for runs without churn."""
    buckets: dict[tuple[float, float | None], dict[str, float]] = {}
    for name, handle in system.subscribers.items():
        subscription = system.subscription(name)
        price = subscription.price if subscription.price is not None else 1.0
        key = (price, subscription.deadline_ms)
        bucket = buckets.setdefault(key, {"subs": 0, "valid": 0})
        bucket["subs"] += 1
        bucket["valid"] += handle.valid_count
    out = [
        TierRevenue(
            price=price,
            deadline_ms=deadline,
            subscribers=int(b["subs"]),
            valid_deliveries=int(b["valid"]),
            revenue=price * b["valid"],
        )
        for (price, deadline), b in buckets.items()
    ]
    out.sort(key=lambda t: (-t.price, t.deadline_ms if t.deadline_ms is not None else 0.0))
    return out
