"""Windowed time-series metrics over the columnar delivery spine.

The paper reports one number per 2-hour run; under a dynamics script
(load bursts, link degradation, churn) the *trajectory* is the result.
This module buckets the run into fixed windows and computes, as
**streaming per-chunk reductions** over the system's chunked column
stores — no per-delivery Python, no whole-log gather, O(chunk) memory
even when the logs are spilled to disk (the log's ``first`` column
already settles each pair, so nothing is carried across chunks but the
per-window accumulators) —

* **published / interested** per window (by publish time, from the
  system's publication log),
* **valid / late deliveries, earning, latency sum** per window (by
  arrival time, from the shared :class:`~repro.pubsub.client.DeliveryLog`:
  the rows its first-arrival mark settles, the same ones the metrics
  ledger counts), and
* optionally **queue depth** per window (mean/max of a
  :class:`QueueDepthSampler`'s probes).

Every series *folds back* to the run's aggregate metrics: counts sum
exactly, ``earning`` sums exactly (the same first arrivals and endpoint
prices the metrics ledger reduces), and
``sum(valid) / sum(interested)`` is exactly the aggregate delivery rate.
The integration tests assert those folds against both stacks' collectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.folds import fold_sum_array
from repro.core.settlement import pair_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pubsub.system import PubSubSystem


@dataclass(frozen=True)
class MetricsTimeSeries:
    """Per-window metric columns over ``[0, horizon)``.

    ``edges`` has ``windows + 1`` entries; window ``w`` covers
    ``[edges[w], edges[w+1])`` except the last, which also absorbs events
    landing exactly on the horizon (the simulator's closed interval).
    """

    window_ms: float
    edges: np.ndarray
    published: np.ndarray
    interested: np.ndarray
    deliveries_valid: np.ndarray
    deliveries_late: np.ndarray
    earning: np.ndarray
    latency_sum_ms: np.ndarray
    queue_depth_mean: np.ndarray | None = None
    queue_depth_max: np.ndarray | None = None

    @property
    def windows(self) -> int:
        return int(self.published.shape[0])

    @property
    def centers_ms(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def delivery_rate(self) -> np.ndarray:
        """Windowed Eq. 1: valid deliveries arriving in the window over
        interested population published in it (0 where nothing was
        publishable, matching the aggregate convention).

        Numerator and denominator are bucketed on different clocks
        (arrival vs publish), which is what makes the fold exact — but it
        also means a single window can transiently exceed 1.0 when a
        backlog of earlier messages drains into it."""
        out = np.zeros(self.windows)
        np.divide(
            self.deliveries_valid, self.interested,
            out=out, where=self.interested > 0,
        )
        return out

    @property
    def mean_latency_ms(self) -> np.ndarray:
        out = np.zeros(self.windows)
        np.divide(
            self.latency_sum_ms, self.deliveries_valid,
            out=out, where=self.deliveries_valid > 0,
        )
        return out

    def totals(self) -> dict[str, float]:
        """The aggregate folds (what the run-level metrics report)."""
        interested = int(self.interested.sum())
        valid = int(self.deliveries_valid.sum())
        return {
            "published": int(self.published.sum()),
            "total_interested": interested,
            "deliveries_valid": valid,
            "deliveries_late": int(self.deliveries_late.sum()),
            # Sequential fold, not .sum(): deliveries land in time order,
            # so folding window subtotals left-to-right is the same
            # grouped chain the ledger's arrival-order fold performs.
            "earning": fold_sum_array(self.earning),
            "delivery_rate": valid / interested if interested else 0.0,
        }


def _window_index(times: np.ndarray, window_ms: float, windows: int) -> np.ndarray:
    idx = (times / window_ms).astype(np.int64)
    # Events exactly at the horizon belong to the last window (run(until)
    # executes them); clip also tolerates float edge jitter.  Events
    # *beyond* the horizon must be masked out by the caller first — clip
    # would silently fold them into the last window.
    return np.clip(idx, 0, windows - 1)


def windowed_metrics(
    system: "PubSubSystem",
    window_ms: float,
    horizon_ms: float | None = None,
    queue_sampler: "QueueDepthSampler | None" = None,
) -> MetricsTimeSeries:
    """Bucket a finished system's run into ``window_ms`` windows.

    ``horizon_ms`` defaults to the simulator clock (the run's end).  Pair
    settlement is the metrics layer's: the log's ``first`` mark picks the
    first arrival of each (message, endpoint) pair, which decides
    valid/late, and later duplicates are ignored.  Events strictly beyond
    the horizon are **excluded** (not clipped into the last window), so a
    truncated horizon folds to the truncated aggregates.

    The whole computation is a streaming reduction over the chunked
    publication and delivery logs — per-chunk partial bincounts and
    ``np.add.at`` into carried accumulators — so peak memory is O(chunk)
    even when the logs live on disk.  Counts and earnings are exact in
    any chunking (integer-valued sums); within a chunk the settled rows
    fold in (message, endpoint) key order, and carried ``add.at``
    accumulation reproduces the whole-array bincount's addition order,
    bit for bit, within each chunking.
    """
    if window_ms <= 0.0:
        raise ValueError("window_ms must be positive")
    horizon = float(horizon_ms if horizon_ms is not None else system.sim.now)
    if horizon <= 0.0:
        raise ValueError("horizon must be positive (has the run started?)")
    windows = max(1, int(np.ceil(horizon / window_ms)))
    edges = np.minimum(np.arange(windows + 1, dtype=np.float64) * window_ms, horizon)

    published = np.zeros(windows, dtype=np.int64)
    interested_f = np.zeros(windows, dtype=np.float64)
    for pub_time, interested in system.publication_chunks():
        inside = pub_time <= horizon
        if not inside.all():
            pub_time, interested = pub_time[inside], interested[inside]
        if not pub_time.shape[0]:
            continue
        w = _window_index(pub_time, window_ms, windows)
        published += np.bincount(w, minlength=windows)
        np.add.at(interested_f, w, interested)
    interested_w = interested_f.astype(np.int64)

    valid_w = np.zeros(windows, dtype=np.int64)
    late_w = np.zeros(windows, dtype=np.int64)
    earning_w = np.zeros(windows, dtype=np.float64)
    latency_w = np.zeros(windows, dtype=np.float64)
    prices = system.endpoint_prices()
    for run_rows, (sub, msg, time, latency, valid, first) in system.delivery_log.iter_runs():
        rows = np.flatnonzero(first)
        if not rows.shape[0]:
            continue
        # msg/time/latency come one value a run: read them through each
        # settled row's run, not expanded to every row.
        runs = np.repeat(np.arange(run_rows.shape[0]), run_rows)[rows]
        # The settled rows in (message, endpoint) key order: the order the
        # per-window sums have always folded them in.
        order = np.argsort(pair_keys(msg[runs], sub[rows]), kind="stable")
        rows, runs = rows[order], runs[order]
        # Settlement happens wherever the first arrival lands; only the
        # bucketing is horizon-masked, so a truncated horizon excludes
        # out-of-horizon events instead of corrupting the last window.
        inside = time[runs] <= horizon
        rows, runs = rows[inside], runs[inside]
        if not rows.shape[0]:
            continue
        s, t, lat, v = sub[rows], time[runs], latency[runs], valid[rows]
        w = _window_index(t, window_ms, windows)
        valid_w += np.bincount(w[v], minlength=windows)
        late_w += np.bincount(w[~v], minlength=windows)
        np.add.at(earning_w, w[v], prices[s[v]])
        np.add.at(latency_w, w[v], lat[v])

    depth_mean = depth_max = None
    if queue_sampler is not None:
        depth_mean, depth_max = queue_sampler.bucketed(window_ms, windows, horizon_ms=horizon)

    return MetricsTimeSeries(
        window_ms=window_ms,
        edges=edges,
        published=published,
        interested=interested_w,
        deliveries_valid=valid_w,
        deliveries_late=late_w,
        earning=earning_w,
        latency_sum_ms=latency_w,
        queue_depth_mean=depth_mean,
        queue_depth_max=depth_max,
    )


class QueueDepthSampler:
    """Periodic probe of the system's total queued entries.

    Attach *before* running: the sampler schedules itself every
    ``every_ms`` from t=0 to the horizon.  Probes only read state — they
    never touch RNG streams or queues, so an instrumented run makes
    exactly the same decisions as a bare one (only the simulator's
    executed-event count grows).
    """

    def __init__(self, system: "PubSubSystem", every_ms: float, horizon_ms: float) -> None:
        if every_ms <= 0.0:
            raise ValueError("every_ms must be positive")
        if horizon_ms <= 0.0:
            raise ValueError("horizon_ms must be positive")
        self.system = system
        self.every_ms = every_ms
        self.horizon_ms = horizon_ms
        self.times: list[float] = []
        self.depths: list[int] = []
        system.sim.schedule_at(0.0, self._sample)

    def _sample(self) -> None:
        sim = self.system.sim
        self.times.append(sim.now)
        self.depths.append(self.system.total_queued())
        if sim.now + self.every_ms <= self.horizon_ms:
            sim.schedule(self.every_ms, self._sample)

    def bucketed(
        self, window_ms: float, windows: int, horizon_ms: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(mean, max) depth per window; windows without probes hold 0.

        Probes beyond ``horizon_ms`` (when given) are excluded rather
        than clipped into the last window."""
        mean = np.zeros(windows)
        mx = np.zeros(windows)
        if not self.times:
            return mean, mx
        times = np.asarray(self.times)
        depths = np.asarray(self.depths, dtype=np.float64)
        if horizon_ms is not None:
            inside = times <= horizon_ms
            times, depths = times[inside], depths[inside]
            if not times.shape[0]:
                return mean, mx
        w = _window_index(times, window_ms, windows)
        counts = np.bincount(w, minlength=windows)
        sums = np.bincount(w, weights=depths, minlength=windows)
        np.divide(sums, counts, out=mean, where=counts > 0)
        np.maximum.at(mx, w, depths)
        return mean, mx
