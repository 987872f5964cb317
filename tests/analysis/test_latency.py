"""Latency analysis tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.latency import (
    LatencyStats,
    _quantile,
    deadline_margins,
    latency_by_subscriber,
    latency_stats,
)
from repro.core.chunked import DEFAULT_CHUNK_ROWS
from repro.pubsub.client import DeliveryLog, SubscriberHandle
from tests.analysis.frozen_report import (
    frozen_deadline_margins,
    frozen_latency_by_subscriber,
    frozen_latency_stats,
)
from tests.analysis.memory import (
    latency_stats_peak,
    latency_stats_peak_bound,
    spilled_peak_bound,
)


def handle(name: str, latencies: list[float], valid: bool = True) -> SubscriberHandle:
    h = SubscriberHandle(name)
    for i, lat in enumerate(latencies):
        h.record(msg_id=i, time=lat, latency_ms=lat, valid=valid)
    return h


class TestQuantile:
    def test_exact_positions(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _quantile(xs, 0.0) == 1.0
        assert _quantile(xs, 0.5) == 3.0
        assert _quantile(xs, 1.0) == 5.0

    def test_interpolation(self):
        assert _quantile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_single_sample(self):
        assert _quantile([7.0], 0.9) == 7.0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            _quantile([1.0], 1.5)


class TestLatencyStats:
    @pytest.mark.parametrize("seed", range(6))
    def test_from_sorted_runs_is_from_sorted_over_the_expansion(self, seed):
        rng = np.random.default_rng(seed)
        runs = int(rng.integers(1, 60))
        values = np.sort(rng.choice([250.0, 1e3, 0.0], runs) + rng.uniform(0, 5e3, runs) * (seed % 2))
        counts = rng.integers(1, 1_000, runs)
        expanded = LatencyStats.from_sorted(np.repeat(values, counts))
        assert LatencyStats.from_sorted_runs(values, counts) == expanded

    def test_from_sorted_runs_of_nothing_is_empty(self):
        empty = LatencyStats.from_sorted_runs(np.empty(0), np.empty(0, dtype=np.int64))
        assert empty == LatencyStats.from_samples([])

    def test_from_samples(self):
        stats = LatencyStats.from_samples([100.0, 200.0, 300.0, 400.0])
        assert stats.count == 4
        assert stats.mean == 250.0
        assert stats.p50 == pytest.approx(250.0)
        assert stats.maximum == 400.0
        assert stats.p90 <= stats.p99 <= stats.maximum

    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0 and stats.mean == 0.0

    def test_pooled_over_handles(self):
        stats = latency_stats([handle("S1", [100.0]), handle("S2", [300.0])])
        assert stats.count == 2
        assert stats.mean == 200.0

    def test_valid_only_filter(self):
        h = handle("S1", [100.0])
        h.record(msg_id=99, time=0.0, latency_ms=9_000.0, valid=False)
        assert latency_stats([h]).count == 1
        assert latency_stats([h], valid_only=False).count == 2

    def test_by_subscriber_includes_empty(self):
        out = latency_by_subscriber([handle("S1", [50.0]), handle("S2", [])])
        assert out["S1"].count == 1
        assert out["S2"].count == 0


def logged(rows: int, chunk_rows: int, spill: bool, endpoints: int = 300):
    """A log of ``rows`` deliveries in batches of 1 000 over ``endpoints``
    handles, about a tenth late, latencies tied often."""
    log = DeliveryLog(chunk_rows=chunk_rows, spill=spill)
    first = log.register_many([f"S{i}" for i in range(endpoints)], [1.0] * endpoints)
    handles = [SubscriberHandle(f"S{i}", log=log, log_id=first + i) for i in range(endpoints)]
    rng = np.random.default_rng(rows + chunk_rows)
    for msg_id in range(rows // 1_000):
        latency = float(rng.choice([250.0, 1e3])) if msg_id % 3 else float(rng.uniform(0, 5e3))
        log.append_batch(
            rng.integers(0, endpoints, 1_000), msg_id, float(msg_id), latency,
            rng.random(1_000) < 0.9,
        )
    return log, handles


class TestPooledSample:
    """One pooled (latency, selected rows) pair a log run, sorted and
    counted: the same stats as the frozen per-endpoint form, in a few
    words a run plus chunk-sized scratch, whatever the rows a run holds."""

    @pytest.mark.parametrize("spill", [False, True])
    def test_equals_the_frozen_form(self, spill):
        log, handles = logged(20_000, 512, spill)
        assert log.spilled_chunks == (39 if spill else 0)
        subset = handles[::3] + handles[:2]
        for selected in (handles, subset):
            for valid_only in (True, False):
                assert latency_stats(selected, valid_only) == frozen_latency_stats(
                    selected, valid_only
                )
                assert latency_by_subscriber(selected, valid_only) == (
                    frozen_latency_by_subscriber(selected, valid_only)
                )
            assert deadline_margins(selected, 2e3) == frozen_deadline_margins(selected, 2e3)

    @pytest.mark.parametrize(
        "chunk_rows, spill", [(16_384, False), (DEFAULT_CHUNK_ROWS, True)]
    )
    def test_peak_is_the_runs_plus_one_chunk(self, chunk_rows, spill):
        log, handles = logged(262_000, chunk_rows, spill)
        for selected in (handles, handles[::3]):
            stats, peak = latency_stats_peak(selected)
            assert stats.count > 0
            assert peak <= latency_stats_peak_bound(log), (
                f"{peak / log.run_count:.1f} B per log run"
            )

    def test_spilled_peak_is_the_in_memory_peak_plus_the_chunk_read(self):
        peaks = {}
        for spill in (False, True):
            log, handles = logged(262_000, 16_384, spill)
            peaks[spill] = [latency_stats_peak(selected)[1] for selected in (handles, handles[::3])]
        for in_memory, spilled in zip(peaks[False], peaks[True]):
            assert spilled <= spilled_peak_bound(in_memory, log, ("sub_id", "latency", "valid"))


class TestDeadlineMargins:
    def test_margins(self):
        margins = deadline_margins([handle("S1", [100.0, 900.0])], deadline_ms=1_000.0)
        assert margins == [900.0, 100.0]

    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            deadline_margins([], deadline_ms=0.0)
