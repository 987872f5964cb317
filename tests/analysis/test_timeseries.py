"""Windowed time-series reductions: folds must equal the aggregates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.timeseries import QueueDepthSampler, windowed_metrics
from repro.experiments.scale import build_scale_system, scale_config
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, run_to_horizon, schedule_dynamics, schedule_workload
from repro.workload.dynamics import ChurnWave, FlashCrowd, RateBurst, ScenarioScript
from repro.workload.scenarios import ScaleScenarioSpec, Scenario
from tests.analysis.memory import (
    spilled_peak_bound,
    windowed_metrics_peak,
    windowed_metrics_peak_bound,
)


def _run(
    config: SimulationConfig, window_ms: float, sample: bool = False, reference: bool = False
):
    system = build_system(config, reference=reference)
    schedule_workload(system, config)
    schedule_dynamics(system, config)
    sampler = (
        QueueDepthSampler(system, every_ms=window_ms / 4.0, horizon_ms=config.horizon_ms)
        if sample
        else None
    )
    system.sim.run(until=config.horizon_ms)
    ts = windowed_metrics(system, window_ms, config.horizon_ms, queue_sampler=sampler)
    return system, ts


def _assert_folds(system, ts):
    m = system.metrics
    t = ts.totals()
    assert t["published"] == m.published
    assert t["total_interested"] == m.total_interested
    assert t["deliveries_valid"] == m.deliveries_valid
    assert t["deliveries_late"] == m.deliveries_late
    assert t["earning"] == m.earning
    assert t["delivery_rate"] == m.delivery_rate
    assert float(ts.latency_sum_ms.sum()) == pytest.approx(m.latency_sum_ms, rel=1e-12)


class TestFolds:
    @pytest.mark.parametrize("strategy", ["fifo", "rl", "eb", "pc", "ebpc"])
    @pytest.mark.parametrize("scenario", [Scenario.PSD, Scenario.SSD])
    def test_frozen_world_folds_to_aggregates(self, strategy, scenario):
        config = SimulationConfig(
            seed=11, scenario=scenario, strategy=strategy,
            publishing_rate_per_min=6.0, duration_ms=90_000.0,
        )
        system, ts = _run(config, window_ms=20_000.0)
        _assert_folds(system, ts)

    @pytest.mark.parametrize("reference", [False, True], ids=["ledger", "scalar"])
    def test_folds_match_both_collectors(self, reference):
        """The production ledger, and the per-delivery collector of the
        reference stack."""
        config = SimulationConfig(
            seed=11, scenario=Scenario.SSD, strategy="eb",
            publishing_rate_per_min=6.0, duration_ms=90_000.0,
        )
        system, ts = _run(config, window_ms=20_000.0, reference=reference)
        _assert_folds(system, ts)

    def test_folds_under_churn_and_bursts(self):
        script = ScenarioScript((
            RateBurst(20_000.0, 60_000.0, 3.0),
            ChurnWave(at_ms=25_000.0, leave=10, join=10),
            FlashCrowd(at_ms=40_000.0, count=12),
        ))
        config = SimulationConfig(
            seed=11, scenario=Scenario.SSD, strategy="ebpc",
            publishing_rate_per_min=6.0, duration_ms=90_000.0, dynamics=script,
        )
        system, ts = _run(config, window_ms=20_000.0)
        _assert_folds(system, ts)
        system.metrics.check_invariants()

    def test_folds_under_multipath_duplicates(self):
        config = SimulationConfig(
            seed=11, scenario=Scenario.SSD, strategy="eb",
            publishing_rate_per_min=6.0, duration_ms=60_000.0, routing_paths=2,
        )
        system, ts = _run(config, window_ms=20_000.0)
        # Duplicate arrivals must be settled first-arrival-wins, exactly
        # like the metrics layer, or the fold double-counts.
        assert system.metrics.duplicate_deliveries > 0
        _assert_folds(system, ts)


class TestTruncatedHorizon:
    """Satellite regression: a horizon shorter than the run must *exclude*
    out-of-horizon events, not clip them into the last window."""

    def _reference(self, system, horizon):
        """Aggregates over events inside the horizon, computed the direct
        whole-array way (settle pairs first-arrival-wins, then mask)."""
        pub_time, interested = system.publication_columns()
        inside = pub_time <= horizon
        sub, msg, time, latency, valid = system.delivery_log.columns()
        keys = msg * np.int64(system.delivery_log.endpoint_count) + sub
        _, first = np.unique(keys, return_index=True)
        t, v = time[first], valid[first]
        in_h = t <= horizon
        return {
            "published": int(inside.sum()),
            "total_interested": int(interested[inside].sum()),
            "deliveries_valid": int((v & in_h).sum()),
            "deliveries_late": int((~v & in_h).sum()),
        }

    def test_truncated_horizon_folds_to_truncated_aggregates(self):
        config = SimulationConfig(
            seed=11, scenario=Scenario.SSD, strategy="eb",
            publishing_rate_per_min=8.0, duration_ms=90_000.0,
        )
        system, _ = _run(config, window_ms=20_000.0)
        horizon = 45_000.0  # half the publication window, far short of the run
        ts = windowed_metrics(system, 20_000.0, horizon_ms=horizon)
        totals = ts.totals()
        ref = self._reference(system, horizon)
        # There must be something beyond the horizon or this is vacuous.
        assert system.metrics.published > ref["published"]
        assert system.metrics.deliveries_valid + system.metrics.deliveries_late > (
            ref["deliveries_valid"] + ref["deliveries_late"]
        )
        for key, want in ref.items():
            assert totals[key] == want, key

    def test_last_window_not_corrupted_by_out_of_horizon_events(self):
        """The pre-fix behavior dumped every later event into the final
        window via np.clip; the final window must now hold only its own."""
        config = SimulationConfig(
            seed=11, scenario=Scenario.SSD, strategy="fifo",
            publishing_rate_per_min=8.0, duration_ms=90_000.0,
        )
        system, _ = _run(config, window_ms=20_000.0)
        horizon = 40_000.0
        ts = windowed_metrics(system, 20_000.0, horizon_ms=horizon)
        pub_time, _ = system.publication_columns()
        in_last = ((pub_time > 20_000.0) & (pub_time <= horizon)).sum()
        assert ts.published[-1] == in_last

    def test_truncated_horizon_with_queue_sampler(self):
        config = SimulationConfig(
            seed=2, scenario=Scenario.SSD, strategy="eb",
            publishing_rate_per_min=10.0, duration_ms=60_000.0,
        )
        system = build_system(config)  # not run: probes injected directly
        sampler = QueueDepthSampler(system, every_ms=5_000.0, horizon_ms=config.horizon_ms)
        sampler.times = [0.0, 10_000.0, 30_000.0, 70_000.0]
        sampler.depths = [1, 2, 3, 99]
        mean, mx = sampler.bucketed(20_000.0, 2, horizon_ms=40_000.0)
        # The 70 s probe is beyond the 40 s horizon: excluded, not clipped.
        assert mx[-1] == 3.0
        assert mean[0] == 1.5


class TestSeriesShape:
    def test_windows_cover_horizon(self):
        config = SimulationConfig(
            seed=2, strategy="fifo", publishing_rate_per_min=4.0, duration_ms=50_000.0,
        )
        system, ts = _run(config, window_ms=15_000.0)
        assert ts.windows == int(np.ceil(config.horizon_ms / 15_000.0))
        assert ts.edges[0] == 0.0
        assert ts.edges[-1] == config.horizon_ms
        assert ts.centers_ms.shape == (ts.windows,)
        # Windowed rates are >= 0 but may exceed 1 transiently (deliveries
        # bucket by arrival, interested by publish); the *fold* is in [0, 1].
        assert (ts.delivery_rate >= 0.0).all()
        assert 0.0 <= ts.totals()["delivery_rate"] <= 1.0

    def test_burst_shows_up_in_published_series(self):
        script = ScenarioScript((RateBurst(30_000.0, 60_000.0, 8.0),))
        config = SimulationConfig(
            seed=4, strategy="fifo", publishing_rate_per_min=6.0,
            duration_ms=90_000.0, dynamics=script,
        )
        _, ts = _run(config, window_ms=30_000.0)
        # Windows: [0,30) base, [30,60) 8x burst, [60,90) base, grace...
        assert ts.published[1] > 3 * ts.published[0]
        assert ts.published[1] > 3 * ts.published[2]

    def test_queue_sampler_buckets(self):
        config = SimulationConfig(
            seed=2, strategy="eb", publishing_rate_per_min=10.0, duration_ms=60_000.0,
        )
        system, ts = _run(config, window_ms=20_000.0, sample=True)
        assert ts.queue_depth_mean is not None
        assert ts.queue_depth_max is not None
        assert ts.queue_depth_mean.shape == (ts.windows,)
        assert (ts.queue_depth_max >= ts.queue_depth_mean).all()
        # Traffic flowed, so something was queued at some probe.
        assert ts.queue_depth_max.max() > 0

    def test_sampler_does_not_change_decisions(self):
        config = SimulationConfig(
            seed=7, strategy="ebpc", publishing_rate_per_min=8.0, duration_ms=60_000.0,
        )
        bare, ts_bare = _run(config, window_ms=20_000.0, sample=False)
        probed, ts_probed = _run(config, window_ms=20_000.0, sample=True)
        assert bare.metrics.deliveries_valid == probed.metrics.deliveries_valid
        assert bare.metrics.earning == probed.metrics.earning
        np.testing.assert_array_equal(ts_bare.deliveries_valid, ts_probed.deliveries_valid)
        np.testing.assert_array_equal(ts_bare.earning, ts_probed.earning)

    def test_validation(self):
        config = SimulationConfig(
            seed=2, strategy="fifo", publishing_rate_per_min=4.0, duration_ms=30_000.0,
        )
        system = build_system(config)
        with pytest.raises(ValueError):
            windowed_metrics(system, 0.0, 1000.0)
        with pytest.raises(ValueError):
            windowed_metrics(system, 100.0)  # clock still at 0
        with pytest.raises(ValueError):
            QueueDepthSampler(system, every_ms=0.0, horizon_ms=1000.0)


class TestMemory:
    """The series carries nothing across chunks but its per-window sums:
    its peak is a few chunks, however long the log."""

    @staticmethod
    def _peak(spill: bool):
        spec = ScaleScenarioSpec(name="memory", subscribers=16_000)
        config = scale_config(spec, minutes=0.5).replace(log_chunk_rows=8_192, log_spill=spill)
        system = build_scale_system(spec, config)
        schedule_workload(system, config)
        run_to_horizon(system, config, None)
        log = system.delivery_log
        assert len(log) >= 16 * log.chunk_rows
        ts, peak = windowed_metrics_peak(system, 5_000.0, config.horizon_ms)
        _assert_folds(system, ts)
        return log, peak

    @pytest.mark.parametrize("spill", [False, True])
    def test_peak_is_a_few_chunks_on_a_long_log(self, spill):
        log, peak = self._peak(spill)
        assert peak <= windowed_metrics_peak_bound(log), f"{peak / len(log):.1f} B per log row"

    def test_spilled_peak_is_the_in_memory_peak_plus_the_chunk_read(self):
        _, in_memory = self._peak(False)
        log, spilled = self._peak(True)
        assert spilled <= spilled_peak_bound(in_memory, log)
