"""Sweep harness tests."""

from __future__ import annotations

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult, aggregate_results
from repro.sim.sweep import sweep_publishing_rate, sweep_r_weight
from repro.workload.scenarios import Scenario

BASE = SimulationConfig(
    seed=1,
    scenario=Scenario.PSD,
    publishing_rate_per_min=10.0,
    duration_ms=60_000.0,
)


class TestRateSweep:
    def test_structure(self):
        sweep = sweep_publishing_rate(BASE, rates=[2.0, 8.0], strategies=["fifo", "eb"])
        assert sweep.x_values == [2.0, 8.0]
        assert set(sweep.series) == {"fifo", "eb"}
        assert all(len(v) == 2 for v in sweep.series.values())

    def test_rates_applied(self):
        sweep = sweep_publishing_rate(BASE, rates=[2.0, 8.0], strategies=["fifo"])
        runs = sweep.series["fifo"]
        assert runs[0].publishing_rate_per_min == 2.0
        assert runs[1].publishing_rate_per_min == 8.0
        assert runs[0].published < runs[1].published

    def test_parametrised_strategy(self):
        sweep = sweep_publishing_rate(
            BASE, rates=[5.0], strategies=[("ebpc", {"r": 0.3})]
        )
        assert list(sweep.series) == ["ebpc(r=0.3)"]
        assert sweep.series["ebpc(r=0.3)"][0].strategy == "ebpc(r=0.3)"

    def test_two_variants_of_one_strategy_are_two_series(self):
        sweep = sweep_publishing_rate(
            BASE, rates=[5.0],
            strategies=["rl", ("rl", {"aggregation": "min"}), "ebpc"],
        )
        assert list(sweep.series) == ["rl", "rl(aggregation=min)", "ebpc(r=0.5)"]
        assert [runs[0].strategy for runs in sweep.series.values()] == list(sweep.series)

    def test_metric_extraction(self):
        sweep = sweep_publishing_rate(BASE, rates=[5.0], strategies=["fifo"])
        values = sweep.metric("fifo", lambda r: r.delivery_rate)
        assert len(values) == 1 and 0.0 <= values[0] <= 1.0
        table = sweep.table(lambda r: r.delivery_rate)
        assert table == {"fifo": values}

    def test_multi_seed_aggregation(self):
        sweep = sweep_publishing_rate(
            BASE, rates=[5.0], strategies=["fifo"], seeds=[1, 2, 3]
        )
        run = sweep.series["fifo"][0]
        singles = [
            sweep_publishing_rate(BASE.replace(seed=s), [5.0], ["fifo"]).series["fifo"][0]
            for s in (1, 2, 3)
        ]
        assert run.delivery_rate == pytest.approx(
            sum(r.delivery_rate for r in singles) / 3
        )


class TestRSweep:
    def test_structure(self):
        sweep = sweep_r_weight(BASE, r_values=[0.0, 0.5, 1.0])
        assert set(sweep.series) == {"ebpc", "eb", "pc"}
        assert len(sweep.series["ebpc"]) == 3

    def test_reference_lines_flat(self):
        sweep = sweep_r_weight(BASE, r_values=[0.0, 1.0])
        assert sweep.series["eb"][0] is sweep.series["eb"][1]
        assert sweep.series["pc"][0] is sweep.series["pc"][1]

    def test_endpoints_match_references(self):
        sweep = sweep_r_weight(BASE, r_values=[0.0, 1.0])
        assert sweep.series["ebpc"][1].delivery_rate == sweep.series["eb"][0].delivery_rate
        assert sweep.series["ebpc"][0].delivery_rate == sweep.series["pc"][0].delivery_rate


class TestAggregation:
    def _result(self, **kw) -> SimulationResult:
        defaults = dict(
            strategy="eb", scenario="psd", seed=0, publishing_rate_per_min=1.0,
            published=10, message_number=100, transmissions=90,
            deliveries_valid=8, deliveries_late=1, pruned=2,
            total_interested=10, delivery_rate=0.8, earning=8.0,
            mean_latency_ms=100.0, residual_queued=0, executed_events=500,
        )
        defaults.update(kw)
        return SimulationResult(**defaults)

    def test_means(self):
        agg = aggregate_results([
            self._result(delivery_rate=0.8, earning=8.0),
            self._result(delivery_rate=0.4, earning=4.0),
        ])
        assert agg["delivery_rate"] == pytest.approx(0.6)
        assert agg["earning"] == pytest.approx(6.0)
        assert agg["replicas"] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_results([])
