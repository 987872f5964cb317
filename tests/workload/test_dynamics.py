"""ScenarioScript compilation and live-system intervention tests."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.des.rng import RngStreams
from repro.network.topology import LayeredMeshSpec, build_layered_mesh
from repro.pubsub.matching import VectorCountingMatcher
from repro.pubsub.subscription import SubscriptionTable
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, schedule_dynamics, schedule_workload
from repro.workload.dynamics import (
    PRESETS,
    ChurnWave,
    DynamicsDriver,
    FlashCrowd,
    LinkDegrade,
    LinkRecover,
    RateBurst,
    ScenarioScript,
)
from repro.workload.scenarios import Scenario


class TestScriptValidation:
    def test_empty_script_is_falsy_and_compiles_to_one_segment(self):
        script = ScenarioScript()
        assert not script
        segs = script.rate_segments(10.0, 60_000.0)
        assert len(segs) == 1
        assert (segs[0].start_ms, segs[0].end_ms, segs[0].rate_per_minute) == (
            0.0, 60_000.0, 10.0,
        )
        assert script.timed == ()

    def test_intervention_field_validation(self):
        with pytest.raises(ValueError):
            RateBurst(10.0, 10.0, 2.0)  # empty window
        with pytest.raises(ValueError):
            RateBurst(0.0, 10.0, -1.0)
        with pytest.raises(ValueError):
            LinkDegrade(-1.0, "A", "B", 2.0)
        with pytest.raises(ValueError):
            LinkDegrade(0.0, "A", "B", 0.0)
        with pytest.raises(ValueError):
            LinkRecover(-5.0, "A", "B")
        with pytest.raises(ValueError):
            ChurnWave(0.0)  # moves nobody
        with pytest.raises(ValueError):
            ChurnWave(0.0, leave=-1, join=2)
        with pytest.raises(ValueError):
            FlashCrowd(0.0, count=0)
        with pytest.raises(TypeError):
            ScenarioScript(("not an intervention",))

    def test_timed_sorted_by_time(self):
        script = ScenarioScript((
            ChurnWave(at_ms=500.0, leave=1),
            LinkDegrade(at_ms=100.0, a="A", b="B", factor=2.0),
            RateBurst(0.0, 10.0, 2.0),
        ))
        assert [type(i) for i in script.timed] == [LinkDegrade, ChurnWave]
        assert script.rate_bursts == (RateBurst(0.0, 10.0, 2.0),)


class TestRateSegments:
    def test_single_burst_splits_in_three(self):
        script = ScenarioScript((RateBurst(20.0, 40.0, 3.0),))
        segs = script.rate_segments(10.0, 100.0)
        assert [(s.start_ms, s.end_ms, s.rate_per_minute) for s in segs] == [
            (0.0, 20.0, 10.0), (20.0, 40.0, 30.0), (40.0, 100.0, 10.0),
        ]

    def test_overlapping_bursts_multiply(self):
        script = ScenarioScript((
            RateBurst(0.0, 60.0, 2.0),
            RateBurst(30.0, 90.0, 0.5),
        ))
        segs = script.rate_segments(10.0, 100.0)
        assert [(s.start_ms, s.end_ms, s.rate_per_minute) for s in segs] == [
            (0.0, 30.0, 20.0), (30.0, 60.0, 10.0), (60.0, 90.0, 5.0),
            (90.0, 100.0, 10.0),
        ]

    def test_burst_clips_to_duration(self):
        script = ScenarioScript((RateBurst(50.0, 500.0, 2.0),))
        segs = script.rate_segments(10.0, 100.0)
        assert segs[-1].end_ms == 100.0
        assert segs[-1].rate_per_minute == 20.0

    def test_burst_beyond_duration_ignored(self):
        script = ScenarioScript((RateBurst(200.0, 300.0, 2.0),))
        assert len(script.rate_segments(10.0, 100.0)) == 1


def _tiny_config(**kwargs) -> SimulationConfig:
    return SimulationConfig(
        seed=5,
        scenario=kwargs.pop("scenario", Scenario.SSD),
        strategy="eb",
        publishing_rate_per_min=6.0,
        duration_ms=60_000.0,
        **kwargs,
    )


class TestDriver:
    def test_empty_script_schedules_nothing(self):
        config = _tiny_config()
        system = build_system(config)
        before = system.sim.live_events
        assert schedule_dynamics(system, config) is None
        assert system.sim.live_events == before
        assert "dynamics" not in system.streams

    def test_churn_wave_changes_population(self):
        config = _tiny_config(
            dynamics=ScenarioScript((ChurnWave(at_ms=10_000.0, leave=5, join=3),))
        )
        system = build_system(config)
        base = system.subscription_count
        driver = schedule_dynamics(system, config)
        system.sim.run(until=config.horizon_ms)
        assert driver.applied == 1
        assert system.subscription_count == base - 5 + 3
        joined = [s for s in system.subscribers if s.startswith("D")]
        assert len(joined) == 3

    def test_a_wave_costs_calls_per_broker_not_per_row(self, monkeypatch):
        """The structural bound behind the churn numbers: a 400/400 wave on
        the 4k world reaches each on-path table and matcher through at
        most one batch leave and one batch join, and never row by row."""
        config = _tiny_config(topology_spec=LayeredMeshSpec(subscribers_per_edge_broker=250))
        system = build_system(config)
        driver = DynamicsDriver(system, config.scenario)
        calls: Counter = Counter()

        def count(cls, method):
            original = getattr(cls, method)

            def counted(self, *args, **kwargs):
                calls[method, id(self)] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, counted)

        for method in ("install", "install_many", "uninstall_many"):
            count(SubscriptionTable, method)
        for method in ("add_many", "remove_many"):
            count(VectorCountingMatcher, method)
        driver.apply(ChurnWave(at_ms=0.0, leave=400, join=400))

        assert system.subscription_count == 4_000
        tables = [broker.table for broker in system.brokers.values()]
        assert not any(calls["install", id(table)] for table in tables)
        for table in tables:
            assert calls["install_many", id(table)] <= 1
            assert calls["uninstall_many", id(table)] <= 1
        for matcher in [table._matcher for table in tables] + [system._population]:
            assert calls["add_many", id(matcher)] <= 1
            assert calls["remove_many", id(matcher)] <= 1
        # ...and the wave did go through them: every broker is on some path.
        assert sum(calls["install_many", id(table)] for table in tables) == len(tables)
        assert calls["remove_many", id(system._population)] == 1

    def test_flash_crowd_subscribers_receive(self):
        config = _tiny_config(
            dynamics=ScenarioScript((FlashCrowd(at_ms=5_000.0, count=8),))
        )
        system = build_system(config)
        schedule_workload(system, config)
        schedule_dynamics(system, config)
        system.sim.run(until=config.horizon_ms)
        crowd = [h for name, h in system.subscribers.items() if name.startswith("D")]
        assert len(crowd) == 8
        # Broad filters + a healthy rate: the crowd actually gets traffic.
        assert sum(h.valid_count + h.late_count for h in crowd) > 0
        system.metrics.check_invariants()

    def test_mid_run_joiner_never_sees_older_messages(self):
        at = 20_000.0
        config = _tiny_config(
            dynamics=ScenarioScript((FlashCrowd(at_ms=at, count=4),))
        )
        system = build_system(config)
        schedule_workload(system, config)
        schedule_dynamics(system, config)
        # Watermark: every message published before the crowd joined.
        pre_ids = {m for m in range(0)}
        system.sim.run(until=at)
        pre_ids = set(range(system.metrics.published))
        system.sim.run(until=config.horizon_ms)
        for name, handle in system.subscribers.items():
            if name.startswith("D"):
                assert not (handle.received_ids() & pre_ids)

    def test_link_degrade_and_recover(self):
        topo = build_layered_mesh(RngStreams(5).get("topology"))
        a, b, rate = min(topo.links(), key=lambda t: t[2].mean)
        config = _tiny_config(
            dynamics=ScenarioScript((
                LinkDegrade(at_ms=10_000.0, a=a, b=b, factor=4.0),
                LinkRecover(at_ms=30_000.0, a=a, b=b),
            ))
        )
        system = build_system(config)
        schedule_dynamics(system, config)
        built = system.built_link_rate(a, b)
        system.sim.run(until=20_000.0)
        assert system.monitors[(a, b)].rate().mean == pytest.approx(built.mean * 4.0)
        assert system.monitors[(b, a)].link.true_rate.std == pytest.approx(built.std * 4.0)
        system.sim.run(until=config.horizon_ms)
        assert system.monitors[(a, b)].rate() == built
        assert system.topology.link_rate(a, b) == built

    def test_degrade_is_relative_to_built_rate(self):
        config = _tiny_config()
        system = build_system(config)
        a, b, _ = system.topology.links()[0]
        built = system.built_link_rate(a, b)
        system.degrade_link(a, b, 2.0)
        system.degrade_link(a, b, 2.0)  # no compounding
        assert system.monitors[(a, b)].rate().mean == pytest.approx(built.mean * 2.0)

    def test_driver_rejects_rate_burst_as_timed(self):
        config = _tiny_config()
        system = build_system(config)
        driver = DynamicsDriver(system, scenario=Scenario.SSD)
        with pytest.raises(TypeError):
            driver.apply(RateBurst(0.0, 1.0, 2.0))

    def test_ssd_joiners_carry_priced_tiers(self):
        config = _tiny_config(
            dynamics=ScenarioScript((ChurnWave(at_ms=1_000.0, join=6),))
        )
        system = build_system(config)
        schedule_dynamics(system, config)
        system.sim.run(until=config.horizon_ms)
        joined = [
            system._subscriptions[s] for s in system.subscribers if s.startswith("D")
        ]
        assert len(joined) == 6
        assert all(s.price in (1.0, 2.0, 3.0) for s in joined)
        assert all(s.deadline_ms in (10_000.0, 30_000.0, 60_000.0) for s in joined)

    def test_psd_joiners_unpriced(self):
        config = _tiny_config(
            scenario=Scenario.PSD,
            dynamics=ScenarioScript((ChurnWave(at_ms=1_000.0, join=2),)),
        )
        system = build_system(config)
        schedule_dynamics(system, config)
        system.sim.run(until=config.horizon_ms)
        joined = [
            system._subscriptions[s] for s in system.subscribers if s.startswith("D")
        ]
        assert all(s.price is None and s.deadline_ms is None for s in joined)


class TestPresets:
    def test_all_presets_build_valid_scripts(self):
        topo = build_layered_mesh(RngStreams(0).get("topology"))
        for name, builder in PRESETS.items():
            script = builder(topo, 600_000.0)
            assert script, name
            segs = script.rate_segments(10.0, 600_000.0)
            assert segs[0].start_ms == 0.0
            assert segs[-1].end_ms == 600_000.0

    def test_degrade_worst_link_targets_fastest_link(self):
        topo = build_layered_mesh(RngStreams(0).get("topology"))
        script = PRESETS["degrade-worst-link"](topo, 600_000.0)
        degrade = next(i for i in script.timed if isinstance(i, LinkDegrade))
        best = min(topo.links(), key=lambda t: t[2].mean)
        assert {degrade.a, degrade.b} == {best[0], best[1]}
