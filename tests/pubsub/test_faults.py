"""Fault-model semantics: hard link/broker failures, dead-letter
accounting, cascades, and the conservation identities under stress."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sentinel import InvariantSentinel
from repro.core.strategies import FifoStrategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.network.link import RATE_FLOOR_MS_PER_KB, DirectedLink
from repro.network.measurement import LinkMonitor, MeasurementMode
from repro.pubsub.faults import FaultLedger
from repro.pubsub.filters import Predicate
from repro.pubsub.subscription import Subscription
from repro.pubsub.system import PubSubSystem
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    build_system,
    run_simulation,
    schedule_dynamics,
    schedule_workload,
)
from repro.stats.normal import Normal
from repro.workload.dynamics import (
    BrokerOutage,
    BrokerRecover,
    CascadeOutage,
    LinkFailure,
    LinkPartition,
    LinkRestore,
    ScenarioScript,
)
from repro.workload.scenarios import Scenario
from tests.conftest import make_line_topology
from tests.integration.stacks import ScalarCollectorSystem, build_system_on

MATCH_ALL = Predicate("A1", "<", 1e9)


def make_system(topology) -> PubSubSystem:
    return PubSubSystem(
        topology=topology,
        strategy=FifoStrategy(),
        sim=Simulator(),
        streams=RngStreams(0),
    )


def line_system() -> PubSubSystem:
    system = make_system(
        make_line_topology(n=3, publishers={"P1": "B1"}, subscribers={"S1": "B3"})
    )
    system.subscribe(Subscription("S1", MATCH_ALL))
    return system


class TestRateFloor:
    def test_zero_rate_clamped_on_construction(self, rng):
        link = DirectedLink("A", "B", Normal(0.0, 1.0), rng)
        assert link.true_rate.mean == RATE_FLOOR_MS_PER_KB

    def test_zero_rate_clamped_on_runtime_change(self, rng):
        link = DirectedLink("A", "B", Normal(10.0, 1.0), rng)
        link.set_true_rate(Normal(0.0, 0.0))
        assert link.true_rate.mean == RATE_FLOOR_MS_PER_KB
        # The drawn transmission time stays positive and finite.
        t = link.draw_transmission_time(50.0)
        assert t > 0.0 and np.isfinite(t)

    def test_non_finite_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            DirectedLink("A", "B", Normal(float("nan"), 1.0), rng)
        link = DirectedLink("A", "B", Normal(10.0, 1.0), rng)
        with pytest.raises(ValueError):
            link.set_true_rate(Normal(float("inf"), 1.0))

    def test_estimated_monitor_floors_zero_mean(self, rng):
        link = DirectedLink("A", "B", Normal(10.0, 1.0), rng)
        monitor = LinkMonitor(link, mode=MeasurementMode.ESTIMATED)
        # Two zero-duration observations: a naive estimator would expose
        # mean 0 and poison every downstream per-KB division.
        monitor._on_transmission(10.0, 0.0)
        monitor._on_transmission(10.0, 0.0)
        rate = monitor.rate()
        assert rate.mean == RATE_FLOOR_MS_PER_KB
        assert rate.variance >= 0.0


class TestLinkFailure:
    def test_fail_downs_both_directions(self):
        system = line_system()
        system.fail_link("B1", "B2")
        assert not system.link_up("B1", "B2")
        assert ("B1", "B2") in system.failed_links
        system.restore_link_up("B1", "B2")
        assert system.link_up("B1", "B2")
        assert not system.failed_links

    def test_unknown_link_rejected(self):
        system = line_system()
        with pytest.raises(ValueError):
            system.fail_link("B1", "B3")  # not adjacent

    def test_traffic_dead_letters_after_timeout(self):
        system = line_system()
        system.warm()
        system.fail_link("B2", "B3")
        system.publish("P1", {"A1": 1.0})
        system.sim.run()
        f = system.faults
        assert f.dead_entries == 1 and f.dead_pairs == 1
        assert f.retries > 0
        assert f.records and f.records[0].reason == "link_down"
        assert f.records[0].broker == "B2" and f.records[0].neighbor == "B3"
        # Aged out at (not before) the dead-letter timeout.
        rec = f.records[0]
        assert rec.dead_ms - rec.enqueue_ms >= system.config.dead_letter_timeout_ms
        assert system.metrics.deliveries_valid + system.metrics.deliveries_late == 0
        # Entry conservation still closes after the drop.
        assert f.enqueued_entries == f.sent_entries + f.pruned_entries + f.dead_entries

    def test_restore_before_timeout_delivers(self):
        system = line_system()
        system.warm()
        system.fail_link("B2", "B3")
        system.publish("P1", {"A1": 1.0})
        system.sim.run(until=5_000.0)
        assert system.total_queued() == 1
        system.restore_link_up("B2", "B3")
        system.sim.run()
        f = system.faults
        assert f.dead_entries == 0
        assert f.retries >= 1
        assert system.metrics.deliveries_valid + system.metrics.deliveries_late == 1

    def test_no_faults_leaves_ledger_clean(self):
        system = line_system()
        system.warm()
        system.publish("P1", {"A1": 1.0})
        system.sim.run()
        assert system.faults.clean
        assert system.metrics.deliveries_valid == 1


class TestBrokerOutage:
    def test_publish_at_down_broker_dropped_but_counted(self):
        system = line_system()
        system.warm()
        system.fail_broker("B1")
        assert system.down_brokers == frozenset({"B1"})
        message = system.publish("P1", {"A1": 1.0})
        assert message is not None
        system.sim.run()
        f = system.faults
        assert system.metrics.published == 1  # msg_id density preserved
        assert f.publish_drops == 1 and f.publish_drop_pairs == 1
        assert system.metrics.deliveries_valid == 0

    def test_outage_downs_adjacent_links_and_recover_restores(self):
        system = line_system()
        system.fail_broker("B2")
        assert not system.link_up("B1", "B2")
        assert not system.link_up("B2", "B3")
        # An explicit link restore cannot resurrect a link whose endpoint
        # broker is down.
        system.restore_link_up("B1", "B2")
        assert not system.link_up("B1", "B2")
        system.recover_broker("B2")
        assert system.link_up("B1", "B2")
        assert system.link_up("B2", "B3")

    def test_separately_failed_link_stays_down_after_recover(self):
        system = line_system()
        system.fail_link("B1", "B2")
        system.fail_broker("B2")
        system.recover_broker("B2")
        assert not system.link_up("B1", "B2")
        assert system.link_up("B2", "B3")

    def test_unknown_broker_rejected(self):
        system = line_system()
        with pytest.raises(ValueError):
            system.fail_broker("nope")


class TestPartition:
    def test_partition_cuts_crossing_links_only(self):
        system = line_system()
        cut = system.partition({"B3"})
        assert cut == [("B2", "B3")]
        assert not system.link_up("B2", "B3")
        assert system.link_up("B1", "B2")
        system.heal_partition({"B3"})
        assert system.link_up("B2", "B3")

    def test_unknown_group_member_rejected(self):
        system = line_system()
        with pytest.raises(ValueError):
            system.partition({"B3", "ghost"})


class TestInterventionValidation:
    def test_partition_heal_must_follow_start(self):
        with pytest.raises(ValueError):
            LinkPartition(at_ms=10.0, group=("B1",), heal_ms=5.0)

    def test_cascade_parameters_validated(self):
        with pytest.raises(ValueError):
            CascadeOutage(at_ms=10.0, origin="B1", spread_prob=1.5)
        with pytest.raises(ValueError):
            CascadeOutage(at_ms=10.0, origin="B1", max_depth=-1)
        with pytest.raises(ValueError):
            CascadeOutage(at_ms=10.0, origin="B1", step_ms=0.0)


def _faulted_config(**overrides) -> SimulationConfig:
    base = SimulationConfig(
        seed=5,
        scenario=Scenario.SSD,
        publishing_rate_per_min=15.0,
        duration_ms=60_000.0,
    )
    system = build_system(base)
    a, b = sorted(system.monitors)[0]
    script = ScenarioScript((
        LinkFailure(at_ms=10_000.0, a=a, b=b),
        BrokerOutage(at_ms=15_000.0, broker=b),
        CascadeOutage(
            at_ms=20_000.0, origin=a, step_ms=4_000.0, max_depth=2,
            recover_after_ms=15_000.0,
        ),
        LinkRestore(at_ms=45_000.0, a=a, b=b),
        BrokerRecover(at_ms=50_000.0, broker=b),
    ))
    return base.replace(dynamics=script, **overrides)


class TestCascadeDeterminism:
    def test_identical_runs_identical_ledgers(self):
        config = _faulted_config()
        summaries = []
        for _ in range(2):
            system = build_system(config)
            schedule_workload(system, config)
            schedule_dynamics(system, config)
            system.run(until=config.horizon_ms)
            summaries.append(
                (system.faults.summary(), system.sim.executed_events)
            )
        assert summaries[0] == summaries[1]

    def test_cascade_spreads_beyond_origin(self):
        # With spread_prob defaulting high, depth 2 from a hub should down
        # more than the origin at some point: detectable as publish drops
        # from brokers other than the scripted outage.
        config = _faulted_config()
        system = build_system(config)
        schedule_workload(system, config)
        schedule_dynamics(system, config)
        system.run(until=config.horizon_ms)
        assert not system.faults.clean


class TestConservationUnderFaults:
    """The acceptance matrix: with faults active, entry and pair
    conservation hold exactly for all five strategies, both collectors
    (the production ledger, and the per-delivery one swapped in alone),
    and spill on/off."""

    @pytest.mark.parametrize("strategy", ("fifo", "rl", "eb", "pc", "ebpc"))
    @pytest.mark.parametrize(
        "system_type", (PubSubSystem, ScalarCollectorSystem), ids=("ledger", "scalar")
    )
    def test_all_strategies_both_backends(self, strategy, system_type):
        config = _faulted_config(strategy=strategy)
        system = build_system_on(system_type, config)
        schedule_workload(system, config)
        schedule_dynamics(system, config)
        sentinel = InvariantSentinel(system)
        system.run(until=config.horizon_ms)
        sentinel.final()  # raises InvariantViolation on any breach
        assert not system.faults.clean, "fault script never bit"

    @pytest.mark.parametrize("spill", (False, True))
    def test_spill_modes(self, spill):
        config = _faulted_config(log_spill=spill, log_chunk_rows=256)
        system = build_system(config)
        schedule_workload(system, config)
        schedule_dynamics(system, config)
        sentinel = InvariantSentinel(system, deep=True)
        system.run(until=config.horizon_ms)
        sentinel.final()
        assert not system.faults.clean

    def test_faulted_results_reproducible_via_runner(self):
        config = _faulted_config(sentinel=True, sentinel_deep=True)
        assert run_simulation(config) == run_simulation(config)


class TestFaultLedgerUnit:
    def test_records_capped_counters_exact(self):
        from repro.pubsub.faults import DeadLetterRecord

        ledger = FaultLedger(max_records=2)
        for i in range(5):
            ledger.on_dead_letter(DeadLetterRecord(
                broker="B1", neighbor="B2", msg_id=i, pairs=3,
                enqueue_ms=0.0, dead_ms=30_000.0, reason="link_down",
            ))
        assert len(ledger.records) == 2
        assert ledger.dead_entries == 5 and ledger.dead_pairs == 15
