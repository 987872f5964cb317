"""System doctor tests."""

from __future__ import annotations

import pytest

from repro.pubsub.filters import Predicate
from repro.pubsub.subscription import Subscription, TableRow
from repro.pubsub.system import SystemConfig
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system
from repro.sim.validation import validate_system
from repro.stats.normal import Normal
from repro.workload.scenarios import Scenario

MATCH_ALL = Predicate("A1", "<", 1e9)
CFG = SimulationConfig(seed=1, scenario=Scenario.SSD, duration_ms=60_000.0)


class TestHealthySystems:
    def test_paper_system_is_clean(self):
        findings = validate_system(build_system(CFG))
        assert findings == []

    def test_multipath_system_is_clean(self):
        from repro.core.strategies import EbStrategy
        from repro.des.rng import RngStreams
        from repro.des.simulator import Simulator
        from repro.pubsub.system import PubSubSystem
        from tests.conftest import make_diamond_topology

        topo = make_diamond_topology(publishers={"P1": "B1"}, subscribers={"S1": "B4"})
        system = PubSubSystem(
            topo, EbStrategy(), Simulator(), RngStreams(0),
            config=SystemConfig(routing_paths=2),
        )
        system.subscribe(Subscription("S1", MATCH_ALL))
        assert validate_system(system) == []

    def test_clean_after_unsubscribe(self):
        system = build_system(CFG)
        system.unsubscribe("S1")
        assert validate_system(system) == []
        assert system.subscription_count == 159


class TestCorruptionDetected:
    def test_broken_row_chain(self):
        system = build_system(CFG)
        # Remove a mid-path row: upstream rows now point into a void.
        victim = None
        for name, broker in system.brokers.items():
            for row in broker.table.rows():
                if row.next_hop is not None and not row.is_local:
                    victim = (row.next_hop, row.subscriber)
                    break
            if victim:
                break
        assert victim is not None
        next_broker, subscriber = victim
        if subscriber in system.brokers[next_broker].table:
            system.brokers[next_broker].table.uninstall(subscriber)
        findings = validate_system(system)
        assert any("no row" in f.what or "no local row" in f.what for f in findings)

    def test_bad_local_row_detected(self):
        system = build_system(CFG)
        # Install a "local" row at B1 for a subscriber attached elsewhere.
        intruder = next(
            name for name, edge in sorted(system.topology.subscriber_brokers.items())
            if edge != "B1"
        )
        system.brokers["B1"].table.install(
            TableRow(
                subscription=system.subscription(intruder), next_hop=None, nn=0,
                rate=Normal(0.0, 0.0), sources=frozenset({"B1"}), path_id=1,
            )
        )
        findings = validate_system(system)
        assert any(f.where.startswith(f"B1/row[{intruder},1]") for f in findings)

    def test_empty_sources_warns(self):
        system = build_system(CFG)
        orphan, edge = sorted(system.topology.subscriber_brokers.items())[0]
        system.brokers[edge].table.install(
            TableRow(
                subscription=system.subscription(orphan), next_hop=None, nn=0,
                rate=Normal(0.0, 0.0), sources=frozenset(), path_id=1,
            )
        )
        findings = validate_system(system)
        assert any(f.severity == "warning" and "empty source set" in f.what for f in findings)


class TestUnsubscribe:
    def test_unsubscribed_rows_removed_everywhere(self):
        system = build_system(CFG)
        assert any("S1" in b.table for b in system.brokers.values())
        handle = system.unsubscribe("S1")
        assert handle.name == "S1"
        assert not any("S1" in b.table for b in system.brokers.values())
        assert "S1" not in system.subscribers

    def test_unsubscribed_gets_no_new_messages(self):
        system = build_system(CFG)
        handle = system.unsubscribe("S1")
        for pub in sorted(system.topology.publisher_brokers):
            system.publish(pub, {"A1": 0.1, "A2": 0.1})  # matches ~everyone
        system.sim.run()
        assert handle.records == []

    def test_unknown_subscriber_raises(self):
        system = build_system(CFG)
        with pytest.raises(KeyError):
            system.unsubscribe("ghost")

    def test_population_count_shrinks(self):
        system = build_system(CFG)
        before = system.publish("P1", {"A1": 0.1, "A2": 0.1})
        system.unsubscribe("S1")
        after = system.publish("P1", {"A1": 0.1, "A2": 0.1})
        assert system.metrics.interested[after.msg_id] <= system.metrics.interested[before.msg_id]
