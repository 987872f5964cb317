"""Multi-path routing extension tests.

The paper's Section 3.3 contrasts its single-path choice with the
multi-path routing of mesh systems like DCP [13]: multi-path improves
delivery odds at the cost of duplicate traffic.  These tests pin down the
extension's semantics: every chosen path is populated, duplicate arrivals
are settled once, and the expected traffic/reliability trade shows up.
"""

from __future__ import annotations

import pytest

from repro.core.strategies import EbStrategy, FifoStrategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.pubsub.filters import Predicate
from repro.pubsub.subscription import Subscription
from repro.pubsub.system import PubSubSystem, SystemConfig
from repro.stats.normal import Normal
from tests.conftest import make_diamond_topology

MATCH_ALL = Predicate("A1", "<", 1e9)


def diamond_system(routing_paths: int, seed: int = 0) -> PubSubSystem:
    topo = make_diamond_topology(
        fast=Normal(10.0, 1.0), slow=Normal(12.0, 1.0),
        publishers={"P1": "B1"}, subscribers={"S1": "B4"},
    )
    system = PubSubSystem(
        topology=topo,
        strategy=FifoStrategy(),
        sim=Simulator(),
        streams=RngStreams(seed),
        config=SystemConfig(routing_paths=routing_paths, message_size_kb=5.0),
    )
    system.subscribe(Subscription("S1", MATCH_ALL))
    return system


class TestRoutingPaths:
    def test_defaults(self):
        assert SystemConfig().routing_paths == 1  # the paper's single path

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(routing_paths=0)


class TestInstallation:
    def test_both_diamond_branches_populated(self):
        system = diamond_system(2)
        # Single-path uses only B2; multi-path must also install via B3.
        assert "S1" in system.brokers["B2"].table
        assert "S1" in system.brokers["B3"].table
        assert len(system.brokers["B1"].table) == 2  # one row per path

    def test_k1_multi_path_equals_single_path_route(self):
        # One path is the paper's single-path install: the fast branch
        # only, one row per on-path broker.
        system = diamond_system(1)
        assert "S1" in system.brokers["B2"].table
        assert "S1" not in system.brokers["B3"].table
        assert len(system.brokers["B1"].table) == 1

    def test_row_parameters_per_path(self):
        system = diamond_system(2)
        rows = system.brokers["B1"].table.rows()
        means = sorted(r.rate.mean for r in rows)
        assert means == pytest.approx([20.0, 24.0])  # fast 2x10, slow 2x12
        assert all(r.nn == 2 for r in rows)


class TestDelivery:
    def test_duplicates_settled_once(self):
        system = diamond_system(2)
        handle = system.subscribers["S1"]
        system.publish("P1", {"A1": 1.0})
        system.sim.run()
        # The endpoint saw two arrivals, the metrics counted one.
        assert len(handle.records) == 2
        assert system.metrics.deliveries_valid == 1
        assert system.metrics.duplicate_deliveries == 1
        system.metrics.check_invariants()

    def test_traffic_doubles_on_diamond(self):
        single = diamond_system(1)
        multi = diamond_system(2)
        for system in (single, multi):
            system.publish("P1", {"A1": 1.0})
            system.sim.run()
        # Single: B1,B2,B4 = 3 receptions.  Multi: + B3,B4 = 5.
        assert single.metrics.receptions == 3
        assert multi.metrics.receptions == 5

    def test_survives_one_dead_branch(self):
        """Reliability win: with the fast branch effectively down at
        publish-time parameters, the slow-path copy still arrives."""
        topo = make_diamond_topology(
            fast=Normal(10.0, 1.0), slow=Normal(12.0, 1.0),
            publishers={"P1": "B1"}, subscribers={"S1": "B4"},
        )
        # Break the fast branch *after* route installation: transmissions
        # on it stall for ~28 hours of simulated time.
        system = PubSubSystem(
            topology=topo, strategy=EbStrategy(), sim=Simulator(),
            streams=RngStreams(3),
            config=SystemConfig(routing_paths=2, message_size_kb=5.0),
        )
        system.subscribe(Subscription("S1", MATCH_ALL, deadline_ms=60_000.0, price=1.0))
        for queue in system.brokers["B1"].queues.values():
            if queue.neighbor == "B2":
                queue.link.true_rate = Normal(2e7, 1.0)
        system.publish("P1", {"A1": 1.0})
        system.sim.run(until=60_000.0)
        assert system.metrics.deliveries_valid == 1  # via the slow branch


class TestUninstall:
    def test_uninstall_removes_all_paths(self):
        system = diamond_system(2)
        table = system.brokers["B1"].table
        assert len(table) == 2
        table.uninstall("S1")
        assert len(table) == 0
        with pytest.raises(KeyError):
            table.uninstall("S1")
