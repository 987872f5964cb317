"""System assembly tests: wiring, routing installation, publishing."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.strategies import EbStrategy, FifoStrategy
from repro.experiments.scale import scale_config
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.network.topology import TopologyError, build_from_edges, build_layered_mesh
from repro.pubsub.filters import AndFilter, OrFilter, Predicate
from repro.pubsub.message import Message
from repro.pubsub.metrics import MetricsError
from repro.pubsub.subscription import Subscription
from repro.pubsub.system import PubSubSystem, SystemConfig
from repro.sim.runner import build_system
from repro.stats.normal import Normal
from repro.workload.scenarios import ScaleScenarioSpec, build_scale_subscriptions
from repro.workload.subscriptions import random_attributes, random_conjunctive_filter
from tests.conftest import make_diamond_topology, make_line_topology
from tests.core.helpers import assert_same_table

MATCH_ALL = Predicate("A1", "<", 1e9)


def make_system(topology, strategy=None, config=None) -> PubSubSystem:
    return PubSubSystem(
        topology=topology,
        strategy=strategy or FifoStrategy(),
        sim=Simulator(),
        streams=RngStreams(0),
        config=config,
    )


class TestConstruction:
    def test_brokers_and_links_built(self, line_topology):
        system = make_system(line_topology)
        assert sorted(system.brokers) == ["B1", "B2", "B3"]
        # Two directions per edge.
        assert len(system.monitors) == 4
        assert "B2" in system.brokers["B1"].queues
        assert "B1" in system.brokers["B2"].queues

    def test_disconnected_topology_rejected(self):
        topo = make_line_topology(n=2)
        topo.add_broker("Z")
        with pytest.raises(TopologyError):
            make_system(topo)

    def test_publisher_handles_created(self, line_topology):
        system = make_system(line_topology)
        assert list(system.publishers) == ["P1"]


class TestSubscriptionInstallation:
    def test_rows_installed_along_path(self, line_topology):
        system = make_system(line_topology)
        system.subscribe(Subscription("S1", MATCH_ALL))
        # Path B1 -> B2 -> B3; every broker on it holds a row.
        assert "S1" in system.brokers["B1"].table
        assert "S1" in system.brokers["B2"].table
        assert "S1" in system.brokers["B3"].table
        assert system.brokers["B1"].table.row("S1").next_hop == "B2"
        assert system.brokers["B3"].table.row("S1").is_local

    def test_row_parameters_describe_remaining_path(self, line_topology):
        system = make_system(line_topology)
        system.subscribe(Subscription("S1", MATCH_ALL))
        row = system.brokers["B1"].table.row("S1")
        assert row.nn == 2
        assert row.rate.mean == 20.0  # two links at mean 10
        assert row.rate.variance == 8.0

    def test_off_path_brokers_hold_no_row(self, diamond_topology):
        system = make_system(diamond_topology)
        system.subscribe(Subscription("S1", MATCH_ALL))
        # Fast branch is B1->B2->B4; B3 is off-path.
        assert "S1" in system.brokers["B2"].table
        assert "S1" not in system.brokers["B3"].table

    def test_unattached_subscriber_rejected(self, line_topology):
        system = make_system(line_topology)
        with pytest.raises(TopologyError):
            system.subscribe(Subscription("ghost", MATCH_ALL))

    def test_duplicate_subscription_rejected(self, line_topology):
        system = make_system(line_topology)
        system.subscribe(Subscription("S1", MATCH_ALL))
        with pytest.raises(ValueError):
            system.subscribe(Subscription("S1", MATCH_ALL))

    def test_endpoint_registered_elsewhere_is_an_error(self, line_topology):
        # Batched registration leans on log ids and the deadline list
        # being index-aligned; a raise (not an assert) keeps that under -O.
        system = make_system(line_topology)
        system.delivery_log.register("stray")
        with pytest.raises(MetricsError):
            system.subscribe(Subscription("S1", MATCH_ALL))

    def test_routing_path_diagnostic(self, diamond_topology):
        system = make_system(diamond_topology)
        system.subscribe(Subscription("S1", MATCH_ALL))
        assert system.routing_path("B1", "S1") == ["B1", "B2", "B4"]


def _interested_in(system: PubSubSystem, message: Message) -> set[str]:
    """The subscribers whose filter ``message`` satisfies, by fid."""
    verdicts = system.filters.verdicts(message)
    index = system.subscriber_index
    return {name for name, sid in index.live.items() if verdicts[index._fid.view()[sid]]}


def _untouched(system: PubSubSystem) -> bool:
    return (
        system.subscription_count == 0 and not system.subscribers
        and len(system.filters) == 0 and system.delivery_log.endpoint_count == 0
        and len(system.subscriber_index) == 0
        and all(len(b.table) == 0 and b.table.version == 0 for b in system.brokers.values())
    )


class TestBatches:
    def _system(self, **config) -> PubSubSystem:
        topo = build_layered_mesh(np.random.default_rng(2))
        return make_system(topo, strategy=EbStrategy(), config=SystemConfig(**config))

    @pytest.mark.parametrize(
        "routing_paths", [pytest.param(1, id="routing0"), pytest.param(2, id="routing1")]
    )
    def test_bad_subscribe_batch_raises_before_any_mutation(self, routing_paths):
        system = self._system(routing_paths=routing_paths)
        a, b = sorted(system.topology.subscriber_brokers)[:2]
        good = Subscription(a, MATCH_ALL)
        with pytest.raises(ValueError):
            system.subscribe_all([good, Subscription(a, MATCH_ALL)])
        assert _untouched(system)
        with pytest.raises(TopologyError):
            system.subscribe_all([good, Subscription("ghost", MATCH_ALL)])
        assert _untouched(system)
        system.subscribe_all([good])
        with pytest.raises(ValueError):
            system.subscribe_all([Subscription(b, MATCH_ALL), good])
        assert system.subscription_count == 1 and list(system.subscribers) == [a]
        assert b not in system.brokers[system.topology.subscriber_brokers[b]].table

    def test_bad_unsubscribe_batch_raises_before_any_table_is_touched(self):
        system = self._system()
        names = sorted(system.topology.subscriber_brokers)[:3]
        system.subscribe_all([Subscription(name, MATCH_ALL) for name in names])
        versions = {n: b.table.version for n, b in system.brokers.items()}
        for bad in ([names[0], "ghost"], [names[0], names[1], names[0]]):
            with pytest.raises(KeyError):
                system.unsubscribe_all(bad)
            assert {n: b.table.version for n, b in system.brokers.items()} == versions
            assert system.subscription_count == 3 and system.unsubscribe_count == 0
        handles = system.unsubscribe_all([names[2], names[0]])
        assert [h.name for h in handles] == [names[2], names[0]]
        assert list(system.subscribers) == [names[1]] and system.unsubscribe_count == 2

    def test_batches_reach_the_per_call_end_state(self):
        """A population, a leave wave and a join wave as three batches
        against one call per subscriber: every table (rows, row and
        free ids, version), the endpoint ids and prices and the
        interested-population counts come out the same."""
        rng = np.random.default_rng(5)
        batched, per_call = self._system(), self._system()
        names = sorted(batched.topology.subscriber_brokers)

        def draw(name: str) -> Subscription:
            kind = rng.integers(0, 8)
            if kind == 0:
                filt = AndFilter([])  # matches everything
            elif kind == 1:  # not a conjunction: the matcher's fallback
                filt = OrFilter([Predicate("A1", "<", 2.0), Predicate("A2", ">", 8.0)])
            else:
                filt = random_conjunctive_filter(rng)
            return Subscription(name, filt, deadline_ms=30_000.0, price=float(rng.integers(1, 4)))

        population = [draw(name) for name in names]
        leavers = [names[i] for i in sorted(rng.choice(len(names), size=60, replace=False))]
        joiners = [draw(name) for name in leavers[:40]]
        for system in (batched, per_call):
            for publisher in sorted(system.topology.publisher_brokers):
                system.publish(publisher, {"A1": 1.0, "A2": 1.0})  # epoch > 0 for the joiners
        batched.subscribe_all(population)
        batched.unsubscribe_all(leavers)
        batched.subscribe_all(joiners)
        for subscription in population:
            per_call.subscribe(subscription)
        for name in leavers:
            per_call.unsubscribe(name)
        for subscription in joiners:
            per_call.subscribe(subscription)

        probes = [
            Message(msg_id=100 + i, publisher=publisher, source_broker=source,
                    attributes=random_attributes(rng), size_kb=5.0, publish_time=0.0)
            for i, (publisher, source) in enumerate(sorted(batched.topology.publisher_brokers.items()))
        ]
        assert sum(
            assert_same_table(batched.brokers[n].table, per_call.brokers[n].table, probes)
            for n in batched.brokers
        ) > 0
        for n in batched.brokers:
            assert batched.brokers[n].table._free_ids == per_call.brokers[n].table._free_ids
        assert list(batched.subscribers) == list(per_call.subscribers)
        assert [h.log_id for h in batched.subscribers.values()] == [
            h.log_id for h in per_call.subscribers.values()
        ]
        assert batched.endpoint_prices().tolist() == per_call.endpoint_prices().tolist()
        for probe in probes:
            assert _interested_in(batched, probe) == _interested_in(per_call, probe)
            assert batched.filters.interested(probe) == per_call.filters.interested(probe)


def test_a_build_retains_at_most_300_bytes_per_table_row():
    """A table row is two ints (subscription id, route id) plus its share
    of the compiled views: the subscription is interned once per system,
    the route once per table, and the five scoring operands once per
    operand class (an ``intp`` class id per row).  Counted, not timed:
    tracemalloc's retained bytes over ``subscribe_all`` + ``warm`` repeat
    exactly (152 B/row on this build; 182 with a float64 operand matrix
    per row, 417 with per-table row records and name interning)."""
    spec = ScaleScenarioSpec(name="footprint", subscribers=2_000)
    system = build_system(
        scale_config(spec, minutes=0.5), subscription_builder=lambda rng, topology: []
    )
    population = build_scale_subscriptions(
        system.streams.get("subscriptions"), system.topology, spec
    )
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system.subscribe_all(population)
        system.warm()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = sum(len(broker.table) for broker in system.brokers.values())
    assert rows == 16_375
    assert retained / rows <= 300


class TestPublishing:
    def test_end_to_end_delivery(self, line_topology):
        system = make_system(line_topology)
        handle = system.subscribe(Subscription("S1", MATCH_ALL))
        system.publish("P1", {"A1": 1.0})
        system.sim.run()
        assert handle.valid_count == 1
        assert system.metrics.deliveries_valid == 1
        # Receptions: B1 (inject), B2, B3.
        assert system.metrics.receptions == 3

    def test_interested_population_counted(self, line_topology):
        system = make_system(line_topology)
        system.subscribe(Subscription("S1", Predicate("A1", "<", 5.0)))
        system.publish("P1", {"A1": 1.0})  # matches
        system.publish("P1", {"A1": 9.0})  # does not
        assert system.metrics.interested == {0: 1, 1: 0}

    def test_unknown_publisher_rejected(self, line_topology):
        system = make_system(line_topology)
        with pytest.raises(TopologyError):
            system.publish("P9", {"A1": 1.0})

    def test_publisher_handle(self, line_topology):
        system = make_system(line_topology)
        system.subscribe(Subscription("S1", MATCH_ALL))
        system.publishers["P1"].publish({"A1": 1.0})
        assert system.publishers["P1"].published == 1

    def test_message_size_defaults_from_config(self, line_topology):
        system = make_system(
            line_topology, config=SystemConfig(message_size_kb=7.0)
        )
        m = system.publish("P1", {"A1": 1.0})
        assert m.size_kb == 7.0


class TestNoDuplicateDelivery:
    def test_multi_publisher_mesh_no_duplicates(self):
        """The provenance check must keep single-path routing duplicate-free
        even when paths from different publishers overlap."""
        rate = Normal(10.0, 1.0)
        topo = build_from_edges(
            [
                ("B1", "B3", rate), ("B2", "B3", rate),
                ("B1", "B4", rate), ("B2", "B4", rate),
                ("B3", "B5", rate), ("B4", "B5", rate),
                ("B3", "B6", rate), ("B4", "B6", rate),
            ],
            publishers={"P1": "B1", "P2": "B2"},
            subscribers={"S1": "B5", "S2": "B6"},
        )
        system = make_system(topo)
        h1 = system.subscribe(Subscription("S1", MATCH_ALL))
        h2 = system.subscribe(Subscription("S2", MATCH_ALL))
        for pub in ("P1", "P2"):
            system.publish(pub, {"A1": 1.0})
        system.sim.run()
        # Each subscriber gets each of the two messages exactly once.
        assert sorted(r.msg_id for r in h1.records) == [0, 1]
        assert sorted(r.msg_id for r in h2.records) == [0, 1]

    def test_paper_topology_no_duplicates(self):
        topo = build_layered_mesh(np.random.default_rng(2))
        system = make_system(topo, strategy=EbStrategy())
        handles = [
            system.subscribe(Subscription(s, MATCH_ALL, deadline_ms=60_000.0, price=1.0))
            for s in sorted(topo.subscriber_brokers)
        ]
        for pub in sorted(topo.publisher_brokers):
            system.publish(pub, {"A1": 1.0})
        system.sim.run()
        for handle in handles:
            ids = [r.msg_id for r in handle.records]
            assert len(ids) == len(set(ids)), f"{handle.name} got duplicates"
            assert len(ids) == 4  # one per publisher

    def test_reception_count_matches_path_lengths(self, diamond_topology):
        system = make_system(diamond_topology)
        system.subscribe(Subscription("S1", MATCH_ALL))
        system.publish("P1", {"A1": 1.0})
        system.sim.run()
        # Path B1->B2->B4: three receptions, two transmissions.
        assert system.metrics.receptions == 3
        assert system.metrics.transmissions == 2


class TestRuntimeLinkInterventions:
    """The failure-injection path must reach *live* links, not just the
    static topology description (the historic dead path)."""

    def test_topology_mutation_alone_is_dead(self, line_topology):
        system = make_system(line_topology)
        old = system.monitors[("B1", "B2")].link.true_rate
        line_topology.set_link_rate("B1", "B2", Normal(999.0, 1.0))
        # Static layer changed, live channel did not — which is why the
        # system-level API below exists.
        assert system.monitors[("B1", "B2")].link.true_rate is old

    def test_system_set_link_rate_reaches_every_layer(self, line_topology):
        system = make_system(line_topology)
        new = Normal(999.0, 1.0)
        system.set_link_rate("B1", "B2", new)
        assert system.topology.link_rate("B1", "B2") is new
        assert system.monitors[("B1", "B2")].link.true_rate is new
        assert system.monitors[("B2", "B1")].link.true_rate is new
        # ORACLE monitors repin instantly.
        assert system.monitors[("B1", "B2")].rate() is new
        assert system.monitors[("B2", "B1")].rate() is new

    def test_set_link_rate_unknown_link_rejected(self, line_topology):
        system = make_system(line_topology)
        with pytest.raises(TopologyError):
            system.set_link_rate("B1", "B3", Normal(1.0, 1.0))

    def test_degrade_validates_factor(self, line_topology):
        system = make_system(line_topology)
        with pytest.raises(ValueError):
            system.degrade_link("B1", "B2", 0.0)

    def test_rate_change_invalidates_sink_tree_cache(self):
        # Diamond: B1 -> {B2 fast | B3 slow} -> B4; routing prefers B2.
        topo = make_diamond_topology(fast=Normal(10.0, 1.0), slow=Normal(50.0, 1.0))
        topo.attach_publisher("P1", "B1")
        topo.attach_subscriber("S1", "B4")
        topo.attach_subscriber("S2", "B4")
        system = make_system(topo)
        system.subscribe(Subscription("S1", MATCH_ALL))
        assert system.routing_path("B1", "S1") == ["B1", "B2", "B4"]
        # Degrade the fast branch below the slow one: new subscriptions
        # must route around it.
        system.set_link_rate("B1", "B2", Normal(100.0, 1.0))
        system.subscribe(Subscription("S2", MATCH_ALL))
        assert system.routing_path("B1", "S2") == ["B1", "B3", "B4"]
