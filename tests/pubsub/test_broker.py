"""Broker unit tests: processing, queueing, scheduling, pruning, FT."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pruning import PruningPolicy
from repro.core.strategies import EbStrategy, FifoStrategy
from repro.des.simulator import Simulator
from repro.network.link import DirectedLink
from repro.network.measurement import LinkMonitor
from repro.pubsub.broker import Broker
from repro.pubsub.filters import Predicate
from repro.pubsub.message import Message
from repro.pubsub.metrics import LedgerMetricsCollector
from repro.pubsub.subscription import Subscription, TableRow
from repro.stats.normal import Normal

MATCH_ALL = Predicate("A1", "<", 1e9)


def make_broker(sim, strategy=None, metrics=None, **kw) -> Broker:
    return Broker(
        name="B1",
        sim=sim,
        strategy=strategy or FifoStrategy(),
        metrics=metrics or LedgerMetricsCollector(),
        **kw,
    )


def wire_neighbor(broker, sim, neighbor="B2", rate=Normal(10.0, 0.0), seed=0):
    """Attach a deterministic outbound link; returns delivered-message log."""
    delivered = []
    link = DirectedLink(broker.name, neighbor, rate, np.random.default_rng(seed))
    monitor = LinkMonitor(link)
    broker.add_neighbor(neighbor, link, monitor, delivered.append)
    return delivered, link


def local_row(subscriber="S1", deadline=None, price=None) -> TableRow:
    return TableRow(
        subscription=Subscription(subscriber, MATCH_ALL, deadline_ms=deadline, price=price),
        next_hop=None,
        nn=0,
        rate=Normal(0.0, 0.0),
        sources=frozenset({"B0", "B1"}),
    )


def remote_row(subscriber="S1", next_hop="B2", deadline=30_000.0) -> TableRow:
    return TableRow(
        subscription=Subscription(subscriber, MATCH_ALL, deadline_ms=deadline),
        next_hop=next_hop,
        nn=1,
        rate=Normal(10.0, 4.0),
        sources=frozenset({"B0", "B1"}),
    )


def msg(msg_id=1, publish_time=0.0, deadline=None, size=50.0, source="B1") -> Message:
    return Message(
        msg_id=msg_id,
        publisher="P1",
        source_broker=source,
        attributes={"A1": 1.0},
        size_kb=size,
        publish_time=publish_time,
        deadline_ms=deadline,
    )


class TestProcessing:
    def test_processing_delay_applied(self, sim):
        metrics = LedgerMetricsCollector()
        broker = make_broker(sim, metrics=metrics, processing_delay_ms=2.0)
        broker.install(local_row())
        delivered_at = []
        broker.delivery_callbacks.append(lambda s, m, lat, ok: delivered_at.append(sim.now))
        metrics.on_publish(1, 1)
        broker.receive(msg())
        sim.run()
        assert delivered_at == [2.0]
        assert metrics.receptions == 1

    def test_local_delivery_validity(self, sim):
        metrics = LedgerMetricsCollector()
        broker = make_broker(sim, metrics=metrics)
        broker.install(local_row(deadline=1_000.0))
        metrics.on_publish(1, 1)
        metrics.on_publish(2, 1)
        broker.receive(msg(msg_id=1, publish_time=0.0))  # arrives fresh
        sim.run()
        # Second message was published 5 s ago: already past its deadline.
        sim.schedule(0.0, lambda: broker.receive(msg(msg_id=2, publish_time=sim.now - 5_000.0)))
        sim.run()
        assert metrics.deliveries_valid == 1
        assert metrics.deliveries_late == 1

    def test_ssd_price_earned(self, sim):
        metrics = LedgerMetricsCollector()
        broker = make_broker(sim, metrics=metrics)
        broker.install(local_row(deadline=10_000.0, price=3.0))
        metrics.on_publish(1, 1)
        broker.receive(msg())
        sim.run()
        assert metrics.earning == 3.0

    def test_unmatched_message_goes_nowhere(self, sim):
        metrics = LedgerMetricsCollector()
        broker = make_broker(sim, metrics=metrics)
        wire_neighbor(broker, sim)
        broker.install(remote_row())
        bad = Message(
            msg_id=9, publisher="P1", source_broker="B1",
            attributes={"A1": 1e12}, size_kb=1.0, publish_time=0.0,
        )
        broker.receive(bad)
        sim.run()
        assert broker.queued_entries() == 0


class TestForwarding:
    def test_message_forwarded_with_transmission_delay(self, sim):
        broker = make_broker(sim, processing_delay_ms=2.0)
        delivered, _ = wire_neighbor(broker, sim, rate=Normal(10.0, 0.0))
        broker.install(remote_row())
        broker.receive(msg(size=5.0))
        sim.run()
        # 2 ms processing + 5 KB * 10 ms/KB = 52 ms.
        assert len(delivered) == 1
        assert sim.now == pytest.approx(52.0)

    def test_link_serialises(self, sim):
        broker = make_broker(sim)
        delivered, link = wire_neighbor(broker, sim, rate=Normal(10.0, 0.0))
        broker.install(remote_row())
        broker.receive(msg(msg_id=1, size=10.0))
        broker.receive(msg(msg_id=2, size=10.0))
        sim.run()
        # 2 ms processing, then two back-to-back 100 ms transmissions.
        assert [m.msg_id for m in delivered] == [1, 2]
        assert sim.now == pytest.approx(202.0)
        assert link.stats.transmissions == 2

    def test_one_copy_per_neighbor(self, sim):
        broker = make_broker(sim)
        d2, _ = wire_neighbor(broker, sim, neighbor="B2")
        d3, _ = wire_neighbor(broker, sim, neighbor="B3", seed=1)
        broker.install(remote_row("S1", next_hop="B2"))
        broker.install(remote_row("S2", next_hop="B2"))
        broker.install(remote_row("S3", next_hop="B3"))
        metrics = broker.metrics
        broker.receive(msg())
        sim.run()
        assert len(d2) == 1  # S1+S2 share one copy
        assert len(d3) == 1
        assert metrics.transmissions == 2

    def test_scheduling_strategy_controls_order(self, sim):
        broker = make_broker(sim, strategy=EbStrategy())
        delivered, _ = wire_neighbor(broker, sim, rate=Normal(10.0, 0.0))
        # Remaining path needs ~25 s against a 30 s deadline, so message age
        # moves success along the CDF ramp: the older message (~0.02) loses
        # to the fresh one (~1.0) under EB, despite arriving first.
        broker.install(
            TableRow(
                subscription=Subscription("S1", MATCH_ALL, deadline_ms=30_000.0),
                next_hop="B2",
                nn=1,
                rate=Normal(500.0, 400.0),
                sources=frozenset({"B1"}),
            )
        )
        broker.receive(msg(msg_id=1, publish_time=0.0))
        sim.schedule(100.0, lambda: broker.receive(msg(msg_id=2, publish_time=-7_000.0)))
        sim.schedule(100.0, lambda: broker.receive(msg(msg_id=3, publish_time=sim.now)))
        sim.run()
        assert [m.msg_id for m in delivered] == [1, 3, 2]


class TestPruning:
    def test_expired_pruned_under_fifo(self, sim):
        metrics = LedgerMetricsCollector()
        broker = make_broker(sim, metrics=metrics)
        delivered, _ = wire_neighbor(broker, sim, rate=Normal(10.0, 0.0))
        broker.install(remote_row(deadline=1_000.0))
        broker.receive(msg(msg_id=1))  # occupies the link
        # Arrives already expired; pruned when the queue is next served.
        sim.schedule(10.0, lambda: broker.receive(msg(msg_id=2, publish_time=sim.now - 5_000.0)))
        sim.run()
        assert [m.msg_id for m in delivered] == [1]
        assert metrics.pruned == 1

    def test_hopeless_pruned_under_eb_before_expiry(self, sim):
        metrics = LedgerMetricsCollector()
        broker = make_broker(sim, strategy=EbStrategy(), metrics=metrics)
        delivered, _ = wire_neighbor(broker, sim, rate=Normal(10.0, 0.0))
        # Remaining path needs ~25 s (nn=1, 500 ms/KB * 50 KB), deadline 30 s.
        broker.install(
            TableRow(
                subscription=Subscription("S1", MATCH_ALL, deadline_ms=30_000.0),
                next_hop="B2",
                nn=1,
                rate=Normal(500.0, 400.0),
                sources=frozenset({"B1"}),
            )
        )
        broker.receive(msg(msg_id=1))  # fresh: feasible; blocks the link
        # 28 s old: 2 s of budget left vs ~25 s needed — hopeless, yet its
        # deadline has NOT passed (28 < 30): only Eq. 11 can delete it.
        sim.schedule(10.0, lambda: broker.receive(msg(msg_id=2, publish_time=sim.now - 28_000.0)))
        sim.run()
        assert [m.msg_id for m in delivered] == [1]
        assert metrics.pruned == 1

    def test_pruning_override(self, sim):
        metrics = LedgerMetricsCollector()
        broker = make_broker(
            sim, strategy=EbStrategy(), metrics=metrics,
            pruning_override=PruningPolicy.NONE,
        )
        delivered, _ = wire_neighbor(broker, sim, rate=Normal(10.0, 0.0))
        broker.install(remote_row(deadline=1_000.0))
        broker.receive(msg(msg_id=1))
        sim.schedule(10.0, lambda: broker.receive(msg(msg_id=2, publish_time=sim.now - 5_000.0)))
        sim.run()
        assert len(delivered) == 2  # nothing pruned
        assert metrics.pruned == 0


class TestAverageSize:
    def test_default_before_any_message(self, sim):
        broker = make_broker(sim, default_size_kb=42.0)
        assert broker.average_size_kb() == 42.0

    def test_running_average(self, sim):
        broker = make_broker(sim)
        broker.install(local_row())
        broker.receive(msg(msg_id=1, size=10.0))
        broker.receive(msg(msg_id=2, size=30.0))
        sim.run()
        assert broker.average_size_kb() == pytest.approx(20.0)


class TestSchedulingSlack:
    def test_zero_slack_is_paper_behaviour(self, sim):
        broker = make_broker(sim)
        assert broker.planning_delay_ms == broker.processing_delay_ms

    def test_slack_adds_to_planning_only(self, sim):
        broker = make_broker(sim, scheduling_slack_per_hop_ms=500.0, processing_delay_ms=2.0)
        assert broker.planning_delay_ms == 502.0
        assert broker.processing_delay_ms == 2.0  # real delay unchanged

    def test_negative_slack_rejected(self, sim):
        with pytest.raises(ValueError):
            make_broker(sim, scheduling_slack_per_hop_ms=-1.0)

    def test_slack_makes_pruning_more_aggressive(self, sim):
        # With a huge per-hop allowance the 30 s deadline looks infeasible
        # and the copy is pruned; without slack it is forwarded.
        def run(slack):
            metrics = LedgerMetricsCollector()
            broker = make_broker(
                sim=Simulator(), strategy=EbStrategy(), metrics=metrics,
                scheduling_slack_per_hop_ms=slack,
            )
            delivered, _ = wire_neighbor(broker, broker.sim, rate=Normal(10.0, 0.0))
            broker.install(remote_row(deadline=30_000.0))
            broker.receive(msg())
            broker.sim.run()
            return len(delivered), metrics.pruned

        assert run(0.0) == (1, 0)
        assert run(40_000.0) == (0, 1)


class TestWiring:
    def test_duplicate_neighbor_rejected(self, sim):
        broker = make_broker(sim)
        wire_neighbor(broker, sim)
        with pytest.raises(ValueError):
            wire_neighbor(broker, sim)

    def test_row_via_unwired_neighbor_rejected(self, sim):
        broker = make_broker(sim)
        with pytest.raises(ValueError):
            broker.install(remote_row(next_hop="nowhere"))

    def test_invalid_processing_delay(self, sim):
        with pytest.raises(ValueError):
            make_broker(sim, processing_delay_ms=-1.0)
