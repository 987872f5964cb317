"""Whole-simulation differential tests for the accounting layer alone.

The columnar delivery path (batched ``Broker._process`` local delivery,
ledger accounting, array-backed endpoints) must be decision- and
byte-identical to the production system with the per-delivery scalar
collector in its place and nothing else swapped
(``tests/integration/stacks.py``): same figure data once serialised, same
per-delivery record stream, same endpoint records — across every
strategy, and under multi-path duplicate settlement and subscription
churn.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import STRATEGY_NAMES
from repro.core.strategies import EbStrategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.pubsub.filters import Predicate
from repro.pubsub.subscription import Subscription
from repro.pubsub.system import PubSubSystem, RoutingMode, SystemConfig
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, run_simulation, schedule_workload
from repro.workload.scenarios import Scenario
from tests.conftest import make_diamond_topology, make_line_topology
from tests.integration.stacks import ScalarCollectorSystem, build_system_on, run_simulation_on

#: Small but non-trivial: the paper topology, a congesting rate, both
#: queue pressure and pruning in play.
BASE = SimulationConfig(
    seed=3,
    scenario=Scenario.SSD,
    publishing_rate_per_min=12.0,
    duration_ms=60_000.0,
    grace_ms=30_000.0,
)

#: The two collectors, by the name each test keys its outcome on.
STACKS = {"ledger": PubSubSystem, "scalar": ScalarCollectorSystem}


def result_bytes(result) -> bytes:
    return json.dumps(dataclasses.asdict(result), sort_keys=True).encode()


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_ledger_and_scalar_figure_data_byte_identical(strategy):
    """All five strategies: identical serialized figure data."""
    ledger = run_simulation(BASE.replace(strategy=strategy))
    scalar = run_simulation_on(ScalarCollectorSystem, BASE.replace(strategy=strategy))
    assert ledger == scalar
    assert result_bytes(ledger) == result_bytes(scalar)


def test_delivery_records_identical():
    """Every local delivery (subscriber, message, latency, validity), its
    order, and every endpoint's record columns must match between the
    collectors — not just the aggregates."""
    config = BASE.replace(strategy="ebpc")
    streams: dict[str, tuple] = {}
    for name, system in (
        ("ledger", build_system(config)),
        ("scalar", build_system_on(ScalarCollectorSystem, config)),
    ):
        log: list[tuple] = []
        for broker in system.brokers.values():
            broker.delivery_callbacks.append(
                lambda sub, msg, latency, valid: log.append(
                    (sub, msg.msg_id, latency, valid)
                )
            )
        schedule_workload(system, config)
        system.run(until=config.horizon_ms)
        endpoint_records = {
            sub: [(r.msg_id, r.time, r.latency_ms, r.valid) for r in h.records]
            for sub, h in sorted(system.subscribers.items())
        }
        streams[name] = (log, endpoint_records)
    assert streams["ledger"] == streams["scalar"]
    assert len(streams["ledger"][0]) > 0


def test_psd_scenario_agrees_too():
    config = BASE.replace(scenario=Scenario.PSD)
    ledger = run_simulation(config)
    scalar = run_simulation_on(ScalarCollectorSystem, config)
    assert result_bytes(ledger) == result_bytes(scalar)


MATCH_ALL = Predicate("A1", "<", 1e9)


def _diamond_system(system_type: type) -> PubSubSystem:
    topo = make_diamond_topology(
        publishers={"P1": "B1"}, subscribers={"S1": "B4", "S2": "B4"},
    )
    system = system_type(
        topology=topo,
        strategy=EbStrategy(),
        sim=Simulator(),
        streams=RngStreams(11),
        config=SystemConfig(routing=RoutingMode.multi_path(k=2), default_size_kb=5.0),
    )
    system.subscribe(Subscription("S1", MATCH_ALL, deadline_ms=60_000.0, price=2.0))
    system.subscribe(Subscription("S2", MATCH_ALL, deadline_ms=60_000.0, price=3.0))
    return system


def test_multipath_duplicate_settlement_order_identical():
    """Multi-path routing delivers the same pair twice via different
    paths; both collectors must settle first-arrival-wins identically."""
    outcomes = {}
    for name, system_type in STACKS.items():
        system = _diamond_system(system_type)
        for i in range(4):
            system.publish("P1", {"A1": float(i)})
        system.run()
        m = system.metrics
        assert m.duplicate_deliveries > 0  # the diamond produced duplicates
        outcomes[name] = (
            m.deliveries_valid, m.deliveries_late, m.duplicate_deliveries,
            m.earning, m.latency_sum_ms, m.delivered, m.per_subscriber_valid,
            {
                sub: [(r.msg_id, r.time, r.latency_ms, r.valid) for r in h.records]
                for sub, h in sorted(system.subscribers.items())
            },
        )
        m.check_invariants()
    assert outcomes["ledger"] == outcomes["scalar"]


# --------------------------------------------------------------------- #
# Churn: interleaved publish/unsubscribe against both collectors.
# --------------------------------------------------------------------- #

def _churn_system(system_type: type) -> PubSubSystem:
    topo = make_line_topology(
        n=3,
        publishers={"P1": "B1"},
        subscribers={f"S{i}": ("B2" if i % 2 else "B3") for i in range(6)},
    )
    return system_type(
        topology=topo,
        strategy=EbStrategy(),
        sim=Simulator(),
        streams=RngStreams(5),
        config=SystemConfig(default_size_kb=5.0),
    )


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_churn_backends_agree(data):
    """Random interleavings of publish and unsubscribe (racing in-flight
    copies) leave both collectors with identical accounting and identical
    endpoint histories — including records of unsubscribed endpoints."""
    n_steps = data.draw(st.integers(2, 10), label="steps")
    plan = []
    alive = [f"S{i}" for i in range(6)]
    for step in range(n_steps):
        if alive and data.draw(st.booleans(), label=f"unsub@{step}"):
            victim = data.draw(st.sampled_from(sorted(alive)), label=f"who@{step}")
            alive.remove(victim)
            plan.append(("unsubscribe", victim))
        plan.append(("publish", data.draw(st.floats(0.0, 9.0), label=f"attr@{step}")))

    outcomes = {}
    for name, system_type in STACKS.items():
        system = _churn_system(system_type)
        removed = {}
        for i in range(6):
            system.subscribe(
                Subscription(f"S{i}", MATCH_ALL, deadline_ms=30_000.0, price=1.0)
            )
        t = 0.0
        for op in plan:
            t += 400.0
            if op[0] == "publish":
                system.sim.schedule_at(
                    t, lambda a=op[1]: system.publish("P1", {"A1": a})
                )
            else:
                system.sim.schedule_at(
                    t, lambda s=op[1]: removed.update({s: system.unsubscribe(s)})
                )
        system.run()
        m = system.metrics
        m.check_invariants()
        handles = dict(system.subscribers)
        handles.update(removed)
        outcomes[name] = (
            m.published, m.receptions, m.deliveries_valid, m.deliveries_late,
            m.duplicate_deliveries, m.earning, m.latency_sum_ms,
            m.delivered, m.per_subscriber_valid,
            {
                sub: [(r.msg_id, r.time, r.latency_ms, r.valid) for r in h.records]
                for sub, h in sorted(handles.items())
            },
        )
    assert outcomes["ledger"] == outcomes["scalar"]
