"""The delivery log is the one delivery record; the ledger reduces it.

Exact counters rather than timings: over whole runs every log row is
reduced exactly once however often the metrics are read, production
brokers never hand a delivery to the ledger, and — because local groups
come from the live subscription table — every settled delivery has a log
row, even when a subscriber leaves and re-joins under the same name while
copies addressed to its old subscription are still in flight.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sentinel import InvariantSentinel
from repro.core.strategies import EbStrategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.pubsub.filters import Predicate
from repro.pubsub.metrics import LedgerMetricsCollector
from repro.pubsub.subscription import Subscription
from repro.pubsub.system import PubSubSystem, SystemConfig
from repro.reference import ReferenceSystem
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, run_to_horizon, schedule_dynamics, schedule_workload
from repro.workload.dynamics import ChurnWave, FlashCrowd, RateBurst, ScenarioScript
from repro.workload.scenarios import Scenario
from tests.conftest import make_line_topology

CHURN = SimulationConfig(
    seed=4,
    scenario=Scenario.SSD,
    strategy="eb",
    publishing_rate_per_min=12.0,
    duration_ms=60_000.0,
    grace_ms=30_000.0,
    sentinel_every_ms=5_000.0,
    dynamics=ScenarioScript((
        RateBurst(20_000.0, 40_000.0, 3.0),
        ChurnWave(at_ms=15_000.0, leave=10, join=10),
        ChurnWave(at_ms=30_000.0, leave=10, join=10),
        FlashCrowd(at_ms=35_000.0, count=10),
    )),
)

MATCH_ALL = Predicate("A1", "<", 1e9)

#: The ledger's delivery entry points: the standalone ledger's only.
ENTRY_POINTS = ("on_delivery", "on_delivery_batch", "on_delivery_batch_ids")


def _churn_system(config: SimulationConfig) -> PubSubSystem:
    system = build_system(config)
    schedule_workload(system, config)
    schedule_dynamics(system, config)
    return system


def test_each_log_row_is_reduced_once_over_a_sentinel_churn_run():
    config = CHURN.replace(log_chunk_rows=64)
    system = _churn_system(config)
    sentinel = InvariantSentinel(system, deep=True)
    run_to_horizon(system, config, sentinel)
    m, log = system.metrics, system.delivery_log
    assert sentinel.checks_run > 10 and system.unsubscribe_count == 20
    assert len(log) > 64 * 10  # the reads landed across many seals
    assert m.rows_reduced == len(log)
    assert m.deliveries_valid + m.deliveries_late == len(log)  # single path: no duplicates


def test_production_brokers_never_call_the_ledger_delivery_entries():
    patches = [mock.patch.object(LedgerMetricsCollector, name) for name in ENTRY_POINTS]
    mocks = [p.start() for p in patches]
    try:
        system = _churn_system(CHURN)
        system.run(until=CHURN.horizon_ms)
    finally:
        for p in patches:
            p.stop()
    assert [m.call_count for m in mocks] == [0, 0, 0]
    assert system.metrics.deliveries_valid > 0
    assert system.metrics.rows_reduced == len(system.delivery_log)


def _outcome(system) -> tuple:
    m = system.metrics
    log_bytes = hashlib.sha256()
    for col in system.delivery_log.columns():
        log_bytes.update(np.ascontiguousarray(col).tobytes())
    return (
        m.published, m.deliveries_valid, m.deliveries_late, m.duplicate_deliveries,
        m.earning.hex(), m.latency_sum_ms.hex(), m.delivered, m.per_subscriber_valid,
        system.sim.executed_events, log_bytes.hexdigest(), len(system.delivery_log),
    )


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_rejoin_under_the_same_name_with_copies_in_flight(data):
    """Leaves and re-joins (at another price, too) race the copies still
    queued for the old subscription: the log holds exactly the settled
    deliveries, and the ledger reducing it equals the scalar collector,
    which settles by subscriber name."""
    names = [f"S{i}" for i in range(4)]
    plan = []
    alive = set(names)
    for step in range(data.draw(st.integers(2, 12), label="steps")):
        name = data.draw(st.sampled_from(names), label=f"who@{step}")
        if name in alive and data.draw(st.booleans(), label=f"leave@{step}"):
            alive.remove(name)
            plan.append(("leave", name))
        elif name not in alive:
            alive.add(name)
            plan.append(("join", name, data.draw(st.sampled_from((1.0, 2.0, 5.0)))))
        plan.append(("publish", data.draw(st.floats(0.0, 9.0), label=f"attr@{step}")))
    gaps = data.draw(st.lists(
        st.floats(5.0, 120.0), min_size=len(plan), max_size=len(plan)
    ), label="gaps")

    outcomes = []
    for system_type in (PubSubSystem, ReferenceSystem):
        system = system_type(
            topology=make_line_topology(
                n=3, publishers={"P1": "B1"},
                subscribers={name: ("B2" if i % 2 else "B3") for i, name in enumerate(names)},
            ),
            strategy=EbStrategy(),
            sim=Simulator(),
            streams=RngStreams(5),
            config=SystemConfig(message_size_kb=5.0),
        )
        system.subscribe_all([
            Subscription(name, MATCH_ALL, deadline_ms=400.0, price=1.0) for name in names
        ])
        t = 0.0
        for op, gap in zip(plan, gaps):
            t += gap
            if op[0] == "publish":
                action = lambda a=op[1]: system.publish("P1", {"A1": a})  # noqa: E731
            elif op[0] == "leave":
                action = lambda s=op[1]: system.unsubscribe(s)  # noqa: E731
            else:
                action = lambda s=op[1], p=op[2]: system.subscribe(  # noqa: E731
                    Subscription(s, MATCH_ALL, deadline_ms=400.0, price=p)
                )
            system.sim.schedule_at(t, action)
        system.run()
        system.metrics.check_invariants()
        outcomes.append(_outcome(system))
    production = outcomes[0]
    valid, late, duplicates = production[1:4]
    assert duplicates == 0 and valid + late == production[-1]
    assert production == outcomes[1]
