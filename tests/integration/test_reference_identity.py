"""Production vs reference: the one whole-run identity suite.

The production stack (:class:`~repro.pubsub.system.PubSubSystem`: one
filter index and per-source route plans, columnar ledger, incremental
queues) and the reference stack (:class:`~repro.reference.ReferenceSystem`:
per-table dict counting matchers, per-delivery collector, full-rescan
queues), on one event kernel,
must agree byte for byte — serialized figure data, delivery-log bytes,
per-delivery callback streams, endpoint records, fault ledgers and
windowed series — for every strategy in both scenarios, with the log
spilled in 256-row chunks, under a churn script and a hard-fault script,
under multi-path duplicate settlement, on random publish/unsubscribe
interleavings, and across a checkpoint and resume.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sentinel import InvariantSentinel
from repro.analysis.timeseries import windowed_metrics
from repro.core.registry import STRATEGY_NAMES
from repro.core.strategies import EbStrategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.network.topology import build_layered_mesh
from repro.pubsub.filters import Predicate
from repro.pubsub.subscription import Subscription
from repro.pubsub.system import PubSubSystem, SystemConfig
from repro.reference import ReferenceSystem
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    build_system,
    resume_run,
    run_simulation,
    save_run_checkpoint,
    schedule_dynamics,
    schedule_workload,
)
from repro.workload.dynamics import (
    BrokerOutage,
    BrokerRecover,
    ChurnWave,
    FlashCrowd,
    LinkFailure,
    RateBurst,
    ScenarioScript,
)
from repro.workload.scenarios import Scenario
from tests.conftest import make_diamond_topology, make_line_topology
from tests.integration.stacks import (
    BruteMatcherSystem,
    OracleMatcherSystem,
    ScalarCollectorSystem,
    ScanQueueSystem,
    build_system_on,
)

#: The paper topology at a congesting rate: queue pressure and pruning in play.
BASE = SimulationConfig(
    seed=3,
    scenario=Scenario.SSD,
    publishing_rate_per_min=12.0,
    duration_ms=60_000.0,
    grace_ms=30_000.0,
)

CHURNY = ScenarioScript((
    RateBurst(20_000.0, 40_000.0, 3.0),
    ChurnWave(at_ms=25_000.0, leave=8, join=8),
    FlashCrowd(at_ms=35_000.0, count=10),
))

MATCH_ALL = Predicate("A1", "<", 1e9)


def _fault_script() -> ScenarioScript:
    """A link that never comes back and a broker outage, against the BASE
    topology's real names."""
    topology = build_layered_mesh(RngStreams(BASE.seed).get("topology"))
    a, b, _rate = topology.links()[0]
    victim = topology.brokers[2]
    return ScenarioScript((
        LinkFailure(at_ms=10_000.0, a=a, b=b),
        BrokerOutage(at_ms=25_000.0, broker=victim),
        BrokerRecover(at_ms=45_000.0, broker=victim),
    ))


def result_bytes(result) -> bytes:
    return json.dumps(dataclasses.asdict(result), sort_keys=True).encode()


def _digest(columns) -> str:
    h = hashlib.sha256()
    for col in columns:
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


def _fingerprint(system, horizon_ms: float) -> dict:
    """Everything a run leaves behind that the two stacks must share."""
    m = system.metrics
    handles = system.subscribers
    ts = windowed_metrics(system, 20_000.0, horizon_ms)
    return {
        "counters": (
            m.published, m.receptions, m.transmissions, m.deliveries_valid,
            m.deliveries_late, m.pruned, m.duplicate_deliveries,
        ),
        "earning": m.earning,
        "latency_sum_ms": m.latency_sum_ms,
        "delivered": dict(m.delivered),
        "per_subscriber_valid": dict(m.per_subscriber_valid),
        "executed_events": system.sim.executed_events,
        "faults": system.faults.summary(),
        "delivery_log": _digest(system.delivery_log.columns()),
        "endpoint_records": {name: _digest(handles[name].columns()) for name in sorted(handles)},
        "windowed_series": _digest((
            ts.edges, ts.published, ts.interested, ts.deliveries_valid,
            ts.deliveries_late, ts.earning, ts.latency_sum_ms,
        )),
    }


def _build(config: SimulationConfig, reference: bool):
    system = build_system(config, reference=reference)
    schedule_workload(system, config)
    schedule_dynamics(system, config)
    return system


def _both(config: SimulationConfig, sentinel: bool = False) -> list:
    """The production and the reference run of ``config``, to the horizon."""
    systems = []
    for reference in (False, True):
        system = _build(config, reference)
        armed = InvariantSentinel(system) if sentinel else None
        system.run(until=config.horizon_ms)
        if armed is not None:
            armed.final()  # raises InvariantViolation on any breach
        systems.append(system)
    return systems


def test_stacks_are_the_assembled_classes():
    production, reference = build_system(BASE), build_system(BASE, reference=True)
    assert type(production) is PubSubSystem and type(reference) is ReferenceSystem
    broker = next(iter(reference.brokers.values()))
    assert type(broker).__name__ == "ReferenceBroker"
    assert type(broker.table).__name__ == "ReferenceTable"
    assert {q.sched.backend_name for q in broker.queues.values()} == {"scan"}


def _layers(system) -> dict:
    broker = next(iter(system.brokers.values()))
    return {
        "matcher": (
            type(getattr(system, "_population", system.filters)),
            type(getattr(broker.table, "_matcher", None)),
        ),
        "metrics": (type(system.metrics), type(broker)._settle),
        "queues": {q.sched.backend_name for q in broker.queues.values()},
    }


@pytest.mark.parametrize(
    "system_type, layer",
    [
        (OracleMatcherSystem, "matcher"),
        (BruteMatcherSystem, "matcher"),
        (ScalarCollectorSystem, "metrics"),
        (ScanQueueSystem, "queues"),
    ],
)
def test_one_layer_stacks_differ_from_production_in_their_layer_only(system_type, layer):
    """The per-layer suites are not vacuous: each of their stacks swaps the
    layer it names, and nothing else."""
    production = _layers(build_system(BASE))
    swapped = _layers(build_system_on(system_type, BASE))
    assert {k for k in production if production[k] != swapped[k]} == {layer}


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@pytest.mark.parametrize("scenario", ("ssd", "psd"))
def test_figure_data(scenario, strategy):
    """All five strategies in both scenarios: identical serialized results."""
    config = BASE.replace(strategy=strategy, scenario=Scenario(scenario))
    production = run_simulation(config)
    reference = run_simulation(config, reference=True)
    assert production == reference
    assert result_bytes(production) == result_bytes(reference)


def test_spill_at_256_row_chunks():
    config = BASE.replace(log_spill=True, log_chunk_rows=256)
    production, reference = _both(config)
    assert production.delivery_log.spilled_chunks > 0
    assert _fingerprint(production, config.horizon_ms) == _fingerprint(
        reference, config.horizon_ms
    )


@pytest.mark.parametrize(
    "scenario, strategy",
    [("ssd", s) for s in STRATEGY_NAMES] + [("psd", "eb")],
    ids=[f"ssd-{s}" for s in STRATEGY_NAMES] + ["psd-eb"],
)
def test_churn_script(scenario, strategy):
    """Churn waves and a flash crowd rewrite the tables mid-run: the
    production filter index's batch calls and the verdicts it recomputes
    for messages in flight across a wave land where the reference puts
    them."""
    config = BASE.replace(
        scenario=Scenario(scenario), strategy=strategy, duration_ms=90_000.0,
        dynamics=CHURNY,
    )
    production, reference = _both(config)
    assert _fingerprint(production, config.horizon_ms) == _fingerprint(
        reference, config.horizon_ms
    )
    production.metrics.check_invariants()


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_hard_fault_script(strategy):
    """Retries and dead letters under a dead link and a broker outage, with
    entry and pair conservation re-proven on both stacks."""
    config = BASE.replace(strategy=strategy, dynamics=_fault_script())
    production, reference = _both(config, sentinel=True)
    assert not production.faults.clean, "fault script never bit"
    assert production.faults == reference.faults
    assert _fingerprint(production, config.horizon_ms) == _fingerprint(
        reference, config.horizon_ms
    )


def test_delivery_record_streams():
    """Per-delivery callback order and endpoint record columns agree: the
    stacks interleave side effects identically, not merely in total."""
    streams = []
    for reference in (False, True):
        config = BASE.replace(strategy="ebpc")
        system = build_system(config, reference=reference)
        log: list[tuple] = []
        for broker in system.brokers.values():
            broker.delivery_callbacks.append(
                lambda sub, msg, latency, valid: log.append((sub, msg.msg_id, latency, valid))
            )
        schedule_workload(system, config)
        system.run(until=config.horizon_ms)
        records = {
            name: [(r.msg_id, r.time, r.latency_ms, r.valid) for r in h.records]
            for name, h in sorted(system.subscribers.items())
        }
        streams.append((log, records))
    assert streams[0] == streams[1]
    assert len(streams[0][0]) > 0


def test_multipath_duplicate_settlement():
    """Multi-path routing delivers a pair twice over different paths; both
    stacks settle first-arrival-wins identically."""
    fingerprints = []
    for system_type in (PubSubSystem, ReferenceSystem):
        system = system_type(
            topology=make_diamond_topology(
                publishers={"P1": "B1"}, subscribers={"S1": "B4", "S2": "B4"},
            ),
            strategy=EbStrategy(),
            sim=Simulator(),
            streams=RngStreams(11),
            config=SystemConfig(routing_paths=2, message_size_kb=5.0),
        )
        system.subscribe(Subscription("S1", MATCH_ALL, deadline_ms=60_000.0, price=2.0))
        system.subscribe(Subscription("S2", MATCH_ALL, deadline_ms=60_000.0, price=3.0))
        for i in range(4):
            system.publish("P1", {"A1": float(i)})
        system.run()
        assert system.metrics.duplicate_deliveries > 0  # the diamond duplicated
        system.metrics.check_invariants()
        fingerprints.append(_fingerprint(system, system.sim.now))
    assert fingerprints[0] == fingerprints[1]


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_interleaved_publish_churn(data):
    """Random interleavings of publish and unsubscribe (copies racing the
    leave): identical accounting and endpoint histories, unsubscribed
    endpoints included."""
    n_steps = data.draw(st.integers(2, 10), label="steps")
    plan = []
    alive = [f"S{i}" for i in range(6)]
    for step in range(n_steps):
        if alive and data.draw(st.booleans(), label=f"unsub@{step}"):
            victim = data.draw(st.sampled_from(sorted(alive)), label=f"who@{step}")
            alive.remove(victim)
            plan.append(("unsubscribe", victim))
        plan.append(("publish", data.draw(st.floats(0.0, 9.0), label=f"attr@{step}")))

    outcomes = []
    for system_type in (PubSubSystem, ReferenceSystem):
        system = system_type(
            topology=make_line_topology(
                n=3, publishers={"P1": "B1"},
                subscribers={f"S{i}": ("B2" if i % 2 else "B3") for i in range(6)},
            ),
            strategy=EbStrategy(),
            sim=Simulator(),
            streams=RngStreams(5),
            config=SystemConfig(message_size_kb=5.0),
        )
        for i in range(6):
            system.subscribe(Subscription(f"S{i}", MATCH_ALL, deadline_ms=30_000.0, price=1.0))
        removed = {}
        t = 0.0
        for op in plan:
            t += 400.0
            if op[0] == "publish":
                system.sim.schedule_at(t, lambda a=op[1]: system.publish("P1", {"A1": a}))
            else:
                system.sim.schedule_at(
                    t, lambda s=op[1]: removed.update({s: system.unsubscribe(s)})
                )
        system.run()
        system.metrics.check_invariants()
        handles = {**system.subscribers, **removed}
        outcomes.append((
            _fingerprint(system, system.sim.now),
            {
                name: [(r.msg_id, r.time, r.latency_ms, r.valid) for r in h.records]
                for name, h in sorted(handles.items())
            },
        ))
    assert outcomes[0] == outcomes[1]


class TestCheckpoint:
    #: The churn script straddles the snapshot: the wave has fired, the
    #: flash crowd is still a pending event inside the pickle.
    CONFIG = BASE.replace(
        strategy="ebpc", duration_ms=90_000.0, dynamics=CHURNY, log_chunk_rows=256
    )

    def test_reference_snapshot_resumes_as_reference(self, tmp_path):
        config = self.CONFIG
        system = _build(config, reference=True)
        system.run(until=30_000.0)
        path, _, _ = save_run_checkpoint(system, config, tmp_path / "ck")
        del system  # identity must come from the restored graph alone
        restored, restored_config, _ = resume_run(path, config=config)
        assert type(restored) is ReferenceSystem
        assert type(next(iter(restored.brokers.values())).table).__name__ == "ReferenceTable"
        restored.run(until=restored_config.horizon_ms)
        resumed = _fingerprint(restored, config.horizon_ms)
        production, reference = _both(config)
        assert resumed == _fingerprint(reference, config.horizon_ms)
        assert resumed == _fingerprint(production, config.horizon_ms)

    def test_resume_keeps_the_stack_that_wrote_it(self, tmp_path):
        config = self.CONFIG.replace(duration_ms=20_000.0)
        system = _build(config, reference=False)
        system.run(until=10_000.0)
        path, _, _ = save_run_checkpoint(system, config, tmp_path / "ck")
        with pytest.raises(ValueError, match="resume"):
            run_simulation(config, resume=path, reference=True)
        assert run_simulation(config, resume=path) == run_simulation(config)
