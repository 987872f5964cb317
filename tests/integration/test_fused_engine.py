"""The production run path against per-hop matching, on one production stack.

:meth:`PubSubSystem.run` goes through :class:`FusedEngine` (the event
kernel behind a named entry point) and matches each publication once: its
filter verdicts are cached on the message and every broker gathers them
through a route plan.  The "event" arm here drives the same system
through ``system.sim.run()`` with a filter index that drops the cache, so
every broker re-evaluates every filter — what per-table matchers did.
Whole runs of the two stacks are compared in ``test_reference_identity.py``;
this file isolates the verdict cache.  The two arms must be byte-identical
— figure data, delivery-record streams, delivery-log bytes — for every
strategy, both collectors, churn dynamics (joins and leaves between a
publication and its last hop), hard faults and spillable logs, and on
hand-built event geometry: events exactly at the ``until`` horizon,
cancellations, and an unsubscribe between a publish and its processing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import STRATEGY_NAMES
from repro.core.strategies import EbStrategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.network.topology import build_layered_mesh
from repro.pubsub import system as system_module
from repro.pubsub.filters import Predicate
from repro.pubsub.matching import FilterIndex
from repro.pubsub.subscription import Subscription
from repro.pubsub.system import PubSubSystem, SystemConfig
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    build_system,
    run_simulation,
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
from tests.conftest import make_line_topology
from tests.integration.stacks import ScalarCollectorSystem, run_simulation_on

#: The paper topology, a congesting rate, queue pressure and pruning in play.
BASE = SimulationConfig(
    seed=3,
    scenario=Scenario.SSD,
    publishing_rate_per_min=12.0,
    duration_ms=60_000.0,
    grace_ms=30_000.0,
)

CHURNY = ScenarioScript((
    RateBurst(20_000.0, 40_000.0, 3.0),
    ChurnWave(at_ms=25_000.0, leave=6, join=6),
    FlashCrowd(at_ms=35_000.0, count=8),
))


class _UncachedFilterIndex(FilterIndex):
    """Re-evaluates every filter at every call: no verdict outlives a match."""

    def verdicts(self, message):
        message.__dict__.pop("_verdicts", None)
        return super().verdicts(message)


def _uncached(build, *args, **kwargs):
    """``build(*args, **kwargs)`` with the uncached filter index inside."""
    with mock.patch.object(system_module, "FilterIndex", _UncachedFilterIndex):
        return build(*args, **kwargs)


def _drive(system, engine: str, **kw) -> int:
    """Run ``system`` through its engine or straight through the kernel."""
    return system.run(**kw) if engine == "fused" else system.sim.run(**kw)


def _run_figure(system_type: type, config: SimulationConfig, engine: str):
    """:func:`run_simulation` on ``system_type``, uncached for "event"."""
    if engine == "fused":
        return run_simulation_on(system_type, config)
    return _uncached(run_simulation_on, system_type, config)


def _log_digest(system) -> str:
    h = hashlib.sha256()
    for col in system.delivery_log.columns():
        h.update(col.tobytes())
    return h.hexdigest()


def _fingerprint(system) -> tuple:
    m = system.metrics
    return (
        m.published, m.receptions, m.transmissions, m.deliveries_valid,
        m.deliveries_late, m.pruned, m.earning, m.latency_sum_ms,
        system.sim.executed_events, _log_digest(system),
    )


def _run_config(config: SimulationConfig, engine: str = "fused"):
    system = build_system(config) if engine == "fused" else _uncached(build_system, config)
    assert isinstance(system.filters, _UncachedFilterIndex) == (engine == "event")
    schedule_workload(system, config)
    schedule_dynamics(system, config)
    _drive(system, engine, until=config.horizon_ms)
    return system


def _fault_script() -> ScenarioScript:
    """Hard faults against the BASE topology's real broker/link names."""
    topo = build_layered_mesh(RngStreams(BASE.seed).get("topology"))
    a, b, _rate = topo.links()[0]
    victim = topo.brokers[2]
    return ScenarioScript((
        LinkFailure(at_ms=10_000.0, a=a, b=b),
        BrokerOutage(at_ms=25_000.0, broker=victim),
        BrokerRecover(at_ms=45_000.0, broker=victim),
    ))


def result_bytes(result) -> bytes:
    return json.dumps(dataclasses.asdict(result), sort_keys=True).encode()


# --------------------------------------------------------------------- #
# Full-pipeline byte identity.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_fused_figure_data_byte_identical(strategy):
    """All five strategies: serialized figure data agrees byte for byte."""
    fused = run_simulation(BASE.replace(strategy=strategy))
    event = _run_figure(PubSubSystem, BASE.replace(strategy=strategy), "event")
    assert fused == event
    assert result_bytes(fused) == result_bytes(event)


@pytest.mark.parametrize(
    "system_type", [PubSubSystem, ScalarCollectorSystem], ids=["ledger", "scalar"]
)
def test_fused_agrees_for_both_collectors(system_type):
    """Cached verdicts replay per-hop matching whichever collector settles."""
    fused = _run_figure(system_type, BASE, "fused")
    event = _run_figure(system_type, BASE, "event")
    assert result_bytes(fused) == result_bytes(event)


def test_fused_agrees_with_spill_enabled():
    cfg = BASE.replace(log_spill=True, log_chunk_rows=256)
    fused = _run_config(cfg)
    event = _run_config(cfg, engine="event")
    assert fused.delivery_log.spilled_chunks > 0
    assert _fingerprint(fused) == _fingerprint(event)


def test_fused_agrees_under_churn_dynamics():
    """Churn waves rewrite the tables mid-run: a verdict array cached
    before a wave must be recomputed exactly when the filter index
    moved, never read stale."""
    cfg = BASE.replace(duration_ms=90_000.0, dynamics=CHURNY)
    fused = _run_config(cfg)
    event = _run_config(cfg, engine="event")
    assert _fingerprint(fused) == _fingerprint(event)
    fused.metrics.check_invariants()


def test_fused_agrees_under_hard_faults():
    """A link that never comes back and a broker outage: retries and dead
    letters land where per-hop matching puts them."""
    cfg = BASE.replace(dynamics=_fault_script())
    fused = _run_config(cfg)
    event = _run_config(cfg, engine="event")
    assert not fused.faults.clean
    assert fused.faults == event.faults
    assert _fingerprint(fused) == _fingerprint(event)


def test_delivery_record_streams_identical():
    """Per-delivery callback order and endpoint record columns agree —
    the arms must interleave side effects identically, not merely reach
    the same totals."""
    streams: dict[str, tuple] = {}
    for engine in ("fused", "event"):
        config = BASE.replace(strategy="ebpc")
        system = build_system(config) if engine == "fused" else _uncached(build_system, config)
        log: list[tuple] = []
        for broker in system.brokers.values():
            broker.delivery_callbacks.append(
                lambda sub, msg, latency, valid: log.append(
                    (sub, msg.msg_id, latency, valid)
                )
            )
        schedule_workload(system, config)
        _drive(system, engine, until=config.horizon_ms)
        endpoint_records = {
            name: [(r.msg_id, r.time, r.latency_ms, r.valid) for r in h.records]
            for name, h in sorted(system.subscribers.items())
        }
        streams[engine] = (log, endpoint_records)
    assert streams["fused"] == streams["event"]
    assert len(streams["fused"][0]) > 0


# --------------------------------------------------------------------- #
# Adversarial event geometry on a hand-built system.
# --------------------------------------------------------------------- #

MATCH_ALL = Predicate("A1", "<", 1e9)


def _line_system(engine: str = "fused") -> PubSubSystem:
    topo = make_line_topology(
        n=3,
        publishers={"P1": "B1"},
        subscribers={f"S{i}": ("B2" if i % 2 else "B3") for i in range(4)},
    )
    system = (PubSubSystem if engine == "fused" else lambda **kw: _uncached(PubSubSystem, **kw))(
        topology=topo,
        strategy=EbStrategy(),
        sim=Simulator(),
        streams=RngStreams(5),
        config=SystemConfig(message_size_kb=5.0),
    )
    for i in range(4):
        system.subscribe(
            Subscription(f"S{i}", MATCH_ALL, deadline_ms=30_000.0, price=1.0)
        )
    return system


def _hand_fingerprint(system) -> tuple:
    m = system.metrics
    return (
        m.published, m.deliveries_valid, m.deliveries_late, m.earning,
        system.sim.executed_events, system.sim.now, _log_digest(system),
    )


def test_events_exactly_on_window_boundary():
    """Publishes every 100 ms, the last exactly at the ``until`` horizon
    of a closed interval: both arms run it, identically."""
    outcomes = {}
    for engine in ("fused", "event"):
        system = _line_system(engine)
        for k in range(8):
            system.sim.schedule_at(
                100.0 * k, lambda a=float(k): system.publish("P1", {"A1": a})
            )
        _drive(system, engine, until=700.0)
        outcomes[engine] = _hand_fingerprint(system)
        assert system.metrics.published == 8
    assert outcomes["fused"] == outcomes["event"]


def test_cancelled_event_inside_drained_window():
    """A handle cancelled before the run starts: both arms skip it
    without counting it executed."""
    outcomes = {}
    for engine in ("fused", "event"):
        system = _line_system(engine)
        handle = system.sim.schedule_at(
            50.0, lambda: system.publish("P1", {"A1": 1.0})
        )
        system.sim.schedule_at(60.0, lambda: system.publish("P1", {"A1": 2.0}))
        handle.cancel()
        _drive(system, engine, until=30_000.0)
        outcomes[engine] = _hand_fingerprint(system)
    assert outcomes["fused"] == outcomes["event"]
    assert outcomes["fused"][0] == 1  # only the uncancelled publish ran


def test_unsubscribe_between_publish_and_process_rematches():
    """Publish, then unsubscribe before the message's first process event
    fires: the verdicts cached at publish time predate the leave, and the
    index moved, so the broker's match must recompute them."""
    outcomes = {}
    for engine in ("fused", "event"):
        system = _line_system(engine)
        system.sim.schedule_at(10.0, lambda: system.publish("P1", {"A1": 1.0}))
        # The broker's process event fires at 10 + processing delay; this
        # unsubscribe lands in between, leaving the cached verdicts stale.
        system.sim.schedule_at(11.0, lambda: system.unsubscribe("S1"))
        system.sim.schedule_at(5_000.0, lambda: system.publish("P1", {"A1": 2.0}))
        _drive(system, engine, until=60_000.0)
        outcomes[engine] = _hand_fingerprint(system)
    assert outcomes["fused"] == outcomes["event"]


def test_max_events_parity():
    """Stopping after k events leaves both arms in identical states
    (executed count, clock, pending events)."""
    for k in (1, 3, 7, 20):
        states = {}
        for engine in ("fused", "event"):
            system = _line_system(engine)
            for i in range(6):
                system.sim.schedule_at(
                    200.0 * i, lambda a=float(i): system.publish("P1", {"A1": a})
                )
            executed = _drive(system, engine, until=50_000.0, max_events=k)
            states[engine] = (
                executed, system.sim.now, system.sim.executed_events,
                system.sim.pending_events,
            )
        assert states["fused"] == states["event"], f"max_events={k}"


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_interleaved_publish_churn_engines_agree(data):
    """Random interleavings of publish and unsubscribe, with the gaps
    drawn too (some shorter than a hop, so leaves race in-flight copies):
    both arms settle every race identically (endpoint histories
    included)."""
    n_steps = data.draw(st.integers(2, 10), label="steps")
    gaps = [data.draw(st.sampled_from([1.0, 400.0]), label=f"gap@{i}") for i in range(2 * n_steps)]
    plan = []
    alive = [f"S{i}" for i in range(4)]
    for step in range(n_steps):
        if alive and data.draw(st.booleans(), label=f"unsub@{step}"):
            victim = data.draw(st.sampled_from(sorted(alive)), label=f"who@{step}")
            alive.remove(victim)
            plan.append(("unsubscribe", victim))
        plan.append(("publish", data.draw(st.floats(0.0, 9.0), label=f"attr@{step}")))

    outcomes = {}
    for engine in ("fused", "event"):
        system = _line_system(engine)
        removed = {}
        t = 0.0
        for op, gap in zip(plan, gaps):
            t += gap
            if op[0] == "publish":
                system.sim.schedule_at(
                    t, lambda a=op[1]: system.publish("P1", {"A1": a})
                )
            else:
                system.sim.schedule_at(
                    t, lambda s=op[1]: removed.update({s: system.unsubscribe(s)})
                )
        _drive(system, engine)
        m = system.metrics
        m.check_invariants()
        handles = dict(system.subscribers)
        handles.update(removed)
        outcomes[engine] = (
            _hand_fingerprint(system),
            m.duplicate_deliveries, m.per_subscriber_valid,
            {
                name: [(r.msg_id, r.time, r.latency_ms, r.valid) for r in h.records]
                for name, h in sorted(handles.items())
            },
        )
    assert outcomes["fused"] == outcomes["event"]
