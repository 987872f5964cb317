"""The fused engine against the per-event kernel, on one production stack.

:meth:`PubSubSystem.run` drains the heap through the fused engine (window
lookahead, speculative batch matching, memo replay); ``system.sim.run()``
drives the very same system one event at a time.  Whole runs of the two
stacks are compared in ``test_reference_identity.py``; this file isolates
the engine.  It must be byte-identical to the kernel — figure data,
delivery-record streams, delivery-log bytes — for every strategy, both
collectors, churn dynamics, hard faults and spillable logs, and it attacks
the window geometry: events exactly on window boundaries, cancellations
inside a drained window, table churn that stales a precomputed match
between lookahead and execution, any window size, and the pending-process
side list the lookahead walks instead of the heap.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import STRATEGY_NAMES
from repro.core.strategies import EbStrategy
from repro.des.event import EventHandle
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.network.topology import build_layered_mesh
from repro.pubsub.engine import DEFAULT_WINDOW_MS, FusedEngine
from repro.pubsub.filters import Predicate
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
from tests.integration.stacks import (
    EventKernelSystem,
    ScalarCollectorEventSystem,
    ScalarCollectorSystem,
    run_simulation_on,
)

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


def _drive(system, engine: str, **kw) -> int:
    """Run ``system`` through the fused engine or the per-event kernel."""
    return system.run(**kw) if engine == "fused" else system.sim.run(**kw)


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


def _run_config(config: SimulationConfig, engine: str = "fused", window_ms: float | None = None):
    system = build_system(config)
    if window_ms is not None:
        system._engine.window_ms = window_ms
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
    event = run_simulation_on(EventKernelSystem, BASE.replace(strategy=strategy))
    assert fused == event
    assert result_bytes(fused) == result_bytes(event)


@pytest.mark.parametrize(
    "fused_type, event_type",
    [
        (PubSubSystem, EventKernelSystem),
        (ScalarCollectorSystem, ScalarCollectorEventSystem),
    ],
    ids=["ledger", "scalar"],
)
def test_fused_agrees_for_both_collectors(fused_type, event_type):
    """The engine replays the kernel whichever collector settles."""
    fused = run_simulation_on(fused_type, BASE)
    event = run_simulation_on(event_type, BASE)
    assert result_bytes(fused) == result_bytes(event)


def test_fused_agrees_with_spill_enabled():
    cfg = BASE.replace(log_spill=True, log_chunk_rows=256)
    fused = _run_config(cfg)
    event = _run_config(cfg, engine="event")
    assert fused.delivery_log.spilled_chunks > 0
    assert _fingerprint(fused) == _fingerprint(event)


def test_fused_agrees_under_churn_dynamics():
    """Churn waves rewrite the tables mid-run: precomputed matches must be
    discarded exactly when the version moved, never consumed stale."""
    cfg = BASE.replace(duration_ms=90_000.0, dynamics=CHURNY)
    fused = _run_config(cfg)
    event = _run_config(cfg, engine="event")
    assert _fingerprint(fused) == _fingerprint(event)
    fused.metrics.check_invariants()


def test_fused_agrees_under_hard_faults():
    """A link that never comes back and a broker outage: retries and dead
    letters are scheduled between the windows the lookahead precomputes,
    and must land where the per-event kernel puts them."""
    cfg = BASE.replace(dynamics=_fault_script())
    fused = _run_config(cfg)
    event = _run_config(cfg, engine="event")
    assert not fused.faults.clean
    assert fused.faults == event.faults
    assert _fingerprint(fused) == _fingerprint(event)


def test_delivery_record_streams_identical():
    """Per-delivery callback order and endpoint record columns agree —
    the engines must interleave side effects identically, not merely
    reach the same totals."""
    streams: dict[str, tuple] = {}
    for engine in ("fused", "event"):
        config = BASE.replace(strategy="ebpc")
        system = build_system(config)
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


@settings(max_examples=10, deadline=None)
@given(
    window_ms=st.one_of(
        st.floats(0.01, 5.0), st.floats(5.0, 500.0), st.floats(1e4, 1e7)
    ),
    seed=st.integers(0, 4),
    strategy=st.sampled_from(STRATEGY_NAMES),
)
def test_window_size_never_changes_results(window_ms, seed, strategy):
    """The window is a pure batching device: any size (sub-event-spacing
    through one-window-covers-the-run) replays the per-event kernel exactly."""
    cfg = BASE.replace(seed=seed, strategy=strategy, duration_ms=30_000.0)
    assert _fingerprint(_run_config(cfg, window_ms=window_ms)) == _fingerprint(
        _run_config(cfg, engine="event")
    )


# --------------------------------------------------------------------- #
# Adversarial window geometry on a hand-built system.
# --------------------------------------------------------------------- #

MATCH_ALL = Predicate("A1", "<", 1e9)


def _line_system(window_ms: float = DEFAULT_WINDOW_MS) -> PubSubSystem:
    topo = make_line_topology(
        n=3,
        publishers={"P1": "B1"},
        subscribers={f"S{i}": ("B2" if i % 2 else "B3") for i in range(4)},
    )
    system = PubSubSystem(
        topology=topo,
        strategy=EbStrategy(),
        sim=Simulator(),
        streams=RngStreams(5),
        config=SystemConfig(message_size_kb=5.0),
    )
    system._engine.window_ms = window_ms
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
    """Publishes landing exactly at multiples of the window must drain in
    the window whose closed end they sit on, identically to the oracle."""
    outcomes = {}
    for engine in ("fused", "event"):
        system = _line_system(window_ms=100.0)
        for k in range(8):
            system.sim.schedule_at(
                100.0 * k, lambda a=float(k): system.publish("P1", {"A1": a})
            )
        _drive(system, engine, until=2_000.0)
        outcomes[engine] = _hand_fingerprint(system)
    assert outcomes["fused"] == outcomes["event"]


def test_cancelled_event_inside_drained_window():
    """A handle cancelled before the run starts sits inside the first
    window; both engines must skip it without counting it executed."""
    outcomes = {}
    for engine in ("fused", "event"):
        system = _line_system(window_ms=10_000.0)
        handle = system.sim.schedule_at(
            50.0, lambda: system.publish("P1", {"A1": 1.0})
        )
        system.sim.schedule_at(60.0, lambda: system.publish("P1", {"A1": 2.0}))
        handle.cancel()
        _drive(system, engine, until=30_000.0)
        outcomes[engine] = _hand_fingerprint(system)
    assert outcomes["fused"] == outcomes["event"]
    assert outcomes["fused"][0] == 1  # only the uncancelled publish ran


def test_unsubscribe_between_lookahead_and_process_discards_memo():
    """Publish, then unsubscribe before the message's process event fires
    — all inside one window.  The lookahead may have matched against the
    pre-churn table; the version bump must force a rematch."""
    outcomes = {}
    for engine in ("fused", "event"):
        system = _line_system(window_ms=60_000.0)
        system.sim.schedule_at(10.0, lambda: system.publish("P1", {"A1": 1.0}))
        # The broker's process event fires at 10 + processing delay; this
        # unsubscribe lands in between, staling any precomputed match.
        system.sim.schedule_at(
            11.0, lambda: system.unsubscribe("S1")
        )
        system.sim.schedule_at(5_000.0, lambda: system.publish("P1", {"A1": 2.0}))
        _drive(system, engine, until=60_000.0)
        outcomes[engine] = _hand_fingerprint(system)
    assert outcomes["fused"] == outcomes["event"]


def test_max_events_parity():
    """Stopping after k events leaves both engines in identical states
    (executed count, clock, pending events)."""
    for k in (1, 3, 7, 20):
        states = {}
        for engine in ("fused", "event"):
            system = _line_system()
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
    """Random interleavings of publish and unsubscribe, with a randomized
    window, inside one window or across many: both engines settle every
    in-flight race identically (endpoint histories included)."""
    n_steps = data.draw(st.integers(2, 10), label="steps")
    window_ms = data.draw(
        st.sampled_from([1.0, 50.0, 400.0, 1e6]), label="window"
    )
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
        system = _line_system(window_ms=window_ms)
        removed = {}
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


# --------------------------------------------------------------------- #
# The pending-process side list against the whole-heap scan it replaced.
# --------------------------------------------------------------------- #

def _heap_scan(sim: Simulator, wend: float) -> list[tuple[str, int]]:
    """What the lookahead used to gather: every live ``"process"`` event
    in the heap due by ``wend`` whose match memo is missing or stale."""
    found = []
    for ev in sim._heap:
        if ev.kind == "process" and not ev.cancelled and ev.time <= wend:
            broker, message = ev.payload
            memo = broker._match_memo.get(message.msg_id)
            if memo is None or memo[0] != broker.table.version:
                found.append((broker.name, message.msg_id))
    return sorted(found)


def _audit_lookahead(system) -> list[list[tuple[str, int]]]:
    """Check every lookahead of ``system``'s engine against the heap scan;
    returns the (live) list of what each call gathered."""
    engine = system._engine
    precompute = engine._precompute
    gathered: list[list[tuple[str, int]]] = []

    def audited(wend: float) -> None:
        from_list = sorted(
            (ev.payload[0].name, ev.payload[1].msg_id)
            for ev in engine._due_unmatched(wend)
        )
        assert from_list == _heap_scan(system.sim, wend)
        gathered.append(from_list)
        precompute(wend)

    engine._precompute = audited
    return gathered


def test_side_list_yields_what_the_heap_scan_yields_under_churn():
    cfg = BASE.replace(strategy="eb", duration_ms=90_000.0, dynamics=CHURNY)
    system = build_system(cfg)
    schedule_workload(system, cfg)
    schedule_dynamics(system, cfg)
    gathered = _audit_lookahead(system)
    system.run(until=cfg.horizon_ms)
    pairs = {pair for call in gathered for pair in call}
    assert len(pairs) > system.metrics.published  # every hop looked ahead
    assert all(not ev.done for ev in system.sim._watched["process"])
    assert _fingerprint(system) == _fingerprint(_run_config(cfg, engine="event"))


def test_side_list_regathers_a_process_event_staled_by_churn():
    """Two messages matched in one lookahead; an unsubscribe lands between
    their process steps, so the second is gathered (and matched) again."""
    system = _line_system(window_ms=10_000.0)
    system.sim.schedule_at(10.0, lambda: system.publish("P1", {"A1": 1.0}))
    system.sim.schedule_at(10.5, lambda: system.publish("P1", {"A1": 2.0}))
    system.sim.schedule_at(12.2, lambda: system.unsubscribe("S1"))
    gathered = _audit_lookahead(system)
    system.run()
    at_b1 = [[pair for pair in call if pair[0] == "B1"] for call in gathered]
    assert [call for call in at_b1 if call] == [[("B1", 0), ("B1", 1)], [("B1", 1)]]


def test_side_list_skips_a_cancelled_process_event():
    outcomes = {}
    for engine in ("fused", "event"):
        system = _line_system(window_ms=10_000.0)
        sim = system.sim

        def cancel_pending_process() -> None:
            (event,) = [ev for ev in sim._heap if ev.kind == "process"]
            assert EventHandle(event, sim._note_cancelled).cancel()

        sim.schedule_at(10.0, lambda: system.publish("P1", {"A1": 1.0}))
        sim.schedule_at(11.0, cancel_pending_process)  # before B1 processes it
        sim.schedule_at(20.0, lambda: system.publish("P1", {"A1": 2.0}))
        gathered = _audit_lookahead(system) if engine == "fused" else None
        _drive(system, engine)
        if gathered is not None:
            assert {pair for call in gathered for pair in call} == {
                ("B1", 1), ("B2", 1), ("B3", 1)
            }
        outcomes[engine] = _hand_fingerprint(system)
    assert outcomes["fused"] == outcomes["event"]
    assert outcomes["fused"][:2] == (2, 4)  # only the second message arrived


def test_side_list_is_empty_after_a_drained_run_and_absent_under_event():
    for engine, watched in (("fused", {"process": []}), ("event", {})):
        system = _line_system()
        for k in range(6):
            system.sim.schedule_at(
                200.0 * k, lambda a=float(k): system.publish("P1", {"A1": a})
            )
        _drive(system, engine)
        assert system.sim.pending_events == 0
        assert system.sim._watched == watched


# --------------------------------------------------------------------- #
# Construction.
# --------------------------------------------------------------------- #

def test_nonpositive_window_rejected():
    for window_ms in (0.0, -1.0):
        with pytest.raises(ValueError):
            FusedEngine(Simulator(), window_ms=window_ms)
