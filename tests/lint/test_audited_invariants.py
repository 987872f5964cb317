"""Runtime regression tests for the two hand-enforced invariants the
analyzer audits statically (RL004/RL005 and the journal discipline).

The static rules catch violations at the AST; these tests pin the
*runtime* consequence the rules protect, so a drift that slips past the
analyzer (e.g. an action built dynamically) still fails the suite:

- every event the dynamics driver schedules must pickle by reference
  (checkpoint/restore serialises the live heap; closures would poison
  every snapshot taken while a scenario script is pending), and
- every mutating path of :class:`SubscriptionTable` must append to an
  armed journal, or shard replicas silently diverge from the
  coordinator (same-version check passes, different table contents).
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro.pubsub.message import Message
from repro.pubsub.shard_engine import _replay_ops
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, schedule_dynamics
from repro.workload.dynamics import (
    CascadeOutage,
    ChurnWave,
    FlashCrowd,
    RateBurst,
    ScenarioScript,
)
from repro.workload.scenarios import Scenario
from tests.core.helpers import assert_same_table, block_of


def _config(script: ScenarioScript) -> SimulationConfig:
    return SimulationConfig(
        seed=11,
        scenario=Scenario.SSD,
        strategy="eb",
        publishing_rate_per_min=6.0,
        duration_ms=60_000.0,
        dynamics=script,
    )


FULL_SCRIPT = ScenarioScript((
    RateBurst(0.0, 30_000.0, 2.0),
    ChurnWave(at_ms=10_000.0, leave=2, join=2),
    FlashCrowd(at_ms=20_000.0, count=4),
    CascadeOutage(at_ms=30_000.0, origin="B1", spread_prob=0.5,
                  recover_after_ms=5_000.0),
))


class TestEventActionPicklability:
    def test_scheduled_actions_are_partials_of_named_callables(self):
        # The RL004 contract, checked on the live heap: no action may be
        # a lambda or a function nested inside another function.
        system = build_system(_config(FULL_SCRIPT))
        assert schedule_dynamics(system, _config(FULL_SCRIPT)) is not None
        actions = [ev.action for ev in system.sim._heap if not ev.cancelled]
        assert actions, "script scheduled no events"
        for action in actions:
            fn = action.func if isinstance(action, functools.partial) else action
            name = getattr(fn, "__qualname__", getattr(fn, "__name__", ""))
            assert "<lambda>" not in name, name
            assert "<locals>" not in name, name

    def test_scheduled_actions_pickle_and_restore(self):
        config = _config(FULL_SCRIPT)
        system = build_system(config)
        schedule_dynamics(system, config)
        for ev in system.sim._heap:
            if ev.cancelled:
                continue
            restored = pickle.loads(pickle.dumps(ev.action))
            assert callable(restored)

    def test_cascade_continuation_events_stay_picklable(self):
        # The cascade reschedules itself from *inside* an event action —
        # the follow-up waves must obey the same discipline as the
        # initial script events.
        config = _config(ScenarioScript((
            CascadeOutage(at_ms=1_000.0, origin="B1", spread_prob=1.0,
                          step_ms=500.0, max_depth=3,
                          recover_after_ms=60_000.0),
        )))
        system = build_system(config)
        schedule_dynamics(system, config)
        system.sim.run(until=1_600.0)  # first wave has fired and rescheduled
        pending = [ev.action for ev in system.sim._heap if not ev.cancelled]
        assert pending, "cascade scheduled no continuation"
        for action in pending:
            pickle.loads(pickle.dumps(action))


def _table_pair():
    config = _config(ScenarioScript())
    system = build_system(config)
    name = sorted(system.brokers)[0]
    return system, system.brokers[name].table


def _rows_of(table, subscriber):
    return [r for r in table.rows() if r.subscriber == subscriber]


def _first_subscribers(table, count):
    return sorted({r.subscriber for r in table.rows()})[:count]


class TestJournalCompleteness:
    def test_every_mutation_kind_journals(self):
        system, table = _table_pair()
        table.journal = []
        victim, other = _first_subscribers(table, 2)
        rows = _rows_of(table, victim)
        table.uninstall(victim)
        assert table.journal == [("u", [victim])]
        table.install(rows[0])
        assert table.journal[-1] == ("i", rows[0])
        # A bulk install journals the block once, however many rows.
        block = block_of(_rows_of(table, other))
        table.uninstall(other)
        table.install_many(block)
        assert table.journal[2:] == [("u", [other]), ("m", block)]

    def test_replayed_replica_matches_coordinator_exactly(self):
        # The property the sharded engine relies on: replaying the
        # journal slice leaves a replica at the same version with the
        # same row and interned ids, so matching decisions are
        # byte-identical.
        system, table = _table_pair()
        replica = pickle.loads(pickle.dumps(table))
        replica.journal = None
        table.journal = []

        victims = _first_subscribers(table, 2)
        stashed = {v: _rows_of(table, v) for v in victims}
        for v in victims:
            table.uninstall(v)
        table.install_many(block_of(stashed[victims[0]]))
        table.install(stashed[victims[1]][0])

        _replay_ops(replica, table.journal)
        probe = Message(
            msg_id=10**6, publisher="P1",
            source_broker=sorted(system.topology.publisher_brokers.values())[0],
            attributes={f"A{k}": 0.0 for k in range(1, 11)},
            size_kb=1.0, publish_time=0.0,
        )
        assert assert_same_table(replica, table, [probe]) > 0

    def test_stale_replica_version_detectable(self):
        # A mutation that bypassed the journal would leave versions
        # equal with different contents; the version counter is the
        # coordinator's staleness check, so it must advance per op.
        _, table = _table_pair()
        table.journal = []
        v0 = table.version
        table.uninstall(_first_subscribers(table, 1)[0])
        assert table.version == v0 + 1
        assert len(table.journal) == 1


@pytest.mark.parametrize("method", ["install", "install_many", "uninstall", "uninstall_many"])
def test_mutators_exist(method):
    # Guard against a rename silently orphaning the journal tests above.
    from repro.pubsub.subscription import SubscriptionTable

    assert callable(getattr(SubscriptionTable, method))
