"""Runtime regression tests for the hand-enforced invariant the
analyzer audits statically (RL004).

The static rule catches violations at the AST; these tests pin the
*runtime* consequence the rule protects, so a drift that slips past the
analyzer (e.g. an action built dynamically) still fails the suite:
every event the dynamics driver schedules must pickle by reference
(checkpoint/restore serialises the live heap; closures would poison
every snapshot taken while a scenario script is pending).
"""

from __future__ import annotations

import functools
import pickle

import pytest

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
        actions = [ev.action for ev in system.sim.pending() if not ev.cancelled]
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
        for ev in system.sim.pending():
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
        pending = [ev.action for ev in system.sim.pending() if not ev.cancelled]
        assert pending, "cascade scheduled no continuation"
        for action in pending:
            pickle.loads(pickle.dumps(action))


@pytest.mark.parametrize("method", ["install", "install_many", "uninstall", "uninstall_many"])
def test_mutators_exist(method):
    # Guard against a rename silently orphaning perfbench/layers.py
    # TARGETS, which names these by string.
    from repro.pubsub.subscription import SubscriptionTable

    assert callable(getattr(SubscriptionTable, method))
