"""A queue entry pays for its columns, score plan and prune horizon only
when something reads them: exact work counters over whole runs.

Counted, not timed: ``ScorePlan`` builds, ``RowGroup.arrays`` gathers and
``prune_horizon`` calls (the prune index's refine step) against the
entries pushed.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.queueing as queueing
from repro.core.metrics import ScorePlan
from repro.experiments.scale import build_scale_system, scale_config
from repro.pubsub.subscription import RowGroup
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, run_to_horizon, schedule_workload
from repro.workload.generator import ArrivalProcess
from repro.workload.scenarios import ScaleScenarioSpec, Scenario


@pytest.fixture
def work(monkeypatch) -> Counter:
    counts: Counter = Counter()
    plan_init = ScorePlan.__init__
    gather = RowGroup.arrays.fget
    horizon = queueing.prune_horizon
    push = queueing.ScheduledQueue.push

    def counting_plan_init(self, *args, **kwargs):
        counts["plans"] += 1
        plan_init(self, *args, **kwargs)

    def counting_gather(self):
        counts["gathers"] += self._arrays is None
        return gather(self)

    def counting_horizon(*args, **kwargs):
        counts["horizons"] += 1
        return horizon(*args, **kwargs)

    def counting_push(self, entry):
        counts["pushes"] += 1
        push(self, entry)

    monkeypatch.setattr(ScorePlan, "__init__", counting_plan_init)
    monkeypatch.setattr(RowGroup, "arrays", property(counting_gather))
    monkeypatch.setattr(queueing, "prune_horizon", counting_horizon)
    monkeypatch.setattr(queueing.ScheduledQueue, "push", counting_push)
    return counts


def _run(system, config: SimulationConfig) -> None:
    schedule_workload(system, config)
    run_to_horizon(system, config, None)


def test_lone_pops_never_gather_plan_or_horizon(work):
    """Near-broadcast over fast links (the smoke-size fanout world): every
    output queue holds one entry at a time, so each is sent alone,
    unscored, before its prune floor arrives."""
    population = ScaleScenarioSpec(
        name="fanout-smoke", subscribers=1_600, selectivity_range=(0.95, 1.0)
    )
    config = scale_config(population, strategy="eb", seed=1, minutes=0.5).replace(
        arrival=ArrivalProcess.FIXED
    )
    system = build_scale_system(population, config)
    _run(system, config)
    assert system.metrics.transmissions == work["pushes"] > 100
    assert (work["plans"], work["gathers"], work["horizons"]) == (0, 0, 0)


def test_congested_run_refines_fewer_horizons_than_it_pushes(work):
    """A congested EBPC run: entries that wait long enough for their
    first row's floor get the full horizon; the rest never do."""
    config = SimulationConfig(
        seed=3, scenario=Scenario.SSD, strategy="ebpc",
        publishing_rate_per_min=30.0, duration_ms=30_000.0,
    )
    _run(build_system(config), config)
    assert work["pushes"] == 973  # one horizon each before the floor key
    assert work["horizons"] == 340
    assert work["horizons"] < work["pushes"]
