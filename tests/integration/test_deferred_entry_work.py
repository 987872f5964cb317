"""A queue entry pays for its columns, score plan and prune horizon only
when something reads them: exact work counters over whole runs.

Counted, not timed: ``ScorePlan`` builds (and how many take the class
form, over how many rows and classes), ``RowGroup.arrays`` gathers and
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
from repro.des.rng import RngStreams
from repro.network.topology import LayeredMeshSpec, build_layered_mesh
from repro.sim.runner import build_system, run_to_horizon, schedule_dynamics, schedule_workload
from repro.workload.dynamics import ChurnWave, LinkFailure, LinkRestore, RateBurst, ScenarioScript
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
        if self.inv is not None:
            counts["class_plans"] += 1
            counts["class_rows"] += len(self.inv)
            counts["classes"] += len(self.small)

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


def _congested(strategy: str) -> SimulationConfig:
    return SimulationConfig(
        seed=3, scenario=Scenario.SSD, strategy=strategy,
        publishing_rate_per_min=30.0, duration_ms=30_000.0,
    )


def test_congested_run_refines_fewer_horizons_than_it_pushes(work):
    """A congested EBPC run: entries that wait long enough for their
    first row's floor get the full horizon; the rest never do."""
    config = _congested("ebpc")
    _run(build_system(config), config)
    assert work["pushes"] == 973  # one horizon each before the floor key
    assert work["horizons"] == 340
    assert work["horizons"] < work["pushes"]


def test_expiry_rule_reads_the_deadline_column_alone(work):
    """FIFO queues apply the expiry rule only: the prune floor, the
    horizon and the expired test read the entry's deadline column (the
    group's one-column gather), never the five-column ``arrays``."""
    config = _congested("fifo")
    system = build_system(config)
    _run(system, config)
    assert (work["pushes"], work["horizons"], system.metrics.pruned) == (995, 418, 300)
    assert (work["plans"], work["gathers"]) == (0, 0)


def test_churn_scores_operand_classes_not_rows(work):
    """The smoke-size churn world (four 80/80 waves, a rate burst and an
    outage of the busiest link): every plan of more than ``SMALL_ROWS``
    rows with at most that many distinct operand classes takes the class
    form, and those plans evaluate one ``erf`` per class, not per row."""
    spec = LayeredMeshSpec(subscribers_per_edge_broker=50)
    duration = 120_000.0
    overlay = build_layered_mesh(RngStreams(1).get("topology"), spec)
    a, b, _ = min(overlay.links(), key=lambda link: link[2].mean)
    config = SimulationConfig(
        seed=1, scenario=Scenario.SSD, strategy="eb", publishing_rate_per_min=10.0,
        duration_ms=duration, grace_ms=60_000.0, message_size_kb=50.0,
        topology_spec=spec, arrival=ArrivalProcess.FIXED,
        dynamics=ScenarioScript((
            RateBurst(0.25 * duration, 0.75 * duration, 3.0),
            LinkFailure(at_ms=0.3 * duration, a=a, b=b),
            LinkRestore(at_ms=0.5 * duration, a=a, b=b),
            *(ChurnWave(at_ms=k * duration / 5, leave=80, join=80) for k in range(1, 5)),
        )),
    )
    system = build_system(config)
    schedule_dynamics(system, config)
    _run(system, config)
    assert (work["plans"], work["class_plans"]) == (2_065, 542)
    assert (work["class_rows"], work["classes"]) == (40_832, 5_704)
    # Entries here are small (75 rows, 10.5 classes on average; the
    # 4k-subscriber world averages 203 and 6.9): at least 7 rows a class.
    assert work["classes"] * 7 <= work["class_rows"]
    # Smaller entries take their rows' own operands in one take; only
    # groups of more than SMALL_ROWS classes gather their columns.
    assert work["gathers"] == 13
