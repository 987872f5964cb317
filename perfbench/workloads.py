"""The four benchmark workloads: inputs generated from ``--seed``.

The program under test receives only what is built here — a
``SimulationConfig`` (with its ``ScenarioScript``) per simulation, a
population spec where the paper's 160-subscriber population is replaced,
and the simulated time of the one checkpoint.

Every workload runs in the **same deployed world**: the paper's layered
mesh and the initial subscription population are both drawn from
:data:`WORLD_SEED`.  ``--seed`` drives the traffic — publication phases and
attribute values, link transmission draws, churn picks and the filters of
subscribers who join — and publications arrive at a fixed period, not as a
Poisson process.  A host-time bound cannot tell world variance from a
regression: with overlay, population and publication count all drawn per
seed, the executed-event count moved by 31 % between seeds on ``fanout`` and
3.5 % on ``paper-congested``; as built here, by 0 % and 1.3 %.

Sizes are set by the driver's budget, not by the paper: one cycle (fresh
interpreter, set-up, run, analysis) must fit several times into a
30-second run.  ``smoke`` sizes exist for the contract test only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.chunked import DEFAULT_CHUNK_ROWS
from repro.des.rng import RngStreams
from repro.experiments.scale import scale_config
from repro.network import topology as topology_mod
from repro.network.topology import LayeredMeshSpec, Topology
from repro.sim.config import SimulationConfig
from repro.workload.dynamics import (
    ChurnWave,
    LinkFailure,
    LinkRestore,
    RateBurst,
    ScenarioScript,
)
from repro.pubsub.subscription import Subscription
from repro.workload import scenarios
from repro.workload.generator import ArrivalProcess
from repro.workload.scenarios import ScaleScenarioSpec, Scenario

#: Seed of the ``"topology"`` and ``"subscriptions"`` streams of every workload.
WORLD_SEED = 1

WORKLOADS = (
    "paper-congested",
    "fanout-16k",
    "churn-faults-4k",
    "spill-checkpoint-16k",
)


@dataclass(frozen=True)
class Leg:
    """One simulation of a workload."""

    label: str
    config: SimulationConfig
    #: Zipf-pooled population replacing the paper's (fan-out workloads).
    population: ScaleScenarioSpec | None = None
    #: Snapshot, discard and resume the run at this simulated time.
    checkpoint_at_ms: float | None = None


def build_overlay(spec: LayeredMeshSpec) -> Topology:
    """The fixed overlay, with ``spec``'s subscribers attached.

    Called through the module attribute so the traced run sees it.
    """
    return topology_mod.build_layered_mesh(RngStreams(WORLD_SEED).get("topology"), spec)


def build_population(leg: Leg, topology: Topology) -> list[Subscription]:
    """The fixed initial population of ``leg`` (same remark)."""
    rng = RngStreams(WORLD_SEED).get("subscriptions")
    if leg.population is None:
        return scenarios.build_subscriptions(leg.config.scenario, rng, topology)
    return scenarios.build_scale_subscriptions(rng, topology, leg.population)


def _paper_congested(seed: int, smoke: bool) -> tuple[Leg, ...]:
    minutes = 1.0 if smoke else 10.0
    base = SimulationConfig(
        seed=seed,
        scenario=Scenario.SSD,
        publishing_rate_per_min=20.0,
        duration_ms=minutes * 60_000.0,
        grace_ms=60_000.0,
        message_size_kb=50.0,
        arrival=ArrivalProcess.FIXED,
    )
    return tuple(Leg(s, base.replace(strategy=s)) for s in ("fifo", "ebpc"))


def _fanout(seed: int, smoke: bool, spill: bool) -> Leg:
    # Thresholds at the very top of the value range: nearly every message
    # reaches nearly everyone, so 60 messages make a steady amount of work.
    population = ScaleScenarioSpec(
        name="bench", subscribers=1_600 if smoke else 16_000, selectivity_range=(0.95, 1.0)
    )
    config = scale_config(
        population,
        strategy="eb",
        seed=seed,
        rate_per_min=10.0,
        minutes=0.5 if smoke else 1.5,
        spill=spill,
        # Smoke logs are small: shrink the chunks so some still seal and spill.
        chunk_rows=4_096 if smoke else DEFAULT_CHUNK_ROWS,
    ).replace(arrival=ArrivalProcess.FIXED)
    return Leg(
        "eb", config, population=population,
        checkpoint_at_ms=config.horizon_ms / 2.0 if spill else None,
    )


def _churn_faults(seed: int, smoke: bool) -> tuple[Leg, ...]:
    per_edge, minutes, waves, wave_size = (50, 2.0, 4, 80) if smoke else (250, 5.0, 16, 400)
    spec = LayeredMeshSpec(subscribers_per_edge_broker=per_edge)
    duration = minutes * 60_000.0
    # Min-mean-rate routing concentrates paths on the fastest link, so
    # that is the link whose outage backs the most traffic up.
    a, b, _ = min(build_overlay(spec).links(), key=lambda link: link[2].mean)
    script = ScenarioScript((
        RateBurst(0.25 * duration, 0.75 * duration, 3.0),
        LinkFailure(at_ms=0.3 * duration, a=a, b=b),
        LinkRestore(at_ms=0.5 * duration, a=a, b=b),
        *(
            ChurnWave(at_ms=(k + 1) * duration / (waves + 1), leave=wave_size, join=wave_size)
            for k in range(waves)
        ),
    ))
    config = SimulationConfig(
        seed=seed,
        scenario=Scenario.SSD,
        strategy="eb",
        publishing_rate_per_min=10.0,
        duration_ms=duration,
        grace_ms=60_000.0,
        message_size_kb=50.0,
        topology_spec=spec,
        dynamics=script,
        arrival=ArrivalProcess.FIXED,
    )
    return (Leg("eb", config),)


def make_workload(name: str, seed: int, smoke: bool = False) -> tuple[Leg, ...]:
    """The simulations of workload ``name``, in run order."""
    if name == "paper-congested":
        return _paper_congested(seed, smoke)
    if name == "fanout-16k":
        return (_fanout(seed, smoke, spill=False),)
    if name == "churn-faults-4k":
        return _churn_faults(seed, smoke)
    if name == "spill-checkpoint-16k":
        return (_fanout(seed, smoke, spill=True),)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
