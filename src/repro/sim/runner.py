"""Build-and-run: config in, result out.

The RNG stream layout makes comparisons *paired*: topology wiring,
subscription filters and the publication schedule are drawn from streams
keyed only by the seed, so two runs differing only in strategy see exactly
the same workload over exactly the same overlay — which is how the paper's
figures compare strategies.
"""

from __future__ import annotations

import os
import shutil
import signal
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.core.checkpoint import (
    CheckpointError,
    latest_checkpoint,
    load_checkpoint,
    timed_save,
)
from repro.analysis.sentinel import InvariantSentinel
from repro.core.registry import make_strategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.network.topology import Topology, build_layered_mesh
from repro.pubsub.system import PubSubSystem
from repro.reference import ReferenceSystem
from repro.sim.config import SimulationConfig, config_fingerprint
from repro.sim.results import SimulationResult
from repro.workload.dynamics import DynamicsDriver
from repro.pubsub.subscription import Subscription
from repro.workload.generator import generate_publications_piecewise
from repro.workload.scenarios import build_subscriptions

#: Population override hook: (subscriptions RNG stream, topology) -> subs.
SubscriptionBuilder = Callable[[np.random.Generator, Topology], list[Subscription]]


def build_system(
    config: SimulationConfig,
    topology: Topology | None = None,
    subscription_builder: "SubscriptionBuilder | None" = None,
    *,
    reference: bool = False,
) -> PubSubSystem:
    """Construct the fully wired system for a config (without running it).

    Exposed separately so tests and examples can poke at the assembled
    overlay; ``run_simulation`` goes through here.  ``subscription_builder``
    overrides the population (scale-family workloads); it receives the
    ``"subscriptions"`` RNG stream and the topology.  The config is a
    :class:`~repro.pubsub.system.SystemConfig` and goes to the system
    as-is.  ``reference`` assembles the reference stack
    (:mod:`repro.reference`) instead of the production one; both produce
    the same bytes.
    """
    streams = RngStreams(config.seed)
    if topology is None:
        topology = build_layered_mesh(streams.get("topology"), config.topology_spec)
    strategy = make_strategy(config.strategy, **config.strategy_params)
    system_type = ReferenceSystem if reference else PubSubSystem
    system = system_type(
        topology=topology,
        strategy=strategy,
        sim=Simulator(),
        streams=streams,
        config=config,
    )
    rng = streams.get("subscriptions")
    if subscription_builder is not None:
        system.subscribe_all(subscription_builder(rng, topology))
    else:
        system.subscribe_all(build_subscriptions(config.scenario, rng, topology))
    # Compile tables/matchers now so first-match cost is a build cost.
    system.warm()
    return system


def schedule_workload(system: PubSubSystem, config: SimulationConfig) -> int:
    """Schedule every publication as a simulator event; returns the count.

    The schedule follows the config's dynamics script: rate bursts become
    segments of the piecewise arrival process.  An empty script compiles
    to the single homogeneous segment, whose draws are byte-identical to
    the historic generator.
    """
    if config.publishing_rate_per_min == 0.0:
        return 0
    streams = system.streams
    publications = generate_publications_piecewise(
        streams.get("workload"),
        publishers=sorted(system.topology.publisher_brokers),
        segments=config.dynamics.rate_segments(
            config.publishing_rate_per_min, config.duration_ms
        ),
        duration_ms=config.duration_ms,
        scenario=config.scenario,
        size_kb=config.message_size_kb,
        arrival=config.arrival,
        deadline_range_ms=config.psd_deadline_range_ms,
    )
    trace_on = config.enable_trace
    for pub in publications:
        system.sim.schedule_at(
            pub.time_ms,
            # partial (not a closure) so pending publications serialize
            # by reference inside a checkpoint's object graph.
            partial(
                system.publish,
                pub.publisher,
                pub.attributes,
                size_kb=pub.size_kb,
                deadline_ms=pub.deadline_ms,
            ),
            label=f"publish:{pub.publisher}" if trace_on else "",
        )
    return len(publications)


def schedule_dynamics(system: PubSubSystem, config: SimulationConfig) -> DynamicsDriver | None:
    """Compile the script's timed interventions into DES events.

    Returns the driver (for introspection), or None for a script with no
    timed interventions — in which case nothing was created or touched,
    not even the ``"dynamics"`` RNG stream.
    """
    if not config.dynamics.timed:
        return None
    driver = DynamicsDriver(system, scenario=config.scenario)
    driver.schedule(config.dynamics)
    return driver


# ---------------------------------------------------------------------- #
# Sentinel wiring.
# ---------------------------------------------------------------------- #
def make_sentinel(
    system: PubSubSystem, config: SimulationConfig
) -> InvariantSentinel | None:
    """The run's sentinel, or None when disabled.

    Enabled by ``config.sentinel`` or by the ``REPRO_SENTINEL`` env var
    ("1" = boundary checks + final pair conservation, "deep" = pair
    conservation at every boundary too).  The env override is how the
    test suite and CI force invariant checking onto every run without
    threading a flag through each call site.
    """
    env = os.environ.get("REPRO_SENTINEL", "")
    if not config.sentinel and env in ("", "0"):
        return None
    deep = config.sentinel_deep or env == "deep"
    return InvariantSentinel(system, deep=deep)


# ---------------------------------------------------------------------- #
# Checkpointed execution.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CheckpointPolicy:
    """How a run snapshots itself: a root directory, a simulated-time
    cadence, and how many snapshots to retain."""

    directory: Path
    every_ms: float
    keep: int = 3

    def __post_init__(self) -> None:
        if self.every_ms <= 0.0:
            raise ValueError(f"every_ms must be positive, got {self.every_ms}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")
        object.__setattr__(self, "directory", Path(self.directory))


@dataclass
class CheckpointStats:
    """Accounting for the snapshots one run wrote."""

    snapshots: int = 0
    write_s: float = 0.0
    bytes: int = 0
    paths: list[Path] = field(default_factory=list)

    def note(self, path: Path, seconds: float, size: int) -> None:
        self.snapshots += 1
        self.write_s += seconds
        self.bytes = size  # latest snapshot size (they supersede each other)
        self.paths.append(path)


class CheckpointInterrupted(RuntimeError):
    """SIGTERM/SIGINT arrived: the current window was drained and a final
    checkpoint written; ``checkpoint`` names the snapshot to resume from."""

    def __init__(self, checkpoint: Path, executed: int) -> None:
        super().__init__(
            f"interrupted; resume from checkpoint {checkpoint}"
        )
        self.checkpoint = checkpoint
        self.executed = executed


@contextmanager
def _interrupt_flag() -> Iterator[Callable[[], bool]]:
    """Install SIGTERM/SIGINT handlers that *request* a graceful stop.

    The DES loop cannot be torn down mid-event: the handler only raises a
    flag, and the checkpoint loop acts on it at the next window boundary.
    Outside the main thread (where ``signal.signal`` refuses) the flag
    simply never fires.
    """
    hit = False

    def _handler(signum, frame):  # pragma: no cover - signal delivery
        nonlocal hit
        hit = True

    previous: list[tuple[int, object]] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous.append((signum, signal.signal(signum, _handler)))
        except ValueError:  # not the main thread
            pass
    try:
        yield lambda: hit
    finally:
        for signum, old in previous:
            signal.signal(signum, old)


def save_run_checkpoint(
    system: PubSubSystem,
    config: SimulationConfig,
    directory: Path | str,
    *,
    name: str | None = None,
    extras: dict | None = None,
) -> tuple[Path, float, int]:
    """Snapshot a (paused) run under ``directory``; returns
    ``(path, seconds, bytes)``.

    Snapshots are named by cumulative executed events so lexicographic
    order is execution order and :func:`repro.core.checkpoint.latest_checkpoint`
    needs no timestamps.  ``extras`` ride along in the state for callers
    with run-side objects outside the system graph (e.g. the dynamics
    queue-depth sampler).
    """
    name = name or f"ckpt-{system.sim.executed_events:012d}"
    return timed_save(
        {"system": system, "config": config, "extras": dict(extras or {})},
        Path(directory) / name,
        fingerprints={"config": config_fingerprint(config)},
        meta={
            "sim_now_ms": system.sim.now,
            "executed_events": system.sim.executed_events,
            "strategy": config.strategy_label(),
            "scenario": config.scenario.value,
            "seed": config.seed,
            "horizon_ms": config.horizon_ms,
        },
        overwrite=True,
    )


def resume_run(
    path: Path | str,
    *,
    config: SimulationConfig | None = None,
    allow_code_mismatch: bool = False,
) -> tuple[PubSubSystem, SimulationConfig, dict]:
    """Restore ``(system, config, extras)`` from a snapshot (or the
    newest one under a checkpoint root).

    When the caller supplies a ``config`` (a CLI rebuild from flags), its
    fingerprint must match the snapshot's — resuming under different
    decisions would silently break the identity guarantee, so it refuses
    with :class:`~repro.core.checkpoint.CheckpointMismatch` instead.
    Result-neutral knobs (spill settings) are excluded from the
    fingerprint; the restored system keeps its original spill mode.
    """
    path = Path(path)
    if path.is_dir() and not (path / "MANIFEST.json").exists():
        newest = latest_checkpoint(path)
        if newest is None:
            raise CheckpointError(f"no checkpoints under {path}")
        path = newest
    fingerprints = None
    if config is not None:
        fingerprints = {"config": config_fingerprint(config)}
    state, _ = load_checkpoint(
        path, fingerprints=fingerprints, allow_code_mismatch=allow_code_mismatch
    )
    return state["system"], state["config"], state.get("extras") or {}


def _prune_checkpoints(directory: Path, keep: int) -> None:
    snaps = sorted(p for p in directory.glob("ckpt-*") if p.is_dir())
    for old in snaps[:-keep] if keep else snaps:
        shutil.rmtree(old, ignore_errors=True)


def run_to_horizon(
    system: PubSubSystem,
    config: SimulationConfig,
    sentinel: InvariantSentinel | None,
    *,
    checkpoint: CheckpointPolicy | None = None,
    extras: dict | None = None,
) -> CheckpointStats:
    """Run an assembled system to the horizon: the one execution loop
    behind every harness (the runner, the dynamics family, the scale tier).

    With neither a sentinel nor a checkpoint policy this is a single
    ``run(until=horizon)``.  Otherwise the run stops at every multiple of
    ``config.sentinel_every_ms`` (when a sentinel is armed) and of
    ``checkpoint.every_ms``: the sentinel checks at every stop, a snapshot
    is written at every checkpoint multiple below the horizon, and
    ``sentinel.final()`` runs once, at the horizon.  The engine is
    segment-invariant (the checkpoint-identity suite proves splitting
    ``run(until=...)`` changes nothing) and the sentinel only reads, so the
    stops change no decision.  On SIGTERM/SIGINT during a checkpointed run
    the current segment finishes, a final snapshot is written, and
    :class:`CheckpointInterrupted` carries its path to the caller.
    ``extras`` ride along in every snapshot (see :func:`save_run_checkpoint`).
    """
    stats = CheckpointStats()
    horizon = config.horizon_ms
    cadences = [] if sentinel is None else [config.sentinel_every_ms]
    if checkpoint is not None:
        cadences.append(checkpoint.every_ms)
    if not cadences:
        system.run(until=horizon)
        return stats

    def snapshot(policy: CheckpointPolicy) -> Path:
        path, seconds, size = save_run_checkpoint(
            system, config, policy.directory, extras=extras
        )
        stats.note(path, seconds, size)
        return path

    # Boundary index per cadence, not `now + every`: when every remaining
    # event lies beyond the next boundary the clock stalls below it, and a
    # time-derived target would re-run a zero-event segment forever.
    ks = [int(system.sim.now // every) + 1 for every in cadences]
    flag = _interrupt_flag() if checkpoint is not None else nullcontext(lambda: False)
    with flag as interrupted:
        while True:
            bounds = [k * every for k, every in zip(ks, cadences)]
            target = min(horizon, *bounds)
            system.run(until=target)
            if sentinel is not None:
                sentinel.check()
            if checkpoint is not None and interrupted():
                raise CheckpointInterrupted(
                    snapshot(checkpoint), system.sim.executed_events
                )
            if target >= horizon:
                break
            if checkpoint is not None and bounds[-1] == target:
                snapshot(checkpoint)
                _prune_checkpoints(checkpoint.directory, checkpoint.keep)
            ks = [k + 1 if bound == target else k for k, bound in zip(ks, bounds)]
    if sentinel is not None:
        sentinel.final()
    return stats

def run_simulation(
    config: SimulationConfig,
    topology: Topology | None = None,
    *,
    checkpoint: CheckpointPolicy | None = None,
    resume: Path | str | None = None,
    reference: bool = False,
) -> SimulationResult:
    """Run one experiment point to completion and collect the metrics.

    ``checkpoint`` enables periodic snapshots; ``resume`` restores a
    snapshot (verifying the config fingerprint) and continues to the
    horizon.  Both together give crash-safe marathon runs.  ``reference``
    runs the reference stack (:mod:`repro.reference`); a snapshot resumes
    as the stack that wrote it, so it cannot be combined with ``resume``.
    """
    if resume is not None:
        if topology is not None:
            raise ValueError("resume restores its own topology; cannot override")
        if reference:
            raise ValueError("resume restores the stack that wrote the snapshot; cannot override")
        system, config, _ = resume_run(resume, config=config)
    else:
        system = build_system(config, topology, reference=reference)
        schedule_workload(system, config)
        schedule_dynamics(system, config)
    run_to_horizon(system, config, make_sentinel(system, config), checkpoint=checkpoint)
    return SimulationResult.from_metrics(
        system.metrics,
        strategy=config.strategy_label(),
        scenario=config.scenario.value,
        seed=config.seed,
        publishing_rate_per_min=config.publishing_rate_per_min,
        residual_queued=system.total_queued(),
        # Cumulative, not per-call: a resumed run must report the same
        # total as the uninterrupted one.
        executed_events=system.sim.executed_events,
    )
