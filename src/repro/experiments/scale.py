"""Scale-tier experiment points: 100k+-subscriber runs, bounded memory.

Builds a member of the :data:`~repro.workload.scenarios.SCALE_SCENARIOS`
family on the paper's stretched mesh, runs it with the chunked delivery
log (optionally spilling sealed chunks to disk), and reports the
figures that matter at this tier: wall time per phase, peak RSS, rows
logged, chunks spilled — plus a digest of the windowed time series so
spill-on and spill-off runs can be proven identical.

Shared by ``python -m repro scale`` and ``benchmarks/bench_scale.py``
(which runs each mode in a fresh subprocess so the ``ru_maxrss``
high-water marks don't contaminate each other).
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.timeseries import windowed_metrics
from repro.core.chunked import DEFAULT_CHUNK_ROWS
from repro.pubsub.system import PubSubSystem
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    CheckpointPolicy,
    build_system,
    make_sentinel,
    resume_run,
    run_checkpointed,
    run_to_horizon,
    schedule_dynamics,
    schedule_workload,
)
from repro.workload.dynamics import ScenarioScript
from repro.workload.scenarios import (
    SCALE_SCENARIOS,
    Scenario,
    ScaleScenarioSpec,
    build_scale_subscriptions,
)


def peak_rss_kb() -> int:
    """The process's resident-set high-water mark, in KiB (0 if the
    platform doesn't expose it).

    ``ru_maxrss`` is kilobytes on Linux but **bytes** on macOS — the
    one getrusage field with platform-dependent units."""
    try:
        import resource

        raw = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return raw // 1024 if sys.platform == "darwin" else raw
    except (ImportError, ValueError):  # pragma: no cover - non-POSIX
        return 0


@dataclass(frozen=True, slots=True)
class ScalePointResult:
    """Everything one scale run reports."""

    scenario: str
    strategy: str
    subscribers: int
    seed: int
    spill: bool
    chunk_rows: int
    published: int
    deliveries: int
    deliveries_valid: int
    earning: float
    delivery_rate: float
    log_rows: int
    spilled_chunks: int
    build_s: float
    run_s: float
    analysis_s: float
    peak_rss_kb: int
    series_sha256: str
    engine: str = "fused"
    checkpoints: int = 0
    checkpoint_write_s: float = 0.0
    checkpoint_mb: float = 0.0
    resumed: bool = False

    @property
    def deliveries_per_s(self) -> float:
        """Delivered records per wall-second of the run phase — the
        scale tier's throughput figure (guarded by the bench floor)."""
        return self.deliveries / self.run_s if self.run_s > 0.0 else 0.0

    def as_dict(self) -> dict:
        return {
            "scenario": f"scale-{self.scenario}",
            "strategy": self.strategy,
            "subscriptions": self.subscribers,
            "seed": self.seed,
            "log_spill": self.spill,
            "log_chunk_rows": self.chunk_rows,
            "published": self.published,
            "deliveries": self.deliveries,
            "deliveries_valid": self.deliveries_valid,
            "earning": self.earning,
            "delivery_rate": self.delivery_rate,
            "log_rows": self.log_rows,
            "spilled_chunks": self.spilled_chunks,
            "engine": self.engine,
            "build_s": round(self.build_s, 3),
            "run_s": round(self.run_s, 3),
            "analysis_s": round(self.analysis_s, 3),
            "deliveries_per_s": round(self.deliveries_per_s, 1),
            # Total measured wall, matching what wall_s means in every
            # other BENCH_e2e.json record.
            "wall_s": round(self.build_s + self.run_s + self.analysis_s, 4),
            "peak_rss_kb": self.peak_rss_kb,
            "series_sha256": self.series_sha256,
            "checkpoints": self.checkpoints,
            "checkpoint_write_s": round(self.checkpoint_write_s, 3),
            "checkpoint_mb": round(self.checkpoint_mb, 2),
            "resumed": self.resumed,
        }


def scale_config(
    spec: ScaleScenarioSpec,
    strategy: str = "eb",
    seed: int = 1,
    rate_per_min: float = 10.0,
    minutes: float = 2.0,
    spill: bool = False,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    engine: str = "fused",
    sentinel: bool = False,
    script: ScenarioScript | None = None,
) -> SimulationConfig:
    """The simulation config of one scale point (small messages keep the
    links fast, so fanout — not transmission — dominates)."""
    return SimulationConfig(
        seed=seed,
        scenario=Scenario.SSD,
        strategy=strategy,
        publishing_rate_per_min=rate_per_min,
        duration_ms=minutes * 60_000.0,
        grace_ms=30_000.0,
        message_size_kb=5.0,
        topology_spec=spec.topology_spec(),
        log_spill=spill,
        log_chunk_rows=chunk_rows,
        engine_backend=engine,
        sentinel=sentinel,
        dynamics=script if script is not None else ScenarioScript(),
    )


def build_scale_system(spec: ScaleScenarioSpec, config: SimulationConfig) -> PubSubSystem:
    """Assemble the stretched mesh with the spec's skewed population.

    Goes through :func:`repro.sim.runner.build_system` with a population
    override, so *every* ``SystemConfig`` knob (backends, measurement
    mode, routing, log spill...) is honoured from the one config — the
    only scale-specific part is who subscribes with which filter.
    """
    return build_system(
        config,
        subscription_builder=lambda rng, topology: build_scale_subscriptions(
            rng, topology, spec
        ),
    )


def series_digest(ts) -> str:
    """Stable digest of a windowed time series (the spill-identity probe)."""
    h = hashlib.sha256()
    for arr in (
        ts.edges, ts.published, ts.interested, ts.deliveries_valid,
        ts.deliveries_late, ts.earning, ts.latency_sum_ms,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_scale_point(
    scenario: str,
    strategy: str = "eb",
    seed: int = 1,
    rate_per_min: float = 10.0,
    minutes: float = 2.0,
    spill: bool = False,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    window_s: float = 30.0,
    engine: str = "fused",
    sentinel: bool = False,
    script: ScenarioScript | None = None,
    checkpoint: CheckpointPolicy | None = None,
    resume: Path | str | None = None,
) -> ScalePointResult:
    """Build, run and analyse one scale point, timing each phase.

    The analysis phase intentionally exercises the streaming reductions
    (windowed series over the possibly-spilled log) — at this tier the
    *analysis* is as memory-dangerous as the run, and the point of the
    chunked spine is that both stay bounded.  ``checkpoint`` snapshots
    the run on a simulated-time cadence; ``resume`` restores a snapshot
    (config-fingerprint-checked against the flags given here) and runs
    it to the horizon.  Checkpoint write time is accounted separately
    from ``run_s`` so the throughput floor stays comparable.
    """
    spec = SCALE_SCENARIOS[scenario]
    config = scale_config(
        spec, strategy=strategy, seed=seed, rate_per_min=rate_per_min,
        minutes=minutes, spill=spill, chunk_rows=chunk_rows, engine=engine,
        sentinel=sentinel, script=script,
    )
    t0 = time.perf_counter()  # repro-lint: ignore[RL001] -- phase stopwatch (build/run/analysis), decision-neutral
    if resume is not None:
        system, config, _ = resume_run(resume, config=config)
    else:
        system = build_scale_system(spec, config)
        schedule_workload(system, config)
        schedule_dynamics(system, config)
    t1 = time.perf_counter()  # repro-lint: ignore[RL001] -- phase stopwatch, decision-neutral
    run_sentinel = make_sentinel(system, config)
    ck_count, ck_write_s, ck_bytes = 0, 0.0, 0
    if checkpoint is not None:
        stats = run_checkpointed(system, config, checkpoint, sentinel=run_sentinel)
        ck_count, ck_write_s, ck_bytes = stats.snapshots, stats.write_s, stats.bytes
        if run_sentinel is not None:
            run_sentinel.final()
    else:
        run_to_horizon(system, config, run_sentinel)
    t2 = time.perf_counter()  # repro-lint: ignore[RL001] -- phase stopwatch, decision-neutral
    ts = windowed_metrics(system, window_s * 1000.0, config.horizon_ms)
    digest = series_digest(ts)
    t3 = time.perf_counter()  # repro-lint: ignore[RL001] -- phase stopwatch, decision-neutral
    m = system.metrics
    return ScalePointResult(
        scenario=scenario,
        strategy=strategy,
        subscribers=len(system.topology.subscriber_brokers),
        seed=seed,
        spill=spill,
        chunk_rows=chunk_rows,
        published=m.published,
        deliveries=m.deliveries_valid + m.deliveries_late,
        deliveries_valid=m.deliveries_valid,
        earning=m.earning,
        delivery_rate=m.delivery_rate,
        log_rows=len(system.delivery_log),
        spilled_chunks=system.delivery_log.spilled_chunks,
        build_s=t1 - t0,
        run_s=(t2 - t1) - ck_write_s,
        analysis_s=t3 - t2,
        peak_rss_kb=peak_rss_kb(),
        series_sha256=digest,
        engine=engine,
        checkpoints=ck_count,
        checkpoint_write_s=ck_write_s,
        checkpoint_mb=ck_bytes / 1e6,
        resumed=resume is not None,
    )
