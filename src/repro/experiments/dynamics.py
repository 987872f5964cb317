"""The dynamics experiment family: strategy trajectories under a script.

The paper's figures compare strategies on one aggregate number per run;
this harness compares them on *time series* under a scripted scenario
(diurnal load, a flash crowd, a degraded backbone link...).  All five
strategies run against the identical world — same topology, same
subscriptions, same piecewise publication schedule, same intervention
times — and the windowed metric of choice becomes one series per
strategy, rendered with the ordinary figure tooling (ascii chart /
series table).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.analysis.timeseries import MetricsTimeSeries, QueueDepthSampler, windowed_metrics
from repro.core.checkpoint import latest_checkpoint
from repro.des.rng import RngStreams
from repro.experiments.common import FigureResult
from repro.network.topology import build_layered_mesh
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    CheckpointPolicy,
    build_system,
    make_sentinel,
    resume_run,
    run_to_horizon,
    schedule_dynamics,
    schedule_workload,
)
from repro.workload.dynamics import PRESETS
from repro.workload.scenarios import Scenario

#: The five disciplines, in the paper's order.
ALL_STRATEGIES: tuple[str, ...] = ("fifo", "rl", "eb", "pc", "ebpc")

#: metric name -> (y axis label, series extractor).
METRICS: dict[str, tuple[str, Callable[[MetricsTimeSeries], np.ndarray]]] = {
    "delivery-rate": ("delivery rate per window", lambda ts: ts.delivery_rate),
    "earning": ("earning per window", lambda ts: ts.earning),
    "queue-depth": ("mean queued entries", lambda ts: ts.queue_depth_mean),
    "latency": ("mean delivery latency (ms)", lambda ts: ts.mean_latency_ms),
}


def run_dynamics_point(
    config: SimulationConfig,
    window_ms: float,
    sample_queue: bool = True,
    checkpoint: CheckpointPolicy | None = None,
    resume: Path | str | None = None,
) -> MetricsTimeSeries:
    """One instrumented run: build, script, run, bucket.

    Windows cover the full horizon (publication window + grace), so
    deliveries resolving in the grace period fold into the totals exactly
    like the aggregate metrics count them.  The queue-depth sampler is
    checkpointed alongside the system (its pending sampling events and
    accumulated samples are part of the run's state), so a resumed run
    buckets exactly what the uninterrupted one would.
    """
    if resume is not None:
        system, config, extras = resume_run(resume, config=config)
        sampler = extras.get("queue_sampler")
    else:
        system = build_system(config)
        schedule_workload(system, config)
        schedule_dynamics(system, config)
        sampler = (
            QueueDepthSampler(system, every_ms=window_ms / 4.0, horizon_ms=config.horizon_ms)
            if sample_queue
            else None
        )
    run_to_horizon(
        system, config, make_sentinel(system, config),
        checkpoint=checkpoint, extras={"queue_sampler": sampler},
    )
    return windowed_metrics(
        system, window_ms, horizon_ms=config.horizon_ms, queue_sampler=sampler
    )


def run_dynamics_comparison(
    preset: str,
    scenario: Scenario = Scenario.SSD,
    minutes: float = 10.0,
    rate_per_min: float = 10.0,
    seed: int = 0,
    window_s: float = 60.0,
    metric: str = "delivery-rate",
    strategies: Sequence[str] = ALL_STRATEGIES,
    measurement: str = "oracle",
    link_estimator: str = "welford",
    sentinel: bool = False,
    checkpoint: CheckpointPolicy | None = None,
    resume: Path | str | None = None,
) -> FigureResult:
    """All strategies under one preset script, as windowed series.

    The preset is compiled against the same topology every run sees
    (identical seed → identical wiring), so e.g. ``degrade-worst-link``
    names the same link in every strategy's world.  With ``checkpoint``
    each strategy snapshots under its own subdirectory of the policy
    root; ``resume`` points back at that root and picks up whichever
    strategy was in flight (finished strategies simply re-run).
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    from repro.network.measurement import MeasurementMode

    duration_ms = minutes * 60_000.0
    window_ms = window_s * 1_000.0
    # A throwaway build of the topology stream yields the exact overlay
    # every run will construct — used only to parameterise the preset.
    topology = build_layered_mesh(RngStreams(seed).get("topology"))
    script = PRESETS[preset](topology, duration_ms)

    y_label, extract = METRICS[metric]
    result = FigureResult(
        figure_id=f"dynamics-{preset}",
        title=f"Dynamics [{preset}]: {metric} over time ({scenario.value})",
        x_label="time (minutes)",
        y_label=y_label,
        x_values=[],
    )
    for strategy in strategies:
        config = SimulationConfig(
            seed=seed,
            scenario=scenario,
            strategy=strategy,
            publishing_rate_per_min=rate_per_min,
            duration_ms=duration_ms,
            dynamics=script,
            measurement_mode=MeasurementMode(measurement),
            link_estimator=link_estimator,
            sentinel=sentinel,
        )
        sub_ck = None
        if checkpoint is not None:
            sub_ck = CheckpointPolicy(
                Path(checkpoint.directory) / config.strategy_label(),
                checkpoint.every_ms,
                checkpoint.keep,
            )
        sub_resume = None
        if resume is not None:
            cand = Path(resume) / config.strategy_label()
            if latest_checkpoint(cand) is not None:
                sub_resume = cand
        ts = run_dynamics_point(
            config, window_ms,
            sample_queue=metric == "queue-depth",
            checkpoint=sub_ck, resume=sub_resume,
        )
        if not result.x_values:
            result.x_values = [t / 60_000.0 for t in ts.centers_ms.tolist()]
        result.series[config.strategy_label()] = extract(ts).tolist()
    result.notes.append(
        f"script: {len(script.interventions)} intervention(s); "
        f"window {window_s:g}s; rate {rate_per_min:g}/min/publisher"
    )
    return result
