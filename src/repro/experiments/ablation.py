"""Programmatic ablation studies.

Each study perturbs one design knob of the EB pipeline on a congested PSD
workload and reports the standard metrics as a :class:`FigureResult`-style
table, so the same renderers (tables, ASCII charts) apply.  The benches in
``benchmarks/bench_ablation.py`` run these with shape assertions; the CLI
exposes them as ``python -m repro ablate <study>``.
"""

from __future__ import annotations

from typing import Callable

from repro.core.pruning import PruningPolicy
from repro.experiments.common import FigureResult, ScaleSpec
from repro.network.measurement import MeasurementMode
from repro.sim.config import PAPER_DURATION_MS, SimulationConfig
from repro.sim.results import SimulationResult
from repro.sim.runner import run_simulation
from repro.workload.generator import ArrivalProcess
from repro.workload.scenarios import Scenario


def _base(scale: ScaleSpec) -> SimulationConfig:
    return SimulationConfig(
        seed=scale.seed,
        scenario=Scenario.PSD,
        strategy="eb",
        publishing_rate_per_min=12.0,
        duration_ms=PAPER_DURATION_MS * scale.scale,
    )


def _study(
    study_id: str,
    title: str,
    scale: ScaleSpec,
    points: list[tuple[str, SimulationConfig]],
) -> FigureResult:
    """Run labelled config points and tabulate the three core metrics."""
    results: list[tuple[str, SimulationResult]] = [
        (label, run_simulation(cfg)) for label, cfg in points
    ]
    return FigureResult(
        figure_id=study_id,
        title=title,
        x_label="variant",
        y_label="metric",
        x_values=list(range(len(results))),
        series={
            "delivery_rate": [r.delivery_rate for _, r in results],
            "message_number": [float(r.message_number) for _, r in results],
            "pruned": [float(r.pruned) for _, r in results],
        },
        notes=[f"variants: {', '.join(label for label, _ in results)}",
               f"scale={scale.scale:g}, seed={scale.seed}, EB on congested PSD (rate 12)"],
    )


def epsilon_study(scale: ScaleSpec) -> FigureResult:
    """Invalid-message detection: off / expiry-only / paper ε / aggressive."""
    base = _base(scale)
    return _study(
        "ablate-epsilon",
        "Ablation — pruning rule (Eq. 11)",
        scale,
        [
            ("off", base.replace(pruning_override=PruningPolicy.NONE)),
            ("expired-only", base.replace(pruning_override=PruningPolicy.EXPIRED)),
            ("paper-5e-4", base),
            ("eps-0.05", base.replace(epsilon=0.05)),
        ],
    )


def slack_study(scale: ScaleSpec) -> FigureResult:
    """Downstream scheduling allowance inside fdl (paper assumes 0)."""
    base = _base(scale)
    return _study(
        "ablate-slack",
        "Ablation — per-hop scheduling slack in fdl",
        scale,
        [
            ("paper-0ms", base),
            ("500ms", base.replace(scheduling_slack_per_hop_ms=500.0)),
            ("2000ms", base.replace(scheduling_slack_per_hop_ms=2_000.0)),
        ],
    )


def measurement_study(scale: ScaleSpec) -> FigureResult:
    """Oracle vs online-estimated link parameters."""
    base = _base(scale)
    return _study(
        "ablate-measurement",
        "Ablation — link parameter source",
        scale,
        [
            ("oracle", base),
            ("estimated", base.replace(measurement_mode=MeasurementMode.ESTIMATED)),
        ],
    )


def routing_study(scale: ScaleSpec) -> FigureResult:
    """Single-path (paper) vs DCP-style multi-path."""
    base = _base(scale)
    return _study(
        "ablate-routing",
        "Ablation — single-path vs multi-path routing",
        scale,
        [
            ("single", base),
            ("two-paths", base.replace(routing_paths=2)),
        ],
    )


def arrival_study(scale: ScaleSpec) -> FigureResult:
    """Arrival-process sensitivity."""
    base = _base(scale)
    return _study(
        "ablate-arrival",
        "Ablation — publication arrival process",
        scale,
        [
            ("poisson", base),
            ("fixed", base.replace(arrival=ArrivalProcess.FIXED)),
            ("uniform", base.replace(arrival=ArrivalProcess.UNIFORM)),
        ],
    )


STUDIES: dict[str, Callable[[ScaleSpec], FigureResult]] = {
    "epsilon": epsilon_study,
    "slack": slack_study,
    "measurement": measurement_study,
    "routing": routing_study,
    "arrival": arrival_study,
}
