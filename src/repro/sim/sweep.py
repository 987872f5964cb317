"""Parameter sweeps: the shapes of the paper's figures.

A *sweep* runs a grid of (strategy, parameter) points over paired
workloads.  Results come back as ``{series_label: [value per x]}`` plus
the x axis — exactly what the figure harnesses print and what the benches
time.

Every sweep decomposes into independent ``(strategy, x, seed)``
simulation points; the grid is built first and then executed by a *point
runner* — a callable mapping a list of configs to the list of results in
the same order.  The default runs sequentially in-process;
:func:`repro.sim.parallel.make_point_runner` supplies a process-pool
runner with an on-disk point cache, and either produces identical
results because :func:`run_simulation` is deterministic per config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.sim.config import SimulationConfig, strategy_label
from repro.sim.results import SimulationResult, aggregate_results
from repro.sim.runner import run_simulation

#: Executes a batch of independent simulation points, preserving order.
#: Runners that tolerate worker loss (see :mod:`repro.sim.parallel`) may
#: substitute :class:`PointFailure` placeholders for unrecoverable points.
PointRunner = Callable[[Sequence[SimulationConfig]], list[SimulationResult]]


@dataclass(frozen=True)
class PointFailure:
    """Placeholder result for a point lost to repeated worker crashes.

    A sweep whose pool kept dying (OOM killer, a segfaulting extension)
    completes with these in place of the unrecoverable points instead of
    aborting — callers can count, report, and re-run just the holes.
    """

    config: SimulationConfig
    error: str
    attempts: int

    @property
    def reason(self) -> str:
        """Short human label for sweep summaries."""
        return f"{self.config.strategy_label()} seed={self.config.seed}: {self.error}"


def run_points_serial(configs: Sequence[SimulationConfig]) -> list[SimulationResult]:
    """The default point runner: one point after another, in-process."""
    return [run_simulation(config) for config in configs]


@dataclass
class SweepResult:
    """A family of series over one x axis.

    Series slots normally hold :class:`SimulationResult`; a fault-tolerant
    point runner may leave :class:`PointFailure` placeholders instead.
    :meth:`metric` maps those to ``NaN`` (plots show a gap, stats skip
    them) and :meth:`failures` enumerates them for summaries.
    """

    x_label: str
    x_values: list[float]
    series: dict[str, list[SimulationResult]] = field(default_factory=dict)

    def metric(self, label: str, extract: Callable[[SimulationResult], float]) -> list[float]:
        return [
            extract(r) if isinstance(r, SimulationResult) else math.nan
            for r in self.series[label]
        ]

    def table(self, extract: Callable[[SimulationResult], float]) -> dict[str, list[float]]:
        return {label: self.metric(label, extract) for label in self.series}

    def failures(self) -> list[tuple[str, float, PointFailure]]:
        """Every failed point as ``(series_label, x_value, failure)``."""
        out: list[tuple[str, float, PointFailure]] = []
        for label, runs in self.series.items():
            for x, r in zip(self.x_values, runs):
                if isinstance(r, PointFailure):
                    out.append((label, x, r))
        return out


def failure_notes(sweep: SweepResult) -> list[str]:
    """Human-readable summary of a sweep's failed points (empty if none).

    One leading count line plus one line per hole — figure harnesses
    append these to their notes so a sweep that survived worker crashes
    says so in its rendered table instead of silently plotting gaps.
    """
    failed = sweep.failures()
    if not failed:
        return []
    lines = [f"{len(failed)} point(s) failed after worker crashes (values are NaN)"]
    for label, x, failure in failed:
        lines.append(
            f"failed point: {label} @ {sweep.x_label}={x:g} "
            f"({failure.attempts} attempt(s)): {failure.error}"
        )
    return lines


def _strategy_points(strategies: Sequence[str | tuple[str, dict[str, Any]]]):
    for item in strategies:
        if isinstance(item, str):
            yield item, {}
        else:
            name, params = item
            yield name, dict(params)


def _collapse(per_seed: list[SimulationResult]) -> SimulationResult:
    # Failed replicas (PointFailure placeholders from a crash-tolerant
    # runner) are dropped before averaging; a point with no surviving
    # replica stays a PointFailure so summaries can report the hole.
    alive = [r for r in per_seed if isinstance(r, SimulationResult)]
    if not alive:
        return per_seed[0]
    return alive[0] if len(alive) == 1 else _mean_result(alive)


def sweep_publishing_rate(
    base: SimulationConfig,
    rates: Sequence[float],
    strategies: Sequence[str | tuple[str, dict[str, Any]]],
    seeds: Sequence[int] | None = None,
    point_runner: PointRunner | None = None,
) -> SweepResult:
    """Figures 5/6: strategies × publishing rates.

    With multiple ``seeds``, each point is re-run per seed and the stored
    result is the per-seed mean (:func:`_mean_result` — rounded means for
    count-like fields, identification from the first replica).
    Single-seed (the paper's protocol) is the default and stores the run
    itself.  ``point_runner`` overrides how the independent points are
    executed (see :mod:`repro.sim.parallel`).
    """
    runner = point_runner or run_points_serial
    seeds = list(seeds) if seeds is not None else [base.seed]
    points = list(_strategy_points(strategies))
    configs = [
        base.replace(
            strategy=name, strategy_params=params,
            publishing_rate_per_min=rate, seed=seed,
        )
        for name, params in points
        for rate in rates
        for seed in seeds
    ]
    results = runner(configs)
    out = SweepResult(x_label="publishing rate (msgs/min/publisher)", x_values=list(rates))
    i = 0
    for name, params in points:
        runs: list[SimulationResult] = []
        for _rate in rates:
            runs.append(_collapse(results[i : i + len(seeds)]))
            i += len(seeds)
        out.series[strategy_label(name, params)] = runs
    return out


def sweep_r_weight(
    base: SimulationConfig,
    r_values: Sequence[float],
    seeds: Sequence[int] | None = None,
    point_runner: PointRunner | None = None,
) -> SweepResult:
    """Figure 4: EBPC across the EB weight ``r``, plus EB and PC baselines.

    EB and PC do not depend on ``r``; they are run once and replicated
    across the x axis as flat reference lines (as in the paper's plot).
    """
    runner = point_runner or run_points_serial
    seeds = list(seeds) if seeds is not None else [base.seed]
    points: list[tuple[str, dict[str, Any]]] = [("ebpc", {"r": r}) for r in r_values]
    points += [("eb", {}), ("pc", {})]
    configs = [
        base.replace(strategy=name, strategy_params=params, seed=seed)
        for name, params in points
        for seed in seeds
    ]
    results = runner(configs)
    collapsed = [
        _collapse(results[i : i + len(seeds)])
        for i in range(0, len(results), len(seeds))
    ]
    out = SweepResult(x_label="weight of EB, r", x_values=list(r_values))
    out.series["ebpc"] = collapsed[: len(r_values)]
    out.series["eb"] = [collapsed[len(r_values)]] * len(r_values)
    out.series["pc"] = [collapsed[len(r_values) + 1]] * len(r_values)
    return out


def _mean_result(results: list[SimulationResult]) -> SimulationResult:
    """Collapse replicas into one result carrying mean headline metrics.

    Count-like fields are rounded means; identification fields come from
    the first replica.
    """
    agg = aggregate_results(results)
    first = results[0]
    return SimulationResult(
        strategy=first.strategy,
        scenario=first.scenario,
        seed=first.seed,
        publishing_rate_per_min=first.publishing_rate_per_min,
        published=round(sum(r.published for r in results) / len(results)),
        message_number=round(agg["message_number"]),
        transmissions=round(sum(r.transmissions for r in results) / len(results)),
        deliveries_valid=round(agg["deliveries_valid"]),
        deliveries_late=round(sum(r.deliveries_late for r in results) / len(results)),
        pruned=round(agg["pruned"]),
        total_interested=round(sum(r.total_interested for r in results) / len(results)),
        delivery_rate=agg["delivery_rate"],
        earning=agg["earning"],
        mean_latency_ms=sum(r.mean_latency_ms for r in results) / len(results),
        residual_queued=round(sum(r.residual_queued for r in results) / len(results)),
        executed_events=sum(r.executed_events for r in results),
    )
