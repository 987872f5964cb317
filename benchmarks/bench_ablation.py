"""Ablation benches for the design choices of the EB pipeline.

Each ablation perturbs exactly one knob of the EB pipeline on a congested
PSD workload and records the metric deltas in ``extra_info``:

* ε (invalid-message threshold, Eq. 11): off / paper 5e-4 / aggressive
* downstream scheduling slack (the paper assumes 0 inside ``fdl``)
* oracle vs estimated link parameters
* RL lifetime aggregation (paper's average vs classic min)
* arrival process (Poisson vs fixed rate)
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED
from repro.core.pruning import PruningPolicy
from repro.network.measurement import MeasurementMode
from repro.sim.config import PAPER_DURATION_MS, SimulationConfig
from repro.sim.runner import run_simulation
from repro.workload.generator import ArrivalProcess
from repro.workload.scenarios import Scenario

BASE = SimulationConfig(
    seed=BENCH_SEED,
    scenario=Scenario.PSD,
    strategy="eb",
    publishing_rate_per_min=12.0,
    duration_ms=PAPER_DURATION_MS * BENCH_SCALE,
)


def _run_grid(benchmark, configs: dict[str, SimulationConfig], metric=lambda r: r.delivery_rate):
    results = benchmark.pedantic(
        lambda: {label: run_simulation(cfg) for label, cfg in configs.items()},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["metric"] = {
        label: round(metric(r), 4) for label, r in results.items()
    }
    return results


def test_ablation_epsilon(benchmark):
    results = _run_grid(
        benchmark,
        {
            "off": BASE.replace(pruning_override=PruningPolicy.NONE),
            "expired-only": BASE.replace(pruning_override=PruningPolicy.EXPIRED),
            "paper-5e-4": BASE,
            "aggressive-0.2": BASE.replace(epsilon=0.2),
        },
    )
    benchmark.extra_info["traffic"] = {
        k: r.message_number for k, r in results.items()
    }
    # Probabilistic pruning must save traffic over expiry-only pruning
    # without giving up deliveries.
    assert results["paper-5e-4"].message_number <= results["expired-only"].message_number
    assert results["paper-5e-4"].deliveries_valid >= 0.9 * results["expired-only"].deliveries_valid


def test_ablation_scheduling_slack(benchmark):
    results = _run_grid(
        benchmark,
        {
            "paper-0ms": BASE,
            "slack-500ms": BASE.replace(scheduling_slack_per_hop_ms=500.0),
            "slack-5000ms": BASE.replace(scheduling_slack_per_hop_ms=5_000.0),
        },
    )
    # Slack only re-weights planning; the simulation still delivers.
    for r in results.values():
        assert r.deliveries_valid > 0


def test_ablation_measurement(benchmark):
    results = _run_grid(
        benchmark,
        {
            "oracle": BASE,
            "estimated": BASE.replace(measurement_mode=MeasurementMode.ESTIMATED),
        },
    )
    # Estimation converges fast on busy links: most of oracle quality holds.
    assert results["estimated"].delivery_rate >= 0.5 * results["oracle"].delivery_rate


def test_ablation_rl_aggregation(benchmark):
    results = _run_grid(
        benchmark,
        {
            "rl-average": BASE.replace(strategy="rl"),
            "rl-min": BASE.replace(strategy="rl", strategy_params={"aggregation": "min"}),
        },
    )
    for r in results.values():
        assert r.published > 0


def test_ablation_routing_single_vs_multipath(benchmark):
    """Section 3.3's trade: multi-path (DCP-style) buys reliability with
    duplicate traffic.  On the paper's mesh, two paths must carry strictly
    more traffic without a drastic delivery change."""
    results = _run_grid(
        benchmark,
        {
            "single-path": BASE,
            "two-paths": BASE.replace(routing_paths=2),
        },
    )
    benchmark.extra_info["traffic"] = {k: r.message_number for k, r in results.items()}
    assert results["two-paths"].message_number > results["single-path"].message_number
    for r in results.values():
        assert 0.0 <= r.delivery_rate <= 1.0


def test_ablation_arrival_process(benchmark):
    results = _run_grid(
        benchmark,
        {
            "poisson": BASE,
            "fixed": BASE.replace(arrival=ArrivalProcess.FIXED),
            "uniform": BASE.replace(arrival=ArrivalProcess.UNIFORM),
        },
    )
    # The qualitative level should not depend on the arrival model.
    rates = [r.delivery_rate for r in results.values()]
    assert max(rates) - min(rates) < 0.30
