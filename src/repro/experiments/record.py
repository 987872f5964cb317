"""EXPERIMENTS.md generator: run everything, record paper-vs-measured.

``python -m repro record --scale 0.1 -o EXPERIMENTS.md`` regenerates the
whole reproduction record: every figure's series, the headline-claim
checks, and the paper's quoted numbers next to ours.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments import figure4, figure5, figure6, table1
from repro.experiments.claims import check_psd_claims, check_ssd_claims, format_report
from repro.experiments.common import FigureResult, ScaleSpec
from repro.experiments.report import format_series_table

#: The numbers the paper states in the text (Section 6.2), used for the
#: side-by-side comparison.  All at publishing rate 15.
PAPER_QUOTES = {
    "psd_delivery_eb": 0.401,
    "psd_delivery_fifo": 0.225,
    "psd_delivery_rl": 0.116,
    "psd_traffic_eb_over_fifo": 1.17,
    "psd_traffic_eb_over_rl": 1.60,
    "ssd_earning_eb_over_fifo": 5.0,
    "ssd_earning_eb_over_rl": 10.0,
    "ssd_traffic_eb_over_fifo": 1.23,
    "ssd_traffic_eb_over_rl": 1.64,
}


@dataclass
class RecordBundle:
    """Everything the record needs, computed in one pass."""

    scale: ScaleSpec
    fig4a: FigureResult
    fig4b: FigureResult
    fig5a: FigureResult
    fig5b: FigureResult
    fig6a: FigureResult
    fig6b: FigureResult
    elapsed_s: float


def run_everything(scale: ScaleSpec) -> RecordBundle:
    start = time.perf_counter()  # repro-lint: ignore[RL001] -- wall elapsed for the record, decision-neutral
    fig4a = figure4.run_panel_a(scale)
    fig4b = figure4.run_panel_b(scale)
    fig5a, fig5b = figure5.run_both_panels(scale)
    fig6a, fig6b = figure6.run_both_panels(scale)
    return RecordBundle(
        scale=scale,
        fig4a=fig4a,
        fig4b=fig4b,
        fig5a=fig5a,
        fig5b=fig5b,
        fig6a=fig6a,
        fig6b=fig6b,
        elapsed_s=time.perf_counter() - start,  # repro-lint: ignore[RL001] -- wall elapsed for the record
    )


def _at_top(fig: FigureResult, series: str) -> float:
    return fig.series[series][fig.x_values.index(max(fig.x_values))]


def _ratio(a: float, b: float) -> float:
    return a / b if b else float("inf")


def comparison_rows(bundle: RecordBundle) -> list[tuple[str, float, float]]:
    """(quantity, paper value, measured value) at the top publishing rate."""
    return [
        ("PSD delivery rate, EB", PAPER_QUOTES["psd_delivery_eb"], _at_top(bundle.fig6a, "eb")),
        ("PSD delivery rate, FIFO", PAPER_QUOTES["psd_delivery_fifo"], _at_top(bundle.fig6a, "fifo")),
        ("PSD delivery rate, RL", PAPER_QUOTES["psd_delivery_rl"], _at_top(bundle.fig6a, "rl")),
        (
            "PSD traffic, EB / FIFO",
            PAPER_QUOTES["psd_traffic_eb_over_fifo"],
            _ratio(_at_top(bundle.fig6b, "eb"), _at_top(bundle.fig6b, "fifo")),
        ),
        (
            "PSD traffic, EB / RL",
            PAPER_QUOTES["psd_traffic_eb_over_rl"],
            _ratio(_at_top(bundle.fig6b, "eb"), _at_top(bundle.fig6b, "rl")),
        ),
        (
            "SSD earning, EB / FIFO",
            PAPER_QUOTES["ssd_earning_eb_over_fifo"],
            _ratio(_at_top(bundle.fig5a, "eb"), _at_top(bundle.fig5a, "fifo")),
        ),
        (
            "SSD earning, EB / RL",
            PAPER_QUOTES["ssd_earning_eb_over_rl"],
            _ratio(_at_top(bundle.fig5a, "eb"), _at_top(bundle.fig5a, "rl")),
        ),
        (
            "SSD traffic, EB / FIFO",
            PAPER_QUOTES["ssd_traffic_eb_over_fifo"],
            _ratio(_at_top(bundle.fig5b, "eb"), _at_top(bundle.fig5b, "fifo")),
        ),
        (
            "SSD traffic, EB / RL",
            PAPER_QUOTES["ssd_traffic_eb_over_rl"],
            _ratio(_at_top(bundle.fig5b, "eb"), _at_top(bundle.fig5b, "rl")),
        ),
    ]


def render_markdown(bundle: RecordBundle) -> str:
    """The full EXPERIMENTS.md content."""
    scale = bundle.scale
    claims = check_ssd_claims(bundle.fig5a, bundle.fig5b) + check_psd_claims(
        bundle.fig6a, bundle.fig6b
    )
    passed = sum(c.passed for c in claims)

    lines: list[str] = []
    add = lines.append
    add("# EXPERIMENTS — paper vs. measured")
    add("")
    add(
        "Reproduction record for Wang et al., *Achieving Bounded Delay on "
        "Message Delivery in Publish/Subscribe Systems* (ICPP 2006)."
    )
    add("")
    add(
        f"Generated by `python -m repro record --scale {scale.scale:g} "
        f"--seed {scale.seed}` in {bundle.elapsed_s:.0f} s "
        f"(simulated test period: {scale.scale:g} × the paper's 2 hours "
        f"= {scale.duration_ms / 60_000:.0f} simulated minutes per point)."
    )
    add("")
    add("Absolute totals (earning, message number) scale with the period;")
    add("rates and ratios are scale-free, so shape comparisons are valid.")
    add("We do not expect absolute agreement with the paper (their Java")
    add("testbed, exact topology draw and RNG are unavailable); we check")
    add("the *shape*: orderings, monotonicity, knees and rough factors.")
    add("")

    add("## Headline numbers (at publishing rate 15)")
    add("")
    add("| quantity | paper | measured | shape holds |")
    add("|---|---|---|---|")
    for label, paper_value, ours in comparison_rows(bundle):
        same_side = (paper_value >= 1.0) == (ours >= 1.0) if "/" in label else True
        add(f"| {label} | {paper_value:g} | {ours:.3g} | {'yes' if same_side else 'see notes'} |")
    add("")

    add("## Claim checks")
    add("")
    add("```")
    add(format_report(claims))
    add("```")
    add("")

    for fig in (bundle.fig4a, bundle.fig4b, bundle.fig5a, bundle.fig5b, bundle.fig6a, bundle.fig6b):
        add(f"## {fig.figure_id}")
        add("")
        add("```")
        add(format_series_table(fig))
        add("```")
        add("")

    add("## Table 1")
    add("")
    add("Not an experiment (related-work taxonomy); rendered for completeness:")
    add("")
    add("```")
    add(table1.render())
    add("```")
    add("")
    add("## Ablations")
    add("")
    add(
        "Design-choice ablations (pruning rule, per-hop scheduling slack, "
        "oracle vs estimated link parameters, single- vs multi-path "
        "routing, arrival process) are regenerated by "
        "`python -m repro ablate <study>` and asserted in "
        "`benchmarks/bench_ablation.py`.  The non-obvious finding: prune "
        "*counts* are not monotone in pruning aggressiveness (carried "
        "traffic is)."
    )
    add("")
    add(f"**Summary: {passed}/{len(claims)} headline claims hold at this scale.**")
    add("")
    return "\n".join(lines)
