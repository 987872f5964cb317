"""EXPERIMENTS.md generator tests."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.common import FigureResult, ScaleSpec
from repro.experiments.record import (
    PAPER_QUOTES,
    RecordBundle,
    comparison_rows,
    render_markdown,
    run_everything,
)


def synthetic_bundle() -> RecordBundle:
    def fig(fid, series):
        return FigureResult(
            figure_id=fid, title=fid, x_label="x", y_label="y",
            x_values=[3.0, 15.0], series=series,
        )

    return RecordBundle(
        scale=ScaleSpec(scale=0.1),
        fig4a=fig("fig4a", {"ebpc": [1.0, 2.0], "eb": [2.0, 2.0], "pc": [1.5, 1.5]}),
        fig4b=fig("fig4b", {"ebpc": [0.5, 0.6], "eb": [0.6, 0.6], "pc": [0.55, 0.55]}),
        fig5a=fig("fig5a", {"eb": [50.0, 150.0], "pc": [45.0, 130.0],
                            "fifo": [40.0, 30.0], "rl": [35.0, 15.0]}),
        fig5b=fig("fig5b", {"eb": [30.0, 123.0], "pc": [30.0, 120.0],
                            "fifo": [28.0, 100.0], "rl": [25.0, 75.0]}),
        fig6a=fig("fig6a", {"eb": [0.8, 0.4], "pc": [0.8, 0.39],
                            "fifo": [0.7, 0.22], "rl": [0.6, 0.12]}),
        fig6b=fig("fig6b", {"eb": [30.0, 117.0], "pc": [30.0, 115.0],
                            "fifo": [28.0, 100.0], "rl": [25.0, 73.0]}),
        elapsed_s=12.3,
    )


class TestComparisonRows:
    def test_all_quotes_covered(self):
        rows = comparison_rows(synthetic_bundle())
        assert len(rows) == len(PAPER_QUOTES)

    def test_ratios_computed_at_top_rate(self):
        rows = {label: (paper, ours) for label, paper, ours in comparison_rows(synthetic_bundle())}
        paper, ours = rows["SSD earning, EB / FIFO"]
        assert paper == 5.0
        assert ours == pytest.approx(150.0 / 30.0)


class TestMarkdown:
    def test_structure(self):
        text = render_markdown(synthetic_bundle())
        assert text.startswith("# EXPERIMENTS")
        for section in ("## Headline numbers", "## Claim checks", "## fig4a",
                        "## fig5b", "## fig6b", "## Table 1"):
            assert section in text
        assert "claims hold" in text

    def test_paper_values_quoted(self):
        text = render_markdown(synthetic_bundle())
        assert "0.401" in text  # the paper's EB delivery rate at rate 15

    def test_names_no_missing_file(self):
        # Every ``*.md`` / ``*.py`` the record cites must exist in the repo.
        root = Path(__file__).resolve().parents[2]
        text = render_markdown(synthetic_bundle())
        cited = set(re.findall(r"[\w./-]+\.(?:md|py)\b", text))
        assert "benchmarks/bench_ablation.py" in cited
        assert [name for name in sorted(cited) if not (root / name).exists()] == []

    def test_synthetic_paper_shape_passes_all_claims(self):
        text = render_markdown(synthetic_bundle())
        assert "[FAIL]" not in text


class TestEndToEnd:
    def test_tiny_run(self):
        bundle = run_everything(ScaleSpec(scale=0.01))
        text = render_markdown(bundle)
        assert "fig6a" in text
        assert bundle.elapsed_s > 0
