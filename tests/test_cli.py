"""CLI tests."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments.claims import ClaimResult
from repro.experiments.common import ScaleSpec


class TestParser:
    def test_figure_subcommands_exist(self):
        parser = build_parser()
        for fig in ("fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b"):
            args = parser.parse_args([fig, "--scale", "0.02", "--seed", "3"])
            assert args.command == fig
            assert args.scale == 0.02
            assert args.seed == 3

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "psd"
        assert args.strategy == "eb"
        assert args.rate == 10.0

    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "xyz"])

    def test_dynamics_defaults(self):
        args = build_parser().parse_args(["dynamics"])
        assert args.preset == "flash-crowd"
        assert args.metric == "delivery-rate"
        assert args.strategy is None  # -> all strategies

    def test_dynamics_bad_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamics", "--preset", "nope"])


class TestExecution:
    def test_tab1(self, capsys):
        assert main(["tab1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "DiffServ" in out

    def test_run_custom_point(self, capsys):
        assert main(["run", "--minutes", "1", "--rate", "5", "--strategy", "fifo"]) == 0
        out = capsys.readouterr().out
        assert "delivery rate" in out
        assert "fifo" in out

    def test_run_ebpc_uses_r(self, capsys):
        assert main(["run", "--minutes", "1", "--strategy", "ebpc", "--r", "0.7"]) == 0
        assert "ebpc(r=0.7)" in capsys.readouterr().out

    def test_figure_tiny_scale(self, capsys):
        assert main(["fig4b", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4(b)" in out
        assert "ebpc" in out

    def test_dynamics_command(self, capsys):
        assert main([
            "dynamics", "--preset", "diurnal", "--minutes", "2", "--window", "30",
            "--rate", "4", "--strategy", "fifo", "--strategy", "eb",
        ]) == 0
        out = capsys.readouterr().out
        assert "Dynamics [diurnal]" in out
        assert "fifo" in out and "eb" in out
        assert "legend:" in out  # ascii chart rendered

    def test_dynamics_queue_metric(self, capsys):
        assert main([
            "dynamics", "--preset", "degrade-worst-link", "--metric", "queue-depth",
            "--minutes", "2", "--window", "30", "--rate", "4", "--strategy", "fifo",
        ]) == 0
        assert "queue" in capsys.readouterr().out

    def test_run_with_log_spill(self, capsys):
        assert main([
            "run", "--minutes", "1", "--rate", "5", "--strategy", "fifo",
            "--log-spill", "--log-chunk", "128",
        ]) == 0
        assert "delivery rate" in capsys.readouterr().out

    def test_scale_smoke_point(self, capsys):
        assert main([
            "scale", "--size", "smoke", "--minutes", "0.5", "--rate", "4",
            "--log-spill", "--log-chunk", "4096",
        ]) == 0
        out = capsys.readouterr().out
        assert "scale-smoke" in out
        assert "spilled chunks" in out
        assert "peak RSS" in out

    def test_claims_prints_verdict_table(self, capsys, monkeypatch):
        # ``run_all`` stubbed: the dispatch and the report are under test,
        # not two figure sweeps.
        seen = []

        def run_all(scale):
            seen.append(scale)
            return [
                ClaimResult("held", "a claim that holds", True, "x=1"),
                ClaimResult("broken", "a claim that does not", False, "x=2"),
            ]

        monkeypatch.setattr("repro.cli.run_all", run_all)
        assert main(["claims", "--scale", "0.01", "--seed", "3"]) == 0
        assert seen == [ScaleSpec(scale=0.01, seed=3)]
        out = capsys.readouterr().out
        assert "[PASS] held" in out and "[FAIL] broken" in out
        assert "1/2 claims hold" in out
