"""CLI tests."""

from __future__ import annotations

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.claims import ClaimResult
from repro.experiments.common import ScaleSpec

ROOT = Path(__file__).resolve().parent.parent


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


#: The smallest invocation of every subcommand.  ``{tmp}`` is the test's
#: temporary directory.
SMOKE: dict[str, list[str]] = {
    **{fig: [fig, "--scale", "0.001"]
       for fig in ("fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b")},
    "tab1": ["tab1"],
    "claims": ["claims", "--scale", "0.001"],
    "record": ["record", "--scale", "0.001", "-o", "{tmp}/record.md"],
    "ablate": ["ablate", "epsilon", "--scale", "0.001"],
    "doctor": ["doctor"],
    "dynamics": ["dynamics", "--minutes", "0.5", "--window", "15", "--rate", "2",
                 "--strategy", "fifo"],
    "run": ["run", "--minutes", "0.5", "--rate", "2", "--reference"],
    "scale": ["scale", "--size", "smoke", "--minutes", "0.2", "--rate", "2"],
    "lint": ["lint", "--list-rules"],
    "fuzz": ["fuzz", "--budget", "1", "--minutes", "0.3", "--rate", "2",
             "--out", "{tmp}/findings"],
}


@pytest.mark.parametrize("command", sorted(_subparsers(build_parser())))
def test_every_subcommand_runs_at_its_smallest_size(command, tmp_path, capsys, monkeypatch):
    """Generated from the parser: a subcommand without a smoke invocation
    fails here, so none can be added (or left broken) unexercised."""
    assert command in SMOKE, f"no smoke invocation for subcommand {command!r}"
    # The two entry points that take seconds even at the smallest scale
    # are stubbed; their dispatch and output formatting still run.
    monkeypatch.setattr("repro.cli.run_all", lambda scale: [
        ClaimResult("held", "a claim that holds", True, "x=1"),
    ])
    monkeypatch.setattr(
        "repro.experiments.record.run_everything", lambda scale: {"scale": scale}
    )
    monkeypatch.setattr(
        "repro.experiments.record.render_markdown", lambda bundle: "# record\n"
    )
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in SMOKE[command]]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()


def test_smoke_table_names_only_real_subcommands():
    assert set(SMOKE) <= set(_subparsers(build_parser()))


#: ``--flags`` of other tools that README prose may name in backticks.
FOREIGN_FLAGS = frozenset({"--benchmark-only", "--benchmark-disable"})

_REPRO_COMMAND = re.compile(r"python -m repro\b([^`\n]*)")


def _documented_commands(text: str) -> list[list[str]]:
    """Every ``python -m repro …`` command in ``text``, as argv lists
    (continuation lines joined, comments and redirections dropped)."""
    commands = []
    for match in _REPRO_COMMAND.finditer(text.replace("\\\n", " ")):
        argv = []
        for token in shlex.split(match.group(1), comments=True):
            if token in ("|", ">", "2>", "&&", ";", "<"):
                break
            argv.append(token)
        if argv:
            commands.append(argv)
    return commands


def _unparsable_commands(text: str, capsys) -> list[str]:
    """The documented commands ``build_parser()`` rejects."""
    bad = []
    for argv in _documented_commands(text):
        try:
            build_parser().parse_args(argv)
        except SystemExit as stop:  # --help exits 0; a bad command exits 2
            if stop.code != 0:
                bad.append(shlex.join(argv))
    capsys.readouterr()  # argparse's usage and help output
    return bad


def _unknown_flags(text: str) -> set[str]:
    """Backticked ``--flags`` that name no option of any subcommand."""
    options = {
        option
        for sub in _subparsers(build_parser()).values()
        for action in sub._actions
        for option in action.option_strings
    }
    return set(re.findall(r"`(--[a-z0-9][a-z0-9-]*)", text)) - options - FOREIGN_FLAGS


@pytest.mark.parametrize("doc", ["README.md", ".claude/skills/verify/SKILL.md"])
def test_documented_commands_parse(doc, capsys):
    text = (ROOT / doc).read_text()
    assert _documented_commands(text)
    assert _unparsable_commands(text, capsys) == []


def test_readme_flags_name_real_options():
    assert _unknown_flags((ROOT / "README.md").read_text()) == set()


def test_doc_checks_catch_a_planted_flag(capsys):
    planted = "Pass `--no-such-flag x`: `python -m repro run --no-such-flag x`."
    assert _unknown_flags(planted) == {"--no-such-flag"}
    assert _unparsable_commands(planted, capsys) == ["run --no-such-flag x"]


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
        assert args.reference is False

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


class TestUnusableSnapshot:
    """A snapshot that cannot be resumed exits 4 with one typed line on
    stderr (3 is reserved for an interrupted run)."""

    RUN = ["run", "--minutes", "0.5", "--rate", "2", "--seed", "7"]

    def _snapshot(self, tmp_path: Path, capsys) -> Path:
        root = tmp_path / "ck"
        assert main([*self.RUN, "--checkpoint-every", "10",
                     "--checkpoint-dir", str(root)]) == 0
        capsys.readouterr()
        return sorted(root.glob("ckpt-*"))[0]

    def test_truncated_state_is_a_checkpoint_error(self, tmp_path, capsys):
        snapshot = self._snapshot(tmp_path, capsys)
        state = snapshot / "state.pkl"
        data = state.read_bytes()
        state.write_bytes(data[: len(data) // 2])
        assert main([*self.RUN, "--resume", str(snapshot)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("CheckpointError: ")
        assert "state.pkl" in err[0]

    def test_version_1_snapshot_is_refused(self, tmp_path, capsys):
        snapshot = self._snapshot(tmp_path, capsys)
        manifest = snapshot / "MANIFEST.json"
        meta = json.loads(manifest.read_text())
        meta["version"] = 1
        manifest.write_text(json.dumps(meta))
        assert main([*self.RUN, "--resume", str(snapshot)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("CheckpointMismatch: ")
        assert "version 1" in err[0]

    def test_code_fingerprint_mismatch_is_a_checkpoint_mismatch(self, tmp_path, capsys):
        snapshot = self._snapshot(tmp_path, capsys)
        manifest = snapshot / "MANIFEST.json"
        meta = json.loads(manifest.read_text())
        meta["code"] = "0" * 64
        manifest.write_text(json.dumps(meta))
        assert main([*self.RUN, "--resume", str(snapshot)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("CheckpointMismatch: ")
        assert "code" in err[0]
