"""Runner-level checkpointing: policies, cadence, pruning, resume, CLI."""

from __future__ import annotations

import pickle
import pickletools

import pytest

from repro.core.checkpoint import CheckpointMismatch, latest_checkpoint
from repro.experiments.scale import build_scale_system, scale_config
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    CheckpointPolicy,
    CheckpointStats,
    build_system,
    resume_run,
    run_simulation,
    run_to_horizon,
    save_run_checkpoint,
    schedule_dynamics,
    schedule_workload,
)
from repro.workload.dynamics import ChurnWave, ScenarioScript
from repro.workload.scenarios import ScaleScenarioSpec, Scenario

TINY = SimulationConfig(
    seed=3, scenario=Scenario.SSD, publishing_rate_per_min=6.0, duration_ms=30_000.0
)


class TestCheckpointPolicy:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointPolicy(tmp_path, every_ms=0.0)
        with pytest.raises(ValueError):
            CheckpointPolicy(tmp_path, every_ms=-5.0)
        with pytest.raises(ValueError):
            CheckpointPolicy(tmp_path, every_ms=1.0, keep=0)

    def test_directory_coerced_to_path(self, tmp_path):
        from pathlib import Path

        policy = CheckpointPolicy(str(tmp_path), every_ms=1.0)
        assert isinstance(policy.directory, Path)

    def test_stats_accounting(self, tmp_path):
        stats = CheckpointStats()
        stats.note(tmp_path / "a", 0.5, 100)
        stats.note(tmp_path / "b", 0.25, 80)
        assert stats.snapshots == 2
        assert stats.write_s == pytest.approx(0.75)
        assert stats.bytes == 80  # latest size, not a sum
        assert stats.paths == [tmp_path / "a", tmp_path / "b"]


class TestCheckpointedRun:
    def test_checkpointing_does_not_change_the_result(self, tmp_path):
        plain = run_simulation(TINY)
        policy = CheckpointPolicy(tmp_path / "ck", every_ms=10_000.0)
        checkpointed = run_simulation(TINY, checkpoint=policy)
        assert checkpointed == plain

    def test_snapshot_cadence_and_pruning(self, tmp_path):
        system = build_system(TINY)
        schedule_workload(system, TINY)
        policy = CheckpointPolicy(tmp_path / "ck", every_ms=5_000.0, keep=2)
        stats = run_to_horizon(system, TINY, None, checkpoint=policy)
        # horizon = 30 s publication + grace; boundaries below the horizon
        # each wrote a snapshot, and pruning held the directory at `keep`.
        assert stats.snapshots >= 3
        on_disk = sorted((tmp_path / "ck").glob("ckpt-*"))
        assert len(on_disk) == 2
        assert stats.write_s > 0.0 and stats.bytes > 0

    def test_cadence_longer_than_horizon_writes_nothing(self, tmp_path):
        policy = CheckpointPolicy(tmp_path / "ck", every_ms=10_000_000.0)
        result = run_simulation(TINY, checkpoint=policy)
        assert result == run_simulation(TINY)
        assert not (tmp_path / "ck").exists()

    def test_sentinel_keeps_its_own_cadence_between_snapshots(self, tmp_path):
        # Horizon 90 s (30 s publication + 60 s grace): the sentinel checks
        # at every 5 s multiple, snapshots land only on the 20 s ones below
        # the horizon, and the final pass runs once.
        class CountingSentinel:
            def __init__(self):
                self.checked_at, self.finals = [], 0

            def check(self):
                self.checked_at.append(system.sim.now)

            def final(self):
                self.finals += 1

        config = TINY.replace(sentinel_every_ms=5_000.0)
        system = build_system(config)
        schedule_workload(system, config)
        sentinel = CountingSentinel()
        policy = CheckpointPolicy(tmp_path / "ck", every_ms=20_000.0, keep=10)
        stats = run_to_horizon(system, config, sentinel, checkpoint=policy)
        assert len(sentinel.checked_at) == 18
        assert sentinel.checked_at[-1] == config.horizon_ms
        assert sentinel.finals == 1
        assert stats.snapshots == 4  # at 20, 40, 60 and 80 s

    def test_resume_from_root_picks_latest(self, tmp_path):
        system = build_system(TINY)
        schedule_workload(system, TINY)
        policy = CheckpointPolicy(tmp_path / "ck", every_ms=8_000.0, keep=5)
        run_to_horizon(system, TINY, None, checkpoint=policy)
        newest = latest_checkpoint(tmp_path / "ck")
        assert newest is not None
        by_root, _, _ = resume_run(tmp_path / "ck", config=TINY)
        by_path, _, _ = resume_run(newest, config=TINY)
        assert by_root.sim.executed_events == by_path.sim.executed_events
        assert by_root.sim.now == by_path.sim.now

    def test_resume_refuses_mismatched_config(self, tmp_path):
        system = build_system(TINY)
        schedule_workload(system, TINY)
        system.sim.run(until=10_000.0)
        path, _, _ = save_run_checkpoint(system, TINY, tmp_path / "ck")
        with pytest.raises(CheckpointMismatch, match="config"):
            resume_run(path, config=TINY.replace(strategy="fifo"))
        # Result-neutral spill knobs are NOT part of the identity.
        restored, _, _ = resume_run(
            path, config=TINY.replace(log_spill=True, log_chunk_rows=256)
        )
        assert restored.sim.executed_events == system.sim.executed_events

    def test_run_simulation_resume_path(self, tmp_path):
        system = build_system(TINY)
        schedule_workload(system, TINY)
        system.sim.run(until=12_000.0)
        path, _, _ = save_run_checkpoint(system, TINY, tmp_path / "ck")
        resumed = run_simulation(TINY, resume=path)
        assert resumed == run_simulation(TINY)
        with pytest.raises(ValueError, match="topology"):
            run_simulation(TINY, system.topology, resume=path)

    def test_scale_snapshot_pickles_no_row_objects(self, tmp_path):
        # The tables travel as columns plus subscription references: a
        # TableRow in state.pkl means per-row object pickling is back.
        spec = ScaleScenarioSpec(name="guard", subscribers=400)
        config = scale_config(spec, strategy="eb", minutes=0.5, rate_per_min=20.0)
        system = build_scale_system(spec, config)
        schedule_workload(system, config)
        system.run(until=config.horizon_ms / 2.0)
        assert system.total_queued() > 0  # in-flight entries ride along too
        path, _, _ = save_run_checkpoint(system, config, tmp_path / "ck")
        names = {
            arg for _, arg, _ in pickletools.genops((path / "state.pkl").read_bytes())
            if isinstance(arg, str)
        }
        assert "Subscription" in names and "SubscriptionTable" in names
        assert "TableRow" not in names

    def test_snapshot_drops_score_plans_and_resumes_identically(self, tmp_path):
        # Score plans are caches: a mid-congestion snapshot carries the
        # queued entries without them, and a resumed run rebuilds them.
        config = TINY.replace(strategy="ebpc", publishing_rate_per_min=30.0)
        system = build_system(config)
        schedule_workload(system, config)
        system.run(until=20_000.0)
        queued = [
            entry
            for broker in system.brokers.values()
            for queue in broker.queues.values()
            for entry in queue.sched.entries()
        ]
        assert len(queued) > 10
        assert all(entry._plan is not None for entry in queued)
        path, _, _ = save_run_checkpoint(system, config, tmp_path / "ck")
        names = {
            arg for _, arg, _ in pickletools.genops((path / "state.pkl").read_bytes())
            if isinstance(arg, str)
        }
        assert "QueueEntry" in names
        assert "ScorePlan" not in names
        assert run_simulation(config, resume=path) == run_simulation(config)

    def test_snapshot_after_a_churn_wave_is_columnar_and_resumes_identically(self, tmp_path):
        # A wave leaves freed row ids, tombstones and re-sorted index
        # columns behind; the snapshot carries all of it as arrays — no
        # per-entry tuples, no Predicate objects in a matcher — and the
        # resumed run cannot be told from the uninterrupted one.
        config = TINY.replace(dynamics=ScenarioScript((
            ChurnWave(at_ms=8_000.0, leave=60, join=60),
            ChurnWave(at_ms=20_000.0, leave=30, join=10),
        )))
        system = build_system(config)
        schedule_workload(system, config)
        schedule_dynamics(system, config)
        system.run(until=12_000.0)
        assert system.unsubscribe_count == 60
        path, _, _ = save_run_checkpoint(system, config, tmp_path / "ck")
        matcher = max(
            (broker.table._matcher for broker in system.brokers.values()), key=len
        )
        assert matcher._total_entries > 100
        ops = list(pickletools.genops(pickle.dumps(matcher, protocol=pickle.HIGHEST_PROTOCOL)))
        assert "Predicate" not in {arg for _, arg, _ in ops if isinstance(arg, str)}
        tuples = sum(op.name.startswith("TUPLE") for op, _, _ in ops)
        assert tuples < matcher._total_entries // 4
        assert run_simulation(config, resume=path) == run_simulation(config)

    def test_snapshot_names_order_by_execution(self, tmp_path):
        system = build_system(TINY)
        schedule_workload(system, TINY)
        policy = CheckpointPolicy(tmp_path / "ck", every_ms=8_000.0, keep=10)
        run_to_horizon(system, TINY, None, checkpoint=policy)
        names = [p.name for p in sorted((tmp_path / "ck").glob("ckpt-*"))]
        executed = [int(n.split("-", 1)[1]) for n in names]
        assert executed == sorted(executed)
        assert latest_checkpoint(tmp_path / "ck").name == names[-1]


class TestCliFlags:
    def test_checkpoint_flags_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "run", "--checkpoint-every", "30",
            "--checkpoint-dir", "/tmp/ck", "--checkpoint-keep", "5",
        ])
        assert args.checkpoint_every == 30.0
        assert args.checkpoint_dir == "/tmp/ck"
        assert args.checkpoint_keep == 5
        assert args.resume is None

    def test_resume_flag_parsed_everywhere(self):
        from repro.cli import build_parser

        for cmd in (["run"], ["scale", "--size", "smoke"], ["dynamics"]):
            args = build_parser().parse_args([*cmd, "--resume", "/tmp/ck"])
            assert args.resume == "/tmp/ck"
            assert args.checkpoint_every is None

    def test_policy_built_from_flags(self):
        from repro.cli import _checkpoint_policy, build_parser

        args = build_parser().parse_args(["run", "--checkpoint-every", "30"])
        policy = _checkpoint_policy(args)
        assert policy is not None
        assert policy.every_ms == 30_000.0  # seconds on the CLI, ms inside
        args = build_parser().parse_args(["run"])
        assert _checkpoint_policy(args) is None
