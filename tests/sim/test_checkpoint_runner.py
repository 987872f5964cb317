"""Runner-level checkpointing: policies, cadence, pruning, resume, CLI."""

from __future__ import annotations

import collections
import dataclasses
import io
import pickle
import pickletools

import pytest

from repro.core.checkpoint import CheckpointMismatch, latest_checkpoint
from repro.core.chunked import spill_transfer
from repro.experiments.scale import build_scale_system, scale_config
from repro.pubsub.matching import VectorCountingMatcher
from repro.pubsub.subscription import Subscription
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

    @staticmethod
    def _pickle_counts(system, chunks, monkeypatch) -> tuple[collections.Counter, int]:
        """``(objects pickled per type name, dataclasses.fields calls)``
        over one save and load of ``system`` through a counting pickler."""
        pickled: collections.Counter = collections.Counter()

        class Counting(pickle.Pickler):
            def persistent_id(self, obj):
                pickled[type(obj).__name__] += 1
                return None

        calls = 0
        fields = dataclasses.fields

        def counting_fields(obj):
            nonlocal calls
            calls += 1
            return fields(obj)

        monkeypatch.setattr(dataclasses, "fields", counting_fields)
        buffer = io.BytesIO()
        chunks.mkdir()
        with spill_transfer(chunks):
            Counting(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(system)
            restored = pickle.loads(buffer.getvalue())
        monkeypatch.setattr(dataclasses, "fields", fields)
        assert list(restored.subscribers) == list(system.subscribers)
        return pickled, calls

    def test_snapshot_pickle_cost_does_not_grow_per_subscriber(self, tmp_path, monkeypatch):
        # Exact counts, not timers: no subscriber handle is pickled (the
        # index and the log rebuild them), and the bulk value types pickle
        # as constructor calls, so ``dataclasses.fields`` — called once per
        # object by the slots-dataclass default — is called as often for
        # 2 000 subscribers as for 1 000.
        counts = {}
        for n in (1_000, 2_000):
            spec = ScaleScenarioSpec(name="guard", subscribers=n)
            config = scale_config(
                spec, strategy="eb", minutes=0.5, rate_per_min=20.0, spill=True, chunk_rows=1_024
            )
            system = build_scale_system(spec, config)
            schedule_workload(system, config)
            system.run(until=config.horizon_ms / 2.0)
            assert system.delivery_log.spilled_chunks > 0
            pickled, calls = self._pickle_counts(system, tmp_path / f"chunks-{n}", monkeypatch)
            assert pickled["SubscriberHandle"] == 0
            assert pickled["Subscription"] == len(system.subscribers) >= n
            counts[n] = calls
        assert counts[2_000] == counts[1_000]

    @pytest.mark.parametrize("reference", [False, True], ids=["production", "reference"])
    def test_resumed_handles_follow_the_live_name_order(self, tmp_path, reference):
        # A name that leaves and re-joins before the snapshot moves to the
        # end of the live order under a fresh endpoint id; the handles
        # rebuilt at load keep that order, those ids and the restored log.
        system = build_system(TINY, reference=reference)
        schedule_workload(system, TINY)
        system.run(until=8_000.0)
        names = list(system.subscribers)
        again = system.subscription(names[3])
        system.unsubscribe_all([names[3], names[10]])
        system.subscribe(Subscription(names[3], again.filter, again.deadline_ms, again.price))
        system.run(until=12_000.0)
        assert list(system.subscribers)[-1] == names[3]
        path, _, _ = save_run_checkpoint(system, TINY, tmp_path / "ck")
        restored, config, _ = resume_run(path, config=TINY)
        assert type(restored) is type(system)
        assert list(restored.subscribers) == list(system.subscribers)
        assert [h.log_id for h in restored.subscribers.values()] == [
            h.log_id for h in system.subscribers.values()
        ]
        for name, handle in restored.subscribers.items():
            assert handle.name == name and handle.log is restored.delivery_log
            live = system.subscribers[name]
            assert handle.records == live.records
            assert handle.valid_count == live.valid_count
        run_to_horizon(system, TINY, None)
        run_to_horizon(restored, config, None)
        assert [h.records for h in restored.subscribers.values()] == [
            h.records for h in system.subscribers.values()
        ]

    def test_snapshot_drops_score_plans_and_resumes_identically(self, tmp_path):
        # Score plans are caches: a mid-congestion snapshot carries the
        # queued entries without them, and a resumed run rebuilds them.
        # Plans are built on first need, so some entries hold one and
        # some (not yet scored or pruned) do not.
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
        assert any(entry._plan is not None for entry in queued)
        path, _, _ = save_run_checkpoint(system, config, tmp_path / "ck")
        names = {
            arg for _, arg, _ in pickletools.genops((path / "state.pkl").read_bytes())
            if isinstance(arg, str)
        }
        assert "QueueEntry" in names
        assert "ScorePlan" not in names
        assert run_simulation(config, resume=path) == run_simulation(config)

    def test_snapshot_after_a_churn_wave_is_columnar_and_resumes_identically(self, tmp_path):
        # A wave leaves freed row ids, retired fids, tombstones and re-sorted
        # index columns behind; the snapshot carries them as arrays — no
        # matcher in any table, no per-entry tuples and no Predicate objects
        # in the filter index — and the resumed run cannot be told from the
        # uninterrupted one.
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
        assert not any(
            isinstance(value, VectorCountingMatcher)
            for broker in system.brokers.values() for value in vars(broker.table).values()
        )
        matcher = system.filters._matcher
        assert matcher._total_entries > 100
        pickled = pickle.dumps(system.filters, protocol=pickle.HIGHEST_PROTOCOL)
        ops = list(pickletools.genops(pickled))
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
