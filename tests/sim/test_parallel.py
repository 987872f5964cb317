"""Parallel sweep executor: determinism, caching, fingerprints."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.sim.parallel as parallel
from repro.sim.config import SimulationConfig
from repro.sim.parallel import (
    ParallelPointRunner,
    PointCache,
    config_fingerprint,
    make_point_runner,
)
from repro.sim.runner import run_simulation
from repro.sim.sweep import run_points_serial, sweep_publishing_rate, sweep_r_weight
from repro.workload.scenarios import Scenario

TINY = SimulationConfig(
    seed=0, scenario=Scenario.SSD, publishing_rate_per_min=6.0, duration_ms=5_000.0
)


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        assert config_fingerprint(TINY) == config_fingerprint(TINY.replace())

    def test_sensitive_to_every_relevant_knob(self):
        base = config_fingerprint(TINY)
        for changed in (
            TINY.replace(seed=1),
            TINY.replace(strategy="pc"),
            TINY.replace(strategy_params={"r": 0.7}),
            TINY.replace(publishing_rate_per_min=9.0),
            TINY.replace(scenario=Scenario.PSD),
            TINY.replace(duration_ms=6_000.0),
        ):
            assert config_fingerprint(changed) != base

    def test_result_neutral_log_knobs_share_fingerprints(self):
        """log_spill/log_chunk_rows change residency, never results, so a
        spilled sweep must hit the cache a plain sweep populated."""
        assert config_fingerprint(TINY) == config_fingerprint(
            TINY.replace(log_spill=True, log_chunk_rows=256)
        )

    def test_fingerprint_is_hex_sha256(self):
        fp = config_fingerprint(TINY)
        assert len(fp) == 64
        int(fp, 16)


class TestPointCache:
    def test_round_trip(self, tmp_path):
        cache = PointCache(tmp_path / "points")
        assert cache.get(TINY) is None
        result = run_simulation(TINY)
        cache.put(TINY, result)
        assert cache.get(TINY) == result
        assert len(cache) == 1

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = PointCache(tmp_path)
        (tmp_path / f"{config_fingerprint(TINY)}.json").write_text("{not json")
        assert cache.get(TINY) is None

    def test_valid_json_non_object_entry_recomputed(self, tmp_path):
        cache = PointCache(tmp_path)
        (tmp_path / f"{config_fingerprint(TINY)}.json").write_text("5")
        assert cache.get(TINY) is None

    def test_stale_schema_entry_recomputed(self, tmp_path):
        cache = PointCache(tmp_path)
        (tmp_path / f"{config_fingerprint(TINY)}.json").write_text(
            json.dumps({"strategy": "eb"})  # missing every other field
        )
        assert cache.get(TINY) is None

    def test_corrupt_entry_is_deleted_not_poisonous(self, tmp_path):
        """Satellite regression: a truncated file left by a killed run (or
        a full disk) must be a cache miss AND be removed, so neither this
        sweep nor a later one trips over it again."""
        cache = PointCache(tmp_path)
        path = tmp_path / f"{config_fingerprint(TINY)}.json"
        path.write_text('{"strategy": "eb", "scenario"')  # torn mid-write
        assert cache.get(TINY) is None
        assert not path.exists()
        # The slot is immediately reusable.
        result = run_simulation(TINY)
        cache.put(TINY, result)
        assert cache.get(TINY) == result

    def test_undecodable_bytes_entry_is_a_miss(self, tmp_path):
        cache = PointCache(tmp_path)
        path = tmp_path / f"{config_fingerprint(TINY)}.json"
        path.write_bytes(b"\xff\xfe\x00garbage\x80")  # not valid UTF-8
        assert cache.get(TINY) is None
        assert not path.exists()

    def test_unreadable_entry_is_a_miss(self, tmp_path, monkeypatch):
        """An OSError while reading (NFS hiccup, permissions) is a miss,
        not a sweep abort."""
        cache = PointCache(tmp_path)
        path = tmp_path / f"{config_fingerprint(TINY)}.json"
        path.write_text("{}")
        real_read = Path.read_text

        def flaky_read(self, *a, **kw):
            if self == path:
                raise OSError("I/O error")
            return real_read(self, *a, **kw)

        monkeypatch.setattr(Path, "read_text", flaky_read)
        assert cache.get(TINY) is None


class TestParallelRunner:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ParallelPointRunner(jobs=0)

    def test_parallel_results_identical_to_serial(self):
        configs = [TINY.replace(seed=s) for s in range(3)]
        assert ParallelPointRunner(jobs=2)(configs) == run_points_serial(configs)

    def test_cache_skips_finished_points(self, tmp_path, monkeypatch):
        runner = ParallelPointRunner(jobs=1, cache=PointCache(tmp_path))
        configs = [TINY.replace(seed=s) for s in range(2)]
        first = runner(configs)
        calls = []

        def boom(config):
            calls.append(config)
            raise AssertionError("cache miss on a cached point")

        monkeypatch.setattr(parallel, "_run_point", boom)
        assert runner(configs) == first
        assert calls == []

    def test_failed_batch_still_caches_finished_points(self, tmp_path, monkeypatch):
        """A point that raises mid-batch must not discard finished points."""
        cache = PointCache(tmp_path)
        runner = ParallelPointRunner(jobs=1, cache=cache)
        good, bad = TINY.replace(seed=0), TINY.replace(seed=1)

        def sometimes(config):
            if config.seed == 1:
                raise RuntimeError("simulated worker crash")
            return run_simulation(config)

        monkeypatch.setattr(parallel, "_run_point", sometimes)
        with pytest.raises(RuntimeError):
            runner([good, bad])
        assert cache.get(good) is not None  # finished point survived
        assert cache.get(bad) is None

    def test_cache_dir_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("hello")
        with pytest.raises(NotADirectoryError):
            PointCache(target)

    def test_make_point_runner_serial_default(self, tmp_path):
        assert make_point_runner(None, None) is run_points_serial
        assert make_point_runner(1, None) is run_points_serial
        assert isinstance(make_point_runner(2, None), ParallelPointRunner)
        assert isinstance(make_point_runner(None, tmp_path / "a"), ParallelPointRunner)
        assert isinstance(make_point_runner(1, tmp_path / "b"), ParallelPointRunner)


class TestSweepIntegration:
    def test_rate_sweep_parallel_matches_serial(self):
        serial = sweep_publishing_rate(TINY, [3.0, 6.0], ["fifo", "eb"])
        parallel_ = sweep_publishing_rate(
            TINY, [3.0, 6.0], ["fifo", "eb"], point_runner=ParallelPointRunner(jobs=2)
        )
        assert serial.series == parallel_.series
        assert serial.x_values == parallel_.x_values

    def test_r_sweep_parallel_matches_serial(self):
        serial = sweep_r_weight(TINY, [0.0, 0.5, 1.0])
        parallel_ = sweep_r_weight(
            TINY, [0.0, 0.5, 1.0], point_runner=ParallelPointRunner(jobs=2)
        )
        assert serial.series == parallel_.series

    def test_multi_seed_mean_stored(self):
        sweep = sweep_publishing_rate(TINY, [6.0], ["fifo"], seeds=[0, 1])
        single = sweep_publishing_rate(TINY, [6.0], ["fifo"], seeds=[0])
        collapsed = sweep.series["fifo"][0]
        lone = single.series["fifo"][0]
        # The docstring promises the per-seed mean, not the seed-0 run.
        per_seed = [
            run_simulation(TINY.replace(strategy="fifo", publishing_rate_per_min=6.0, seed=s))
            for s in (0, 1)
        ]
        if per_seed[0].earning != per_seed[1].earning:
            assert collapsed.earning != lone.earning
        assert collapsed.earning == pytest.approx(
            sum(r.earning for r in per_seed) / 2
        )


class TestPointRetry:
    @pytest.fixture(autouse=True)
    def _fast_backoff(self, monkeypatch):
        monkeypatch.setattr(parallel, "_POINT_BACKOFF_S", 0.0)

    def test_transient_failure_heals(self, monkeypatch):
        attempts = []

        def flaky(config):
            attempts.append(config)
            if len(attempts) < 3:
                raise OSError("transient spill hiccup")
            return run_simulation(config)

        monkeypatch.setattr(parallel, "_run_point", flaky)
        result = parallel._run_point_retrying(TINY, retries=2, backoff_s=0.0)
        assert result == run_simulation(TINY)
        assert len(attempts) == 3

    def test_persistent_failure_propagates_after_budget(self, monkeypatch):
        attempts = []

        def always(config):
            attempts.append(config)
            raise RuntimeError("deterministic failure")

        monkeypatch.setattr(parallel, "_run_point", always)
        with pytest.raises(RuntimeError, match="deterministic"):
            parallel._run_point_retrying(TINY, retries=2, backoff_s=0.0)
        assert len(attempts) == 3  # retries + 1

    def test_zero_retries_is_single_shot(self, monkeypatch):
        attempts = []

        def always(config):
            attempts.append(config)
            raise RuntimeError("boom")

        monkeypatch.setattr(parallel, "_run_point", always)
        with pytest.raises(RuntimeError):
            parallel._run_point_retrying(TINY, retries=0, backoff_s=0.0)
        assert len(attempts) == 1

    def test_runner_validation(self):
        with pytest.raises(ValueError):
            ParallelPointRunner(jobs=1, retries=-1)
        with pytest.raises(ValueError):
            ParallelPointRunner(jobs=1, max_respawns=-1)

    def test_serial_path_retries(self, tmp_path, monkeypatch):
        """jobs=1 goes through the same bounded-retry entry as the pool."""
        attempts = []

        def flaky(config):
            attempts.append(config)
            if len(attempts) == 1:
                raise OSError("transient")
            return run_simulation(config)

        monkeypatch.setattr(parallel, "_run_point", flaky)
        runner = ParallelPointRunner(jobs=1, cache=PointCache(tmp_path))
        results = runner([TINY])
        assert results == [run_simulation(TINY)]
        assert len(attempts) == 2
        assert runner.cache.get(TINY) is not None


class TestBrokenPoolRecovery:
    """Worker death (os._exit — bypasses worker-side retry entirely) must
    respawn the pool and recover the lost points, not abort the sweep.

    The pool start method on Linux is fork, so monkeypatching
    ``parallel._run_point`` in the parent is inherited by the workers.
    """

    def test_sweep_survives_one_worker_crash(self, tmp_path, monkeypatch):
        import os

        sentinel = tmp_path / "crashed-once"

        def crash_once(config):
            if config.seed == 1 and not sentinel.exists():
                sentinel.write_text("x")
                os._exit(1)  # hard kill: BrokenProcessPool in the parent
            return run_simulation(config)

        monkeypatch.setattr(parallel, "_run_point", crash_once)
        configs = [TINY.replace(seed=s) for s in range(3)]
        runner = ParallelPointRunner(jobs=2, max_respawns=2)
        with pytest.warns(RuntimeWarning, match="respawning"):
            results = runner(configs)
        assert sentinel.exists()
        assert results == run_points_serial(configs)

    def test_unrecoverable_points_marked_failed_not_fatal(self, tmp_path, monkeypatch):
        import os
        import time

        cache = PointCache(tmp_path / "cache")
        good, bad = TINY.replace(seed=0), TINY.replace(seed=1)
        good_entry = cache.root / f"{config_fingerprint(good)}.json"

        def crash_after_good(config):
            if config.seed == 1:
                # Die only once the good point's result is cached (the
                # parent caches completions as they arrive), so exactly
                # one point is unrecoverable — deterministically.
                deadline = time.time() + 30.0
                while not good_entry.exists() and time.time() < deadline:
                    time.sleep(0.01)
                os._exit(1)
            return run_simulation(config)

        monkeypatch.setattr(parallel, "_run_point", crash_after_good)
        runner = ParallelPointRunner(jobs=2, cache=cache, max_respawns=1)
        # Both the respawn warning and the final unrecoverable warning
        # fire; pytest.warns swallows all recorded RuntimeWarnings.
        with pytest.warns(RuntimeWarning) as recorded:
            results = runner([good, bad])
        assert any("unrecoverable" in str(w.message) for w in recorded)
        assert results[0] == run_simulation(good)
        failure = results[1]
        assert isinstance(failure, parallel.PointFailure)
        assert failure.config.seed == 1
        assert failure.attempts == 2  # initial pool + 1 respawn
        # The survivor was cached; the placeholder must never be.
        assert cache.get(good) is not None
        assert cache.get(bad) is None


class TestCacheDurability:
    def test_put_is_atomic_no_tmp_residue(self, tmp_path):
        cache = PointCache(tmp_path)
        cache.put(TINY, run_simulation(TINY))
        assert not list(tmp_path.glob("*.tmp"))
        assert cache.get(TINY) is not None

    def test_old_orphan_tmp_swept_on_open(self, tmp_path):
        import os
        import time

        old = tmp_path / "deadbeef.12345.tmp"
        old.write_text("torn write from a killed sweep")
        stale = time.time() - 2 * PointCache._TMP_ORPHAN_AGE_S
        os.utime(old, (stale, stale))
        fresh = tmp_path / "cafebabe.6789.tmp"
        fresh.write_text("concurrent writer, in flight")
        PointCache(tmp_path)
        assert not old.exists()  # stale orphan reaped
        assert fresh.exists()  # young file untouched (may be mid-replace)


class TestCliJobs:
    def test_jobs_flag_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig5a", "--scale", "0.02", "--jobs", "4"])
        assert args.jobs == 4
        assert args.cache_dir is None
        args = build_parser().parse_args(["fig6b", "--cache-dir", "/tmp/pts"])
        assert args.jobs == 1
        assert args.cache_dir == "/tmp/pts"
