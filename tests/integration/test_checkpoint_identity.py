"""Checkpoint/resume differential: a snapshot is a residency pause, never
a result knob.

The acceptance bar of the checkpoint PR: a run snapshotted mid-flight,
restored *into fresh objects* from the on-disk checkpoint, and run to
the horizon must be byte-identical to the uninterrupted run — figure
metrics, the raw delivery-log bytes, per-endpoint record streams,
windowed time series, executed-event counts.  Proven across all five
strategies, spill on/off, and a churn/flash-crowd dynamics script whose
interventions straddle the checkpoint time (pending intervention events
must survive the pickle as scheduled work).  A reference-stack snapshot
resuming as the reference stack is ``test_reference_identity.py``'s.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.timeseries import QueueDepthSampler, windowed_metrics
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    build_system,
    resume_run,
    save_run_checkpoint,
    schedule_dynamics,
    schedule_workload,
)
from repro.des.rng import RngStreams
from repro.network.topology import build_layered_mesh
from repro.workload.dynamics import (
    BrokerOutage,
    BrokerRecover,
    CascadeOutage,
    ChurnWave,
    FlashCrowd,
    LinkFailure,
    LinkRestore,
    RateBurst,
    ScenarioScript,
)
from repro.workload.scenarios import Scenario

#: Forces many sealed chunks in 90-second runs (a few thousand rows).
SMALL_CHUNK = 256

#: Interventions on BOTH sides of CKPT_MS: the burst and churn wave have
#: fired by snapshot time, the flash crowd is still a pending event that
#: must travel through the pickle.
CHURNY = ScenarioScript((
    RateBurst(20_000.0, 60_000.0, 3.0),
    ChurnWave(at_ms=25_000.0, leave=8, join=8),
    FlashCrowd(at_ms=40_000.0, count=10),
))

#: Mid-run snapshot time (the publication window is 90 s + grace).
CKPT_MS = 30_000.0

BASE = dict(seed=11, publishing_rate_per_min=6.0, duration_ms=90_000.0)


def _fault_script() -> ScenarioScript:
    """Hard faults straddling CKPT_MS: the link kill and broker outage
    have fired by snapshot time (so the snapshot carries down links, a
    down broker, pending retry events, and possibly dead-lettered
    traffic); the cascade and both recoveries are still pending events
    that must travel through the pickle.  Names come from the exact
    topology every seed-11 run builds."""
    topology = build_layered_mesh(RngStreams(11).get("topology"))
    a, b = [(x, y) for x, y, _rate in topology.links()][0]
    down = sorted(topology.brokers)[-1]
    return ScenarioScript((
        LinkFailure(at_ms=15_000.0, a=a, b=b),
        BrokerOutage(at_ms=20_000.0, broker=down),
        CascadeOutage(
            at_ms=40_000.0, origin=a, step_ms=4_000.0, max_depth=2,
            recover_after_ms=20_000.0,
        ),
        LinkRestore(at_ms=55_000.0, a=a, b=b),
        BrokerRecover(at_ms=60_000.0, broker=down),
    ))


FAULTY = _fault_script()

CONFIGS: dict[str, SimulationConfig] = {
    **{
        f"ssd-{s}-ledger": SimulationConfig(scenario=Scenario.SSD, strategy=s, **BASE)
        for s in ("fifo", "rl", "eb", "pc", "ebpc")
    },
    "psd-eb-ledger": SimulationConfig(scenario=Scenario.PSD, strategy="eb", **BASE),
    "ssd-ebpc-churn": SimulationConfig(
        scenario=Scenario.SSD, strategy="ebpc", dynamics=CHURNY, **BASE
    ),
    "ssd-eb-faults": SimulationConfig(
        scenario=Scenario.SSD, strategy="eb", dynamics=FAULTY, **BASE
    ),
}

#: Configs additionally exercised with the spill ring engaged (the
#: snapshot then carries chunk *files*, not inlined arrays).
SPILL_NAMES = ("ssd-eb-ledger", "ssd-ebpc-churn", "ssd-eb-faults")


def _build(config: SimulationConfig):
    system = build_system(config)
    schedule_workload(system, config)
    schedule_dynamics(system, config)
    return system


def _fingerprint(system, config: SimulationConfig) -> dict:
    m = system.metrics
    log_h = hashlib.sha256()
    for col in system.delivery_log.columns():
        log_h.update(np.ascontiguousarray(col).tobytes())
    rec_h = hashlib.sha256()
    for name in sorted(system.subscribers):
        rec_h.update(name.encode())
        for col in system.subscribers[name].columns():
            rec_h.update(np.ascontiguousarray(col).tobytes())
    ts = windowed_metrics(system, 20_000.0, config.horizon_ms)
    ts_h = hashlib.sha256()
    for arr in (ts.edges, ts.published, ts.interested, ts.deliveries_valid,
                ts.deliveries_late, ts.earning, ts.latency_sum_ms):
        ts_h.update(np.ascontiguousarray(arr).tobytes())
    return {
        "published": m.published, "receptions": m.receptions,
        "transmissions": m.transmissions, "deliveries_valid": m.deliveries_valid,
        "deliveries_late": m.deliveries_late, "pruned": m.pruned,
        "earning": m.earning, "latency_sum_ms": m.latency_sum_ms,
        "delivery_rate": m.delivery_rate,
        "executed_events": system.sim.executed_events,
        "fault_ledger": system.faults.summary(),
        "delivery_log_sha256": log_h.hexdigest(),
        "endpoint_records_sha256": rec_h.hexdigest(),
        "windowed_series_sha256": ts_h.hexdigest(),
    }


def _uninterrupted(config: SimulationConfig) -> dict:
    system = _build(config)
    system.sim.run(until=config.horizon_ms)
    return _fingerprint(system, config)


def _checkpointed_resumed(
    config: SimulationConfig, tmp_path: Path, at_ms: float = CKPT_MS
) -> dict:
    """Run to ``at_ms``, snapshot to disk, restore into a FRESH object
    graph, run that to the horizon; fingerprint the restored world."""
    system = _build(config)
    system.sim.run(until=at_ms)
    path, _, size = save_run_checkpoint(system, config, tmp_path / "ck")
    assert size > 0
    del system  # identity must come from the restored graph alone
    restored, restored_config, _ = resume_run(path, config=config)
    restored.sim.run(until=restored_config.horizon_ms)
    return _fingerprint(restored, restored_config)


class TestCheckpointResumeIdentity:
    """Snapshot → restore-from-disk → run == one uninterrupted run."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_resumed_run_identical(self, name, tmp_path):
        config = CONFIGS[name].replace(log_chunk_rows=SMALL_CHUNK)
        assert _checkpointed_resumed(config, tmp_path) == _uninterrupted(config)

    @pytest.mark.parametrize("name", SPILL_NAMES)
    def test_resumed_run_identical_with_spill(self, name, tmp_path):
        # Chunks smaller than the identity-suite default so sealed spill
        # files exist on BOTH sides of the snapshot time.
        config = CONFIGS[name].replace(log_chunk_rows=64, log_spill=True)
        system = _build(config)
        system.sim.run(until=CKPT_MS)
        assert system.delivery_log.spilled_chunks > 0, "spill never engaged"
        path, _, _ = save_run_checkpoint(system, config, tmp_path / "ck")
        del system
        restored, restored_config, _ = resume_run(path, config=config)
        restored.sim.run(until=restored_config.horizon_ms)
        fp = _fingerprint(restored, restored_config)
        assert fp == _uninterrupted(config)
        # ...and the spilled run equals the in-memory run too, closing
        # the loop with the spill-identity suite.
        assert fp == _uninterrupted(config.replace(log_spill=False))

    def test_double_checkpoint_chain(self, tmp_path):
        """Snapshot, resume, snapshot the *resumed* run, resume again:
        checkpoints compose."""
        config = CONFIGS["ssd-ebpc-churn"].replace(log_chunk_rows=SMALL_CHUNK)
        system = _build(config)
        system.sim.run(until=20_000.0)
        p1, _, _ = save_run_checkpoint(system, config, tmp_path / "ck")
        del system
        mid, config2, _ = resume_run(p1, config=config)
        mid.sim.run(until=55_000.0)  # crosses the flash crowd at 40 s
        p2, _, _ = save_run_checkpoint(mid, config2, tmp_path / "ck")
        del mid
        final, config3, _ = resume_run(p2, config=config)
        final.sim.run(until=config3.horizon_ms)
        assert _fingerprint(final, config3) == _uninterrupted(config)

    def test_dynamics_sampler_rides_in_extras(self, tmp_path):
        """The queue-depth sampler (outside the system graph) checkpoints
        via the extras channel and buckets identically after resume."""
        config = CONFIGS["ssd-ebpc-churn"].replace(log_chunk_rows=SMALL_CHUNK)
        window_ms = 15_000.0

        def series(system, sampler):
            ts = windowed_metrics(
                system, window_ms, horizon_ms=config.horizon_ms, queue_sampler=sampler
            )
            return ts.queue_depth_mean

        plain = _build(config)
        plain_sampler = QueueDepthSampler(
            plain, every_ms=window_ms / 4.0, horizon_ms=config.horizon_ms
        )
        plain.sim.run(until=config.horizon_ms)

        system = _build(config)
        sampler = QueueDepthSampler(
            system, every_ms=window_ms / 4.0, horizon_ms=config.horizon_ms
        )
        system.sim.run(until=CKPT_MS)
        path, _, _ = save_run_checkpoint(
            system, config, tmp_path / "ck", extras={"queue_sampler": sampler}
        )
        del system, sampler
        restored, restored_config, extras = resume_run(path, config=config)
        restored_sampler = extras["queue_sampler"]
        assert restored_sampler is not None
        restored.sim.run(until=restored_config.horizon_ms)
        np.testing.assert_array_equal(
            series(restored, restored_sampler), series(plain, plain_sampler)
        )


class TestRandomCheckpointTimes:
    """The snapshot time is a free variable: identity holds wherever the
    run is paused, boundary-aligned or not."""

    # One run per example is expensive; the reference is computed once.
    _config = CONFIGS["ssd-eb-ledger"].replace(
        log_chunk_rows=SMALL_CHUNK, duration_ms=40_000.0
    )
    _reference: dict | None = None

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(at_ms=st.floats(min_value=1_000.0, max_value=39_000.0))
    def test_identity_at_arbitrary_pause_times(self, at_ms, tmp_path):
        if TestRandomCheckpointTimes._reference is None:
            TestRandomCheckpointTimes._reference = _uninterrupted(self._config)
        fp = _checkpointed_resumed(self._config, tmp_path, at_ms=at_ms)
        assert fp == TestRandomCheckpointTimes._reference
