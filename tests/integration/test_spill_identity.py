"""Scale tier differential: spill is a residency knob, never a result knob.

Three identities, per the acceptance bar of the chunked-log PR:

* **spill on == spill off** at the same (small, multi-chunk) chunk size
  — full fingerprint equality: figure-level metrics, the raw delivery
  log bytes, per-endpoint record streams, windowed time series — for
  all five strategies, both collectors, a churn dynamics script and
  multi-path duplicate settlement;
* **spill off at default chunking == pre-PR HEAD** — the committed
  goldens in ``tests/data/golden_pre_scale_tier.json`` were captured on
  the commit *before* the chunked store existed;
* **small chunks == one big chunk** for everything integer-valued
  (counts, earnings, record streams); float window sums are compared to
  1 ulp-scale tolerance across *different* chunkings (regrouping a
  left-to-right float fold across chunk boundaries may round
  differently), and exactly within the same chunking.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.timeseries import windowed_metrics
from repro.pubsub.system import PubSubSystem
from repro.sim.config import SimulationConfig
from repro.sim.runner import schedule_dynamics, schedule_workload
from repro.workload.dynamics import ChurnWave, FlashCrowd, RateBurst, ScenarioScript
from repro.workload.scenarios import Scenario
from tests.integration.stacks import ScalarCollectorSystem, build_system_on

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_pre_scale_tier.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text())

#: Forces many sealed chunks in 90-second runs (a few thousand rows).
SMALL_CHUNK = 256

CHURNY = ScenarioScript((
    RateBurst(20_000.0, 60_000.0, 3.0),
    ChurnWave(at_ms=25_000.0, leave=8, join=8),
    FlashCrowd(at_ms=40_000.0, count=10),
))

BASE = dict(seed=11, publishing_rate_per_min=6.0, duration_ms=90_000.0)

#: name -> config, mirroring exactly what the goldens were captured from.
CONFIGS: dict[str, SimulationConfig] = {
    **{
        f"ssd-{s}-ledger": SimulationConfig(scenario=Scenario.SSD, strategy=s, **BASE)
        for s in ("fifo", "rl", "eb", "pc", "ebpc")
    },
    "ssd-eb-scalar": SimulationConfig(scenario=Scenario.SSD, strategy="eb", **BASE),
    "psd-eb-ledger": SimulationConfig(scenario=Scenario.PSD, strategy="eb", **BASE),
    "ssd-ebpc-churn": SimulationConfig(
        scenario=Scenario.SSD, strategy="ebpc", dynamics=CHURNY, **BASE
    ),
    "ssd-eb-multipath": SimulationConfig(
        scenario=Scenario.SSD, strategy="eb", routing_paths=2,
        seed=11, publishing_rate_per_min=6.0, duration_ms=60_000.0,
    ),
}

#: Configs run on a stack other than production: name -> system class.
STACKS: dict[str, type] = {"ssd-eb-scalar": ScalarCollectorSystem}


def _run(config: SimulationConfig, system_type: type = PubSubSystem):
    system = build_system_on(system_type, config)
    schedule_workload(system, config)
    schedule_dynamics(system, config)
    system.sim.run(until=config.horizon_ms)
    return system


def _fingerprint(config: SimulationConfig, system_type: type = PubSubSystem) -> dict:
    system = _run(config, system_type)
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
        "delivery_log_sha256": log_h.hexdigest(),
        "endpoint_records_sha256": rec_h.hexdigest(),
        "windowed_series_sha256": ts_h.hexdigest(),
        "_ts": ts,
        "_spilled": system.delivery_log.spilled_chunks,
    }


def _public(fp: dict) -> dict:
    return {k: v for k, v in fp.items() if not k.startswith("_")}


class TestSpillOnOffIdentity:
    """log_spill toggled, chunking held fixed: byte-identical everything."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_fingerprints_identical(self, name):
        config = CONFIGS[name].replace(log_chunk_rows=SMALL_CHUNK)
        stack = STACKS.get(name, PubSubSystem)
        hot = _fingerprint(config, stack)
        cold = _fingerprint(config.replace(log_spill=True), stack)
        assert cold["_spilled"] > 0, "spill never engaged — test is vacuous"
        assert hot["_spilled"] == 0
        assert _public(hot) == _public(cold)

    def test_multipath_actually_duplicates(self):
        system = _run(CONFIGS["ssd-eb-multipath"].replace(
            log_chunk_rows=SMALL_CHUNK, log_spill=True))
        assert system.metrics.duplicate_deliveries > 0


class TestPrePrHeadIdentity:
    """Default chunking, spill off: byte-identical to the pre-PR commit."""

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_matches_golden(self, name):
        fp = _public(_fingerprint(CONFIGS[name], STACKS.get(name, PubSubSystem)))
        assert fp == GOLDENS[name]


class TestChunkingInvariance:
    """Small chunks vs one big chunk: integer-valued results exact, float
    window sums within regrouping tolerance."""

    @pytest.mark.parametrize("name", ["ssd-eb-ledger", "ssd-ebpc-churn", "ssd-eb-multipath"])
    def test_chunk_size_does_not_change_results(self, name):
        big = _fingerprint(CONFIGS[name])
        small = _fingerprint(CONFIGS[name].replace(log_chunk_rows=SMALL_CHUNK))
        for key in ("published", "receptions", "transmissions", "deliveries_valid",
                    "deliveries_late", "pruned", "earning", "latency_sum_ms",
                    "delivery_rate", "executed_events", "delivery_log_sha256",
                    "endpoint_records_sha256"):
            assert big[key] == small[key], key
        ts_b, ts_s = big["_ts"], small["_ts"]
        for attr in ("published", "interested", "deliveries_valid", "deliveries_late", "earning"):
            np.testing.assert_array_equal(getattr(ts_b, attr), getattr(ts_s, attr))
        np.testing.assert_allclose(
            ts_b.latency_sum_ms, ts_s.latency_sum_ms, rtol=1e-12, atol=0.0
        )
