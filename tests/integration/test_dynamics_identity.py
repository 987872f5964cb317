"""Dynamics integration: decision identity and per-layer agreement.

Two guarantees:

* an **empty script is the frozen world** — scheduling through the
  piecewise path with no interventions is byte-identical (delivery
  records, metrics, event counts) to scheduling the homogeneous
  generator's output by hand, for every strategy;
* **each oracle layer still agrees under dynamics** — the dict and brute
  force matchers, the per-delivery collector and the full-rescan queues,
  each swapped into production alone (``tests/integration/stacks.py``),
  make identical decisions while churn waves, flash crowds and rate
  bursts are rewriting the world mid-run.  All of them at once is
  ``test_reference_identity.py``'s ``test_churn_script``.
"""
from __future__ import annotations

import hashlib

import pytest

from repro.sim.config import SimulationConfig
from repro.pubsub.system import PubSubSystem
from repro.sim.runner import build_system, schedule_dynamics, schedule_workload
from repro.workload.dynamics import ChurnWave, FlashCrowd, RateBurst, ScenarioScript
from repro.workload.generator import generate_publications
from repro.workload.scenarios import Scenario
from tests.integration.stacks import (
    OracleMatcherSystem,
    ScalarCollectorSystem,
    ScanQueueSystem,
    build_system_on,
)

STRATEGIES = ("fifo", "rl", "eb", "pc", "ebpc")

CHURNY = ScenarioScript((
    RateBurst(20_000.0, 60_000.0, 3.0),
    ChurnWave(at_ms=25_000.0, leave=8, join=8),
    FlashCrowd(at_ms=40_000.0, count=10),
))


def _log_digest(system) -> str:
    h = hashlib.sha256()
    for col in system.delivery_log.columns():
        h.update(col.tobytes())
    return h.hexdigest()


def _fingerprint(system) -> tuple:
    m = system.metrics
    return (
        m.published, m.receptions, m.transmissions, m.deliveries_valid,
        m.deliveries_late, m.pruned, m.earning, m.latency_sum_ms,
        system.sim.executed_events, _log_digest(system),
    )


def _run_config(config: SimulationConfig, system_type: type = PubSubSystem):
    system = build_system_on(system_type, config)
    schedule_workload(system, config)
    schedule_dynamics(system, config)
    system.sim.run(until=config.horizon_ms)
    return system


class TestEmptyScriptIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_legacy_homogeneous_scheduling(self, strategy):
        """The piecewise path with an empty script replays, byte for byte,
        what scheduling the homogeneous generator by hand produces."""
        config = SimulationConfig(
            seed=9, scenario=Scenario.SSD, strategy=strategy,
            publishing_rate_per_min=8.0, duration_ms=120_000.0,
        )
        assert not config.dynamics

        via_runner = _run_config(config)

        legacy = build_system(config)
        publications = generate_publications(
            legacy.streams.get("workload"),
            publishers=sorted(legacy.topology.publisher_brokers),
            rate_per_minute=config.publishing_rate_per_min,
            duration_ms=config.duration_ms,
            scenario=config.scenario,
            size_kb=config.message_size_kb,
            arrival=config.arrival,
            deadline_range_ms=config.psd_deadline_range_ms,
        )
        for pub in publications:
            legacy.sim.schedule_at(
                pub.time_ms,
                lambda p=pub: legacy.publish(
                    p.publisher, p.attributes, size_kb=p.size_kb, deadline_ms=p.deadline_ms
                ),
            )
        legacy.sim.run(until=config.horizon_ms)

        assert _fingerprint(via_runner) == _fingerprint(legacy)


class TestBackendsAgreeUnderDynamics:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matchers(self, strategy):
        # Waves reach the filter index as add_many / remove_many batches;
        # the oracle tests each live filter at match time.
        base = SimulationConfig(
            seed=9, scenario=Scenario.SSD, strategy=strategy,
            publishing_rate_per_min=8.0, duration_ms=90_000.0, dynamics=CHURNY,
        )
        vector = _run_config(base)
        assert _fingerprint(vector) == _fingerprint(_run_config(base, OracleMatcherSystem))
        vector.metrics.check_invariants()

    @pytest.mark.parametrize("scenario", [Scenario.PSD, Scenario.SSD])
    def test_collectors(self, scenario):
        base = SimulationConfig(
            seed=9, scenario=scenario, strategy="eb",
            publishing_rate_per_min=8.0, duration_ms=90_000.0, dynamics=CHURNY,
        )
        ledger = _run_config(base)
        scalar = _run_config(base, ScalarCollectorSystem)
        assert _fingerprint(ledger) == _fingerprint(scalar)
        assert ledger.metrics.per_subscriber_valid == scalar.metrics.per_subscriber_valid

    def test_queues(self):
        base = SimulationConfig(
            seed=9, scenario=Scenario.SSD, strategy="ebpc",
            publishing_rate_per_min=8.0, duration_ms=90_000.0, dynamics=CHURNY,
        )
        fast = _run_config(base)
        scan = _run_config(base, ScanQueueSystem)
        assert _fingerprint(fast) == _fingerprint(scan)
