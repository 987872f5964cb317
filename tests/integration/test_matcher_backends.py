"""Whole-simulation differential tests for the matching layer alone.

The production system with the dict-based oracle matcher (or the brute
force one) in its tables and population count, and nothing else swapped
(``tests/integration/stacks.py``), must be decision-for-decision
identical to production: same aggregate figure data (byte for byte once
serialised) and the same per-delivery record stream.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, run_simulation, schedule_workload
from repro.workload.scenarios import Scenario
from tests.integration.stacks import (
    BruteMatcherSystem,
    OracleMatcherSystem,
    build_system_on,
    run_simulation_on,
)

#: Small but non-trivial: the paper topology, a congesting rate, both
#: queue pressure and pruning in play.
BASE = SimulationConfig(
    seed=3,
    scenario=Scenario.SSD,
    publishing_rate_per_min=12.0,
    duration_ms=90_000.0,
    grace_ms=30_000.0,
)


def result_bytes(result) -> bytes:
    return json.dumps(dataclasses.asdict(result), sort_keys=True).encode()


@pytest.mark.parametrize("strategy", ["eb", "fifo"])
def test_vector_and_oracle_figure_data_byte_identical(strategy):
    vector = run_simulation(BASE.replace(strategy=strategy))
    oracle = run_simulation_on(OracleMatcherSystem, BASE.replace(strategy=strategy))
    assert vector == oracle
    assert result_bytes(vector) == result_bytes(oracle)


def test_brute_backend_agrees_too():
    vector = run_simulation(BASE)
    brute = run_simulation_on(BruteMatcherSystem, BASE)
    assert result_bytes(vector) == result_bytes(brute)


def test_delivery_records_identical():
    """Every local delivery (subscriber, message, latency, validity) and its
    order must match between the matchers, not just the aggregates."""
    config = BASE.replace(strategy="ebpc")
    records: dict[str, list] = {}
    for name, system in (
        ("vector", build_system(config)),
        ("oracle", build_system_on(OracleMatcherSystem, config)),
    ):
        log: list[tuple] = []
        for broker in system.brokers.values():
            broker.delivery_callbacks.append(
                lambda sub, msg, latency, valid: log.append(
                    (sub, msg.msg_id, latency, valid)
                )
            )
        schedule_workload(system, config)
        system.run(until=config.horizon_ms)
        records[name] = log
    assert records["vector"] == records["oracle"]
    assert len(records["vector"]) > 0
