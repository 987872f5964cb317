"""The delivery log's first-arrival mark against the settlement it replaced.

The system marks each local delivery row as the first arrival of its
(message, endpoint) pair when it appends the row; the ledger and the
windowed series count the marked rows.  These properties check the mark,
row for row, against ``SettledKeys`` (frozen in
``tests/core/frozen_settlement.py``) replayed over the finished log:

* multi-path routing on the diamond and on the layered mesh, where most
  pairs repeat;
* single-path routing across a route change — a link degrade re-routes
  the rows a later churn wave installs, so one source's copy reaches an
  edge broker twice — which no other test drives;
* a checkpoint taken between the two arrivals of a repeated pair and
  resumed: the record of earlier arrivals travels with the in-flight
  message, so the marks equal the uninterrupted run's.

A first delivery at a broker marks every row with one broadcast
``True``; that relies on a local group never listing an endpoint twice,
which the last test checks on every batch of both stacks, along with the
int32 width of the endpoint ids each message keeps.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    build_system,
    resume_run,
    save_run_checkpoint,
    schedule_dynamics,
    schedule_workload,
)
from repro.workload.dynamics import ChurnWave, LinkDegrade, ScenarioScript
from repro.workload.scenarios import Scenario
from tests.core.frozen_settlement import logged_first_marks, oracle_first_marks
from tests.pubsub.test_multipath import diamond_system

#: Single-path SSD/eb on seed 5's mesh: the B11–B7 degrade re-routes the
#: sink trees the 200 joiners are installed along (862 repeated rows).
REROUTED = SimulationConfig(
    scenario=Scenario.SSD, strategy="eb", seed=5, duration_ms=240_000.0,
    log_chunk_rows=512,
    dynamics=ScenarioScript((
        LinkDegrade(30_000.0, "B11", "B7", 20.0),
        ChurnWave(at_ms=40_000.0, join=200),
    )),
)

MULTIPATH = SimulationConfig(
    scenario=Scenario.SSD, strategy="eb", seed=5, duration_ms=120_000.0,
    routing_paths=3, log_chunk_rows=512,
)


def _run(config: SimulationConfig, until: float | None = None):
    system = build_system(config)
    schedule_workload(system, config)
    schedule_dynamics(system, config)
    system.sim.run(until=config.horizon_ms if until is None else until)
    return system


def _assert_marks_settle_the_log(system) -> np.ndarray:
    marks = logged_first_marks(system.delivery_log)
    np.testing.assert_array_equal(marks, oracle_first_marks(system.delivery_log))
    m = system.metrics
    assert m.deliveries_valid + m.deliveries_late == int(np.count_nonzero(marks))
    assert m.duplicate_deliveries == int(np.count_nonzero(~marks))
    return marks


@pytest.mark.parametrize("routing_paths", [2, 3])
def test_diamond_marks_equal_the_oracle(routing_paths):
    system = diamond_system(routing_paths)
    for i in range(20):
        system.sim.schedule_at(500.0 * i, partial(system.publish, "P1", {"A1": 1.0}))
    system.sim.run()
    marks = _assert_marks_settle_the_log(system)
    assert marks.shape[0] == 40 and np.count_nonzero(marks) == 20


def test_mesh_multipath_marks_equal_the_oracle():
    marks = _assert_marks_settle_the_log(_run(MULTIPATH))
    assert np.count_nonzero(~marks) > marks.shape[0] // 4


def test_single_path_reroute_repeats_pairs_and_marks_equal_the_oracle():
    system = _run(REROUTED)
    assert system.config.routing_paths == 1
    marks = _assert_marks_settle_the_log(system)
    assert np.count_nonzero(~marks) == 862
    assert len(system.delivery_log) > 16 * REROUTED.log_chunk_rows


def test_checkpoint_between_two_arrivals_keeps_the_marks(tmp_path):
    whole = _run(REROUTED)
    marks = logged_first_marks(whole.delivery_log)
    sub, msg, time, _, _ = whole.delivery_log.columns()
    repeat = int(np.flatnonzero(~marks)[0])
    pair = np.flatnonzero((sub == sub[repeat]) & (msg == msg[repeat]))
    first_at, again_at = time[pair[0]], time[repeat]
    assert first_at < again_at

    at = (first_at + again_at) / 2.0
    system = _run(REROUTED, until=at)
    assert pair[0] < len(system.delivery_log) <= repeat  # one arrival logged, one to come
    path, _, _ = save_run_checkpoint(system, REROUTED, tmp_path / "ck")
    del system
    restored, config, _ = resume_run(path, config=REROUTED)
    restored.sim.run(until=config.horizon_ms)
    np.testing.assert_array_equal(logged_first_marks(restored.delivery_log), marks)
    _assert_marks_settle_the_log(restored)


@pytest.mark.parametrize("reference", [False, True])
def test_local_groups_list_each_endpoint_once(reference):
    batches = []

    def check(broker, group, message, _latency, _valid):
        ids = group.sub_ids
        batches.append(ids.shape[0])
        assert np.unique(ids).shape[0] == ids.shape[0]
        # The record of earlier arrivals the message carries keeps the
        # log's id width.
        assert [a.dtype for a in message._arrivals[broker.name]] == (
            [np.dtype(np.int32)] * len(message._arrivals[broker.name])
        )

    for config in (REROUTED, MULTIPATH.replace(duration_ms=60_000.0)):
        system = build_system(config, reference=reference)
        for broker in system.brokers.values():
            broker.delivery_batch_callbacks.append(check)
        schedule_workload(system, config)
        schedule_dynamics(system, config)
        system.sim.run(until=config.horizon_ms)
    assert len(batches) > 100 and max(batches) > 1
