"""The columnar report reducers against the frozen per-endpoint forms
they replaced (``frozen_report.py``): equal on every dataclass field,
bit for bit, whatever the chunking, spilling, selection and validity —
and structurally unable to grow Python work with rows or endpoints.
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.latency import deadline_margins, latency_by_subscriber, latency_stats
from repro.analysis.revenue import revenue_by_tier
from repro.core.chunked import DEFAULT_CHUNK_ROWS
from repro.core.folds import fold_sum
from repro.core.strategies import FifoStrategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.pubsub.client import DeliveryLog, SubscriberHandle
from repro.pubsub.filters import Predicate
from repro.pubsub.subscription import Subscription
from repro.pubsub.system import PubSubSystem, SystemConfig
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, run_to_horizon, schedule_dynamics, schedule_workload
from repro.workload.dynamics import ChurnWave, ScenarioScript
from repro.workload.scenarios import Scenario
from tests.analysis.frozen_report import (
    frozen_deadline_margins,
    frozen_latency_by_subscriber,
    frozen_latency_stats,
    frozen_revenue_by_tier,
)
from tests.conftest import make_line_topology

chunkings = st.sampled_from([1, 7, DEFAULT_CHUNK_ROWS])
#: (endpoint index, latency, valid) — latencies repeat often enough that
#: ties land in the sorted sample and at the quantile positions.
row_lists = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.one_of(st.sampled_from([0.0, 250.0, 1e3]), st.floats(0.0, 1e5, allow_nan=False)),
        st.booleans(),
    ),
    max_size=40,
)


@st.composite
def logged_handles(draw):
    """Two logs (one with drawn chunking/spill, either possibly empty or
    all-late), their handles, and a selection over both: any subset, any
    order, repeats allowed."""
    handles: list[SubscriberHandle] = []
    for tag, chunk_rows, spill in (
        ("a", draw(chunkings), draw(st.booleans())), ("b", DEFAULT_CHUNK_ROWS, False),
    ):
        log = DeliveryLog(chunk_rows=chunk_rows, spill=spill)
        mine = [SubscriberHandle(f"{tag}{i}", log=log) for i in range(draw(st.integers(0, 6)))]
        all_late = draw(st.booleans())
        for msg_id, (endpoint, latency, valid) in enumerate(draw(row_lists)):
            if mine:
                mine[endpoint % len(mine)].record(
                    msg_id, float(msg_id), latency, valid and not all_late
                )
        handles += mine
    if not handles:
        return []
    return draw(st.lists(st.sampled_from(handles), max_size=2 * len(handles)))


@settings(max_examples=150, deadline=None)
@given(selected=logged_handles(), valid_only=st.booleans())
def test_latency_reducers_equal_the_frozen_forms(selected, valid_only):
    assert latency_stats(selected, valid_only) == frozen_latency_stats(selected, valid_only)
    assert latency_by_subscriber(selected, valid_only) == frozen_latency_by_subscriber(
        selected, valid_only
    )
    assert deadline_margins(selected, 1e3) == frozen_deadline_margins(selected, 1e3)


def test_a_handle_listed_twice_counts_once():
    h = SubscriberHandle("S1")
    h.record(0, 0.0, 100.0, True)
    h.record(1, 1.0, 300.0, True)
    assert latency_stats([h, h]) == latency_stats([h]) == frozen_latency_stats([h, h])
    assert latency_stats([h, h]).count == 2


# --------------------------------------------------------------------- #
# Revenue: a two-broker system whose endpoints buy drawn (price,
# deadline) tiers, rows recorded straight into its log.
# --------------------------------------------------------------------- #
tiers = st.tuples(
    st.sampled_from([None, 0.0, 1.0, 2.0, 3.5]), st.sampled_from([None, 10_000.0, 30_000.0])
)


def tiered_system(bought, chunk_rows=DEFAULT_CHUNK_ROWS, spill=False) -> PubSubSystem:
    names = [f"S{i}" for i in range(len(bought))]
    system = PubSubSystem(
        topology=make_line_topology(
            n=2, publishers={"P1": "B1"}, subscribers={name: "B2" for name in names}
        ),
        strategy=FifoStrategy(), sim=Simulator(), streams=RngStreams(0),
        config=SystemConfig(log_chunk_rows=chunk_rows, log_spill=spill),
    )
    system.subscribe_all([
        Subscription(name, Predicate("A1", "<", 1e9), deadline_ms=deadline, price=price)
        for name, (price, deadline) in zip(names, bought)
    ])
    return system


@settings(max_examples=60, deadline=None)
@given(
    bought=st.lists(tiers, max_size=6), rows=row_lists,
    chunk_rows=chunkings, spill=st.booleans(),
)
def test_revenue_by_tier_equals_the_frozen_form_without_churn(bought, rows, chunk_rows, spill):
    system = tiered_system(bought, chunk_rows, spill)
    live = list(system.subscribers.values())
    for msg_id, (endpoint, latency, valid) in enumerate(rows):
        if live:
            live[endpoint % len(live)].record(msg_id, float(msg_id), latency, valid)
    assert revenue_by_tier(system) == frozen_revenue_by_tier(system)


def test_departed_endpoints_stay_in_their_tier():
    system = tiered_system([(3.0, 10_000.0), (3.0, 10_000.0), (1.0, None)])
    for name in ("S0", "S1", "S2"):
        system.subscribers[name].record(0, 0.0, 5.0, True)
    system.unsubscribe("S1")
    system.subscribe(Subscription("S1", Predicate("A1", "<", 1e9), price=1.0))
    tiers = revenue_by_tier(system)
    assert [(t.price, t.deadline_ms, t.subscribers, t.valid_deliveries, t.revenue)
            for t in tiers] == [(3.0, 10_000.0, 2, 2, 6.0), (1.0, None, 2, 1, 1.0)]
    # The frozen form sees live handles only: S1's premium delivery is gone.
    assert sum(t.valid_deliveries for t in frozen_revenue_by_tier(system)) == 2


def test_tiers_fold_to_the_collector_under_churn():
    config = SimulationConfig(
        seed=1, scenario=Scenario.SSD, strategy="eb", duration_ms=60_000.0,
        publishing_rate_per_min=10.0,
        dynamics=ScenarioScript((
            ChurnWave(at_ms=15_000.0, leave=20, join=20),
            ChurnWave(at_ms=30_000.0, leave=20, join=20),
        )),
    )
    system = build_system(config)
    schedule_workload(system, config)
    schedule_dynamics(system, config)
    run_to_horizon(system, config, None)
    assert system.unsubscribe_count == 40 and system.metrics.deliveries_valid > 0
    tiers = revenue_by_tier(system)
    assert fold_sum(t.revenue for t in tiers) == system.metrics.earning
    assert sum(t.valid_deliveries for t in tiers) == system.metrics.deliveries_valid
    assert sum(t.subscribers for t in tiers) == system.delivery_log.endpoint_count
    live_only = frozen_revenue_by_tier(system)
    assert sum(t.valid_deliveries for t in live_only) < system.metrics.deliveries_valid


# --------------------------------------------------------------------- #
# Structural guard: the number of Python-level calls the pooled reducers
# make may depend on the chunk count, never on rows or endpoints.
# --------------------------------------------------------------------- #
def python_calls(fn, *args) -> int:
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def world(endpoints: int, rows_per_chunk: int, chunks: int = 3) -> PubSubSystem:
    system = tiered_system(
        [(float(1 + i % 3), 10_000.0 * (1 + i % 3)) for i in range(endpoints)],
        chunk_rows=rows_per_chunk,
    )
    ids = [h.log_id for h in system.subscribers.values()]
    for row in range(rows_per_chunk * chunks):
        system.delivery_log.append(ids[row % endpoints], row, float(row), 1.0 + row % 17, row % 5 > 0)
    return system


def test_python_call_count_is_independent_of_rows_and_endpoints():
    small, large = world(endpoints=8, rows_per_chunk=40), world(endpoints=80, rows_per_chunk=400)
    for system in (small, large):
        assert len(system.delivery_log) == 3 * system.delivery_log.chunk_rows

    def handles(system, step=1):
        return list(system.subscribers.values())[::step]

    for step in (1, 2):  # every endpoint of the log, then a subset
        assert python_calls(latency_stats, handles(small, step)) == python_calls(
            latency_stats, handles(large, step)
        )
    assert python_calls(revenue_by_tier, small) == python_calls(revenue_by_tier, large)
    # ... which the frozen per-endpoint forms cannot say.
    assert python_calls(frozen_latency_stats, handles(small)) < python_calls(
        frozen_latency_stats, handles(large)
    )
    assert python_calls(frozen_revenue_by_tier, small) < python_calls(
        frozen_revenue_by_tier, large
    )
