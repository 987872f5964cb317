"""ScheduledQueue differential tests: every decision vs the legacy oracle.

The legacy behaviour is ``Strategy.select`` (full rescore, max score,
FIFO tie-break) plus ``should_prune`` (full scan) — both still present as
the scan backend / the exact predicate.  These tests drive randomised
queue churn (pushes, time advances, prunes, selections) through a
:class:`ScheduledQueue` and assert the incremental backends make
*identical* decisions, entry for entry, for all five strategies.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import (
    DEFAULT_EPSILON,
    PruningPolicy,
    prune_horizon,
    should_prune,
)
from repro.core.queueing import ScheduledQueue
from repro.core.registry import STRATEGY_NAMES, make_strategy
from repro.core.strategies import QueueEntry, Strategy
from repro.reference import ReferenceQueue
from tests.core.helpers import make_ctx, make_message, make_row

ALL_STRATEGIES = [
    ("fifo", {}),
    ("rl", {}),
    ("rl", {"aggregation": "min"}),
    ("eb", {}),
    ("pc", {}),
    ("ebpc", {"r": 0.0}),
    ("ebpc", {"r": 0.5}),
    ("ebpc", {"r": 1.0}),
]

STRATEGY_IDS = [f"{n}{p or ''}" for n, p in ALL_STRATEGIES]


# ---------------------------------------------------------------------- #
# Entry generation.
# ---------------------------------------------------------------------- #
def entry_strategy():
    """Hypothesis strategy for one queue entry's ingredients."""
    row = st.builds(
        dict,
        deadline_ms=st.one_of(st.none(), st.floats(1_000.0, 90_000.0)),
        price=st.one_of(st.none(), st.floats(0.0, 5.0)),
        nn=st.integers(1, 4),
        mean=st.floats(5.0, 300.0),
        variance=st.floats(0.0, 2_000.0),
    )
    return st.builds(
        dict,
        publish_time=st.floats(-30_000.0, 0.0),
        size_kb=st.floats(1.0, 120.0),
        msg_deadline=st.one_of(st.none(), st.floats(5_000.0, 60_000.0)),
        rows=st.lists(row, min_size=1, max_size=4),
    )


def build_entry(spec: dict, seq: int) -> QueueEntry:
    message = make_message(
        msg_id=seq,
        publish_time=spec["publish_time"],
        size_kb=spec["size_kb"],
        deadline_ms=spec["msg_deadline"],
    )
    rows = [
        make_row(f"S{seq}_{j}", **row_spec) for j, row_spec in enumerate(spec["rows"])
    ]
    return QueueEntry(message, rows, enqueue_time=0.0, seq=seq)


class LegacyQueue:
    """The pre-refactor servicing logic: full rescans over a plain list."""

    def __init__(self, strategy: Strategy, pruning: PruningPolicy, pd: float) -> None:
        self.strategy = strategy
        self.pruning = pruning
        self.pd = pd
        self.entries: list[QueueEntry] = []

    def push(self, entry: QueueEntry) -> None:
        self.entries.append(entry)

    def prune(self, now: float) -> list[QueueEntry]:
        pruned = [
            e
            for e in self.entries
            if should_prune(e, now, self.pd, self.pruning, DEFAULT_EPSILON)
        ]
        dead = {e.seq for e in pruned}
        self.entries = [e for e in self.entries if e.seq not in dead]
        return pruned

    def pop_best(self, ctx) -> QueueEntry:
        return self.entries.pop(self.strategy.select(self.entries, ctx))


def run_churn(name, params, batches, advances, pruning=None):
    """Feed identical churn to a ScheduledQueue and the legacy oracle.

    Each step advances time, pushes one batch of entries, prunes, then
    services one entry if any remain; every decision is compared.
    """
    strategy = make_strategy(name, **params)
    oracle_strategy = make_strategy(name, **params)
    policy = (
        pruning
        if pruning is not None
        else PruningPolicy.for_strategy(strategy.probabilistic_pruning)
    )
    queue = ScheduledQueue(strategy, policy, DEFAULT_EPSILON, planning_delay_ms=2.0)
    legacy = LegacyQueue(oracle_strategy, policy, 2.0)
    now, seq = 0.0, 0
    for batch, advance in zip(batches, advances):
        now += advance
        for spec in batch:
            entry = build_entry(spec, seq)
            queue.push(entry)
            legacy.push(entry)
            seq += 1
        ctx = make_ctx(now=now)
        pruned_new = queue.prune(now)
        pruned_old = legacy.prune(now)
        assert [e.seq for e in pruned_new] == [e.seq for e in pruned_old], (
            f"prune divergence at t={now}"
        )
        assert [e.seq for e in queue.entries()] == [e.seq for e in legacy.entries]
        if legacy.entries:
            assert queue.pop_best(ctx) is legacy.pop_best(ctx), (
                f"selection divergence at t={now}"
            )
    # Drain whatever is left without further pushes.
    while legacy.entries or len(queue):
        now += 1_000.0
        ctx = make_ctx(now=now)
        assert [e.seq for e in queue.prune(now)] == [e.seq for e in legacy.prune(now)]
        if not legacy.entries:
            assert not len(queue)
            break
        assert queue.pop_best(ctx) is legacy.pop_best(ctx)


@pytest.mark.parametrize(("name", "params"), ALL_STRATEGIES, ids=STRATEGY_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_differential_churn(name, params, data):
    n_steps = data.draw(st.integers(1, 6), label="steps")
    batches = [
        data.draw(st.lists(entry_strategy(), min_size=0, max_size=5), label=f"batch{i}")
        for i in range(n_steps)
    ]
    advances = [
        data.draw(st.floats(0.0, 20_000.0), label=f"advance{i}") for i in range(n_steps)
    ]
    run_churn(name, params, batches, advances)


@pytest.mark.parametrize(
    "policy", [PruningPolicy.NONE, PruningPolicy.EXPIRED, PruningPolicy.PROBABILISTIC]
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_differential_churn_pruning_overrides(policy, data):
    batches = [data.draw(st.lists(entry_strategy(), min_size=1, max_size=4))]
    batches += [data.draw(st.lists(entry_strategy(), min_size=0, max_size=4))]
    advances = [data.draw(st.floats(0.0, 40_000.0)) for _ in range(2)]
    run_churn("eb", {}, batches, advances, pruning=policy)


# ---------------------------------------------------------------------- #
# Capability contracts.
# ---------------------------------------------------------------------- #
@settings(max_examples=50, deadline=None)
@given(spec_a=entry_strategy(), spec_b=entry_strategy(), now=st.floats(0.0, 60_000.0))
def test_static_key_orders_like_rl_score(spec_a, spec_b, now):
    strategy = make_strategy("rl")
    a, b = build_entry(spec_a, 0), build_entry(spec_b, 1)
    ctx = make_ctx(now=now)
    score_order = strategy.score(a, ctx) - strategy.score(b, ctx)
    key_order = strategy.static_key(a) - strategy.static_key(b)
    if math.isnan(score_order):  # both unbounded: -inf scores on each side
        assert math.isnan(key_order)
    elif score_order != 0.0:
        assert key_order == pytest.approx(score_order, abs=1e-6)


@pytest.mark.parametrize("name", ["eb", "pc", "ebpc"])
@settings(max_examples=40, deadline=None)
@given(
    spec=entry_strategy(),
    now=st.floats(0.0, 30_000.0),
    later=st.floats(0.0, 60_000.0),
    ft_later=st.floats(0.0, 10_000.0),
)
def test_score_bound_holds_for_future_contexts(name, spec, now, later, ft_later):
    """The bound from score_and_bound dominates every future score."""
    strategy = make_strategy(name)
    entry = build_entry(spec, 0)
    _, bound = strategy.score_and_bound(entry, make_ctx(now=now))
    future = make_ctx(now=now + later, ft=ft_later)
    assert strategy.score(entry, future) <= bound + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    spec=entry_strategy(),
    now=st.floats(0.0, 200_000.0),
    policy=st.sampled_from([PruningPolicy.EXPIRED, PruningPolicy.PROBABILISTIC]),
)
def test_prune_horizon_is_conservative(spec, now, policy):
    """An entry is never prunable before its analytic horizon."""
    entry = build_entry(spec, 0)
    horizon = prune_horizon(entry, 2.0, policy, DEFAULT_EPSILON)
    if should_prune(entry, now, 2.0, policy, DEFAULT_EPSILON):
        assert now >= horizon - 1e-6


def test_rl_keyed_heap_survives_exact_key_tie_with_ulp_score_gap():
    """Regression: static keys that tie exactly while legacy scores differ
    by an ulp must not flip the selection to the heap's seq tie-break.

    These values make ``publish_time + deadline`` identical as floats for
    both entries, yet the legacy score (computed as ``-(adl - hdl)``)
    differs in the last ulp — the oracle picks the higher score, a naive
    keyed heap would pick the lower seq.
    """
    spec = {"size_kb": 10.0, "msg_deadline": None}
    a = build_entry(
        {**spec, "publish_time": 60979.055688185814,
         "rows": [{"deadline_ms": 2780.596673231448, "price": 1.0, "nn": 1,
                   "mean": 50.0, "variance": 100.0}]},
        seq=0,
    )
    b = build_entry(
        {**spec, "publish_time": 35991.30179913361,
         "rows": [{"deadline_ms": 27768.350562283653, "price": 1.0, "nn": 1,
                   "mean": 50.0, "variance": 100.0}]},
        seq=1,
    )
    strategy = make_strategy("rl")
    assert strategy.static_key(a) == strategy.static_key(b)  # exact float tie
    queue = ScheduledQueue(strategy, PruningPolicy.NONE, DEFAULT_EPSILON, planning_delay_ms=2.0)
    queue.push(a)
    queue.push(b)
    ctx = make_ctx(now=139217.14245634925)
    entries = [a, b]
    oracle = entries[strategy.select(entries, ctx)]
    assert queue.pop_best(ctx) is oracle


# ---------------------------------------------------------------------- #
# Structure and API.
# ---------------------------------------------------------------------- #
class TestScheduledQueue:
    def make(self, name="eb", queue_type=ScheduledQueue):
        strategy = make_strategy(name)
        return queue_type(
            strategy,
            PruningPolicy.for_strategy(strategy.probabilistic_pruning),
            DEFAULT_EPSILON,
            planning_delay_ms=2.0,
        )

    def test_backend_selection_matches_score_kind(self):
        assert self.make("fifo").backend_name == "heap"
        assert self.make("rl").backend_name == "heap"
        assert self.make("eb").backend_name == "heap"
        assert self.make("pc").backend_name == "heap"
        assert self.make("ebpc").backend_name == "heap"
        assert self.make("eb", ReferenceQueue).backend_name == "scan"

    def test_unknown_dynamic_strategy_falls_back_to_scan(self):
        class Opaque(Strategy):
            name = "opaque"

            def score(self, entry, ctx):
                return entry.message.size_kb * math.sin(ctx.now)

        queue = ScheduledQueue(Opaque(), PruningPolicy.EXPIRED)
        assert queue.backend_name == "scan"

    def test_rejects_duplicate_seq(self):
        queue = self.make()
        entry = build_entry(
            {"publish_time": 0.0, "size_kb": 10.0, "msg_deadline": None,
             "rows": [{"deadline_ms": 30_000.0, "price": 1.0, "nn": 1,
                       "mean": 50.0, "variance": 100.0}]},
            seq=7,
        )
        queue.push(entry)
        with pytest.raises(ValueError):
            queue.push(entry)

    def test_pop_from_empty_raises(self):
        for queue_type in (ScheduledQueue, ReferenceQueue):
            with pytest.raises(IndexError):
                self.make(queue_type=queue_type).pop_best(make_ctx())

    def test_heap_compaction_bounds_stale_records(self):
        """Mass pruning must not leave dead heap records for the queue's life."""
        queue = self.make("eb")
        for seq in range(400):
            queue.push(
                build_entry(
                    {"publish_time": -40_000.0, "size_kb": 20.0,
                     "msg_deadline": None,
                     "rows": [{"deadline_ms": 30_000.0, "price": 1.0, "nn": 1,
                               "mean": 50.0, "variance": 400.0}]},
                    seq=seq,
                )
            )
        # Every entry is decades past hopeless at t = 1e6.
        pruned = queue.prune(1_000_000.0)
        assert len(pruned) == 400
        assert len(queue) == 0
        assert len(queue._backend._heap) <= 16  # compacted, not 400 stale records

    def test_entries_snapshot_in_seq_order(self):
        queue = self.make("fifo")
        for seq in (1, 5, 9):
            queue.push(
                build_entry(
                    {"publish_time": 0.0, "size_kb": 10.0, "msg_deadline": None,
                     "rows": [{"deadline_ms": None, "price": None, "nn": 1,
                               "mean": 10.0, "variance": 0.0}]},
                    seq=seq,
                )
            )
        assert [e.seq for e in queue.entries()] == [1, 5, 9]
        assert len(queue) == 3


# ---------------------------------------------------------------------- #
# End-to-end: full simulations, only the queues swapped, identical results.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_simulation_backends_equivalent(name):
    """A production system whose output queues are all full rescans makes
    the same decisions, run for run, as the incremental heaps."""
    from repro.sim.config import SimulationConfig
    from repro.sim.results import SimulationResult
    from repro.sim.runner import build_system, schedule_workload
    from repro.workload.scenarios import Scenario

    params = {"r": 0.5} if name == "ebpc" else {}
    config = SimulationConfig(
        seed=3,
        scenario=Scenario.SSD,
        strategy=name,
        strategy_params=params,
        publishing_rate_per_min=15.0,  # congested: queues actually deepen
        duration_ms=30_000.0,
    )
    results = []
    for scan in (False, True):
        system = build_system(config)
        if scan:
            for queue in (q for b in system.brokers.values() for q in b.queues.values()):
                old = queue.sched
                queue.sched = ReferenceQueue(
                    old.strategy, old.pruning, old.epsilon, old.planning_delay_ms
                )
        schedule_workload(system, config)
        system.run(until=config.horizon_ms)
        results.append(SimulationResult.from_metrics(
            system.metrics, strategy=name, scenario="ssd", seed=config.seed,
            publishing_rate_per_min=config.publishing_rate_per_min,
            residual_queued=system.total_queued(),
            executed_events=system.sim.executed_events,
        ))
    assert results[0] == results[1]
    assert results[0].pruned > 0 or name in ("fifo", "rl")
