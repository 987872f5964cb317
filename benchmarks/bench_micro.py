"""Micro-benchmarks for the hot paths.

These auto-calibrate (many rounds) and exist to keep the simulator fast
enough for paper-scale sweeps: matching, metric kernels, queue selection,
event throughput and routing setup.
"""

from __future__ import annotations

import math
import pickle
import time

import numpy as np
import pytest

from repro.analysis.latency import latency_stats
from repro.analysis.revenue import revenue_by_tier
from repro.core.metrics import SMALL_ROWS, ScorePlan, expected_benefit, expected_benefit_vec
from repro.core.pruning import DEFAULT_EPSILON, PruningPolicy
from repro.core.queueing import ScheduledQueue
from repro.core.registry import STRATEGY_NAMES, make_strategy
from repro.core.strategies import EbStrategy, QueueEntry
from repro.des.simulator import Simulator
from repro.experiments.scale import build_scale_system, scale_config
from repro.network.routing import compute_sink_tree
from repro.network.topology import LayeredMeshSpec, build_layered_mesh
from repro.pubsub.matching import BruteForceMatcher, CountingIndexMatcher
from repro.pubsub.message import Message
from repro.pubsub.subscription import RowArrays, SubscriptionTable
from repro.reference import ReferenceEntry, ReferenceQueue
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, run_to_horizon, schedule_workload
from repro.stats.normal import normal_cdf_vec
from repro.workload.dynamics import ChurnWave, DynamicsDriver
from repro.workload.scenarios import ScaleScenarioSpec, Scenario, build_scale_subscriptions
from repro.workload.subscriptions import random_attributes, random_conjunctive_filter
from tests.analysis.frozen_report import frozen_latency_stats, frozen_revenue_by_tier
from tests.core.helpers import assert_same_table, make_ctx, make_message, make_row

N_SUBSCRIPTIONS = 1000
DRAIN_QUEUE_DEPTH = 500


def _build_matchers():
    rng = np.random.default_rng(0)
    filters = [(f"s{i}", random_conjunctive_filter(rng)) for i in range(N_SUBSCRIPTIONS)]
    brute = BruteForceMatcher()
    index = CountingIndexMatcher()
    for key, f in filters:
        brute.add(key, f)
        index.add(key, f)
    messages = [random_attributes(rng) for _ in range(100)]
    return brute, index, messages


@pytest.fixture(scope="module")
def matchers():
    return _build_matchers()


def test_match_brute_force_1k_subs(benchmark, matchers):
    brute, _, messages = matchers
    benchmark(lambda: [brute.match(m) for m in messages])


def test_match_counting_index_1k_subs(benchmark, matchers):
    _, index, messages = matchers
    benchmark(lambda: [index.match(m) for m in messages])


@pytest.fixture(scope="module")
def index_filters():
    rng = np.random.default_rng(1)
    return [(f"s{i}", random_conjunctive_filter(rng)) for i in range(N_SUBSCRIPTIONS)]


def test_counting_index_build_incremental(benchmark, index_filters):
    def build():
        index = CountingIndexMatcher()
        for key, f in index_filters:
            index.add(key, f)
        return index

    benchmark(build)


def test_counting_index_build_bulk(benchmark, index_filters):
    def build():
        index = CountingIndexMatcher()
        index.add_many(index_filters)
        return index

    benchmark(build)


@pytest.fixture(scope="module")
def entry_rows():
    return [
        make_row(f"S{i}", deadline_ms=10_000.0 * (1 + i % 6), nn=1 + i % 4,
                 mean=50.0 + i, variance=400.0)
        for i in range(40)
    ]


def test_eb_scalar_40_rows(benchmark, entry_rows):
    msg = make_message()
    benchmark(lambda: expected_benefit(entry_rows, msg, 5_000.0, 2.0))


def test_eb_vectorised_40_rows(benchmark, entry_rows):
    msg = make_message()
    arrays = RowArrays.from_rows(entry_rows)
    benchmark(lambda: expected_benefit_vec(arrays, msg, 5_000.0, 2.0))


def test_normal_cdf_vec_kernel(benchmark):
    x = np.linspace(-3, 3, 1000)
    mean = np.full(1000, 0.5)
    std = np.full(1000, 1.5)
    benchmark(lambda: normal_cdf_vec(x, mean, std))


def test_strategy_select_50_entry_queue(benchmark, entry_rows):
    entries = [
        QueueEntry(make_message(msg_id=i, publish_time=-100.0 * i), entry_rows[:8], 0.0, i)
        for i in range(50)
    ]
    ctx = make_ctx(now=1_000.0)
    strategy = EbStrategy()
    benchmark(lambda: strategy.select(entries, ctx))


# ---------------------------------------------------------------------- #
# Queue drain: the broker's service loop over one deep output queue.
# The reference queue is the legacy O(n²) full rescan; ScheduledQueue picks
# the incremental structure for the strategy (exact keyed heap for
# fifo/rl, amortised bound heap for eb/pc/ebpc).  Same entries, same
# decisions — only the servicing structure differs.
# ---------------------------------------------------------------------- #
def _random_entries(seed: int, count: int, row_count, deadlines_ms: tuple[float, float]):
    """``count`` entries of random rows; ``row_count(i, rng)`` sizes entry ``i``."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(count):
        rows = [
            make_row(
                f"S{i}_{j}",
                deadline_ms=float(rng.uniform(*deadlines_ms)),
                nn=1 + int(rng.integers(0, 3)),
                mean=float(rng.uniform(20.0, 120.0)),
                variance=float(rng.uniform(100.0, 900.0)),
            )
            for j in range(row_count(i, rng))
        ]
        message = make_message(msg_id=i, publish_time=float(-rng.uniform(0.0, 5_000.0)))
        entries.append(QueueEntry(message, rows, enqueue_time=0.0, seq=i))
    return entries


@pytest.fixture(scope="module")
def drain_entries():
    return _random_entries(
        7, DRAIN_QUEUE_DEPTH,
        lambda _i, rng: 1 + int(rng.integers(0, 7)), (20_000.0, 120_000.0),
    )


def _drain_queue(
    entries, strategy_name: str, queue_type: type = ScheduledQueue,
    decisions: list | None = None,
) -> int:
    """Service one queue to empty; ``decisions`` (optional) receives every
    ``("prune" | "send", seq)`` in order."""
    strategy = make_strategy(strategy_name)
    queue = queue_type(
        strategy,
        PruningPolicy.for_strategy(strategy.probabilistic_pruning),
        DEFAULT_EPSILON,
        planning_delay_ms=2.0,
    )
    for entry in entries:
        queue.push(entry)
    now, sent = 0.0, 0
    while queue:
        now += 40.0  # one transmission slot per service
        pruned = queue.prune(now)
        if not queue:
            break
        chosen = queue.pop_best(make_ctx(now=now))
        sent += 1
        if decisions is not None:
            decisions.extend(("prune", entry.seq) for entry in pruned)
            decisions.append(("send", chosen.seq))
    return sent


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_queue_drain_500_incremental(benchmark, name, drain_entries):
    sent = benchmark.pedantic(
        lambda: _drain_queue(drain_entries, name), rounds=3, iterations=1
    )
    benchmark.extra_info["sent"] = sent
    assert 0 < sent <= DRAIN_QUEUE_DEPTH


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_queue_drain_500_scan(benchmark, name, drain_entries):
    sent = benchmark.pedantic(
        lambda: _drain_queue(drain_entries, name, ReferenceQueue), rounds=3, iterations=1
    )
    benchmark.extra_info["sent"] = sent
    assert 0 < sent <= DRAIN_QUEUE_DEPTH


def test_queue_drain_decisions_match(drain_entries):
    """Both servicing structures drain the same number of entries."""
    for name in STRATEGY_NAMES:
        assert _drain_queue(drain_entries, name) == _drain_queue(
            drain_entries, name, ReferenceQueue
        )


#: Rows per queue entry on perfbench's ``paper-congested`` (seed 1, ebpc
#: leg, 10 857 pushed entries): deciles of the measured distribution —
#: half the entries have <= 5 rows, 90 % <= 13 — so per-decision cost is
#: dispatch, not arithmetic.
CONGESTED_ENTRY_ROWS = (1, 2, 3, 4, 5, 5, 6, 8, 10, 13)


def _congested_entries(seed: int) -> list[QueueEntry]:
    """200 entries sized like ``paper-congested``'s, deadlines tight
    against an 8 s drain (the ε-prune fires)."""
    return _random_entries(
        seed, 200,
        lambda i, _rng: CONGESTED_ENTRY_ROWS[i % len(CONGESTED_ENTRY_ROWS)],
        (3_000.0, 15_000.0),
    )


def _copies(entries: list[QueueEntry], entry_type: type = QueueEntry) -> list[QueueEntry]:
    """Fresh entries (no cached plan) of ``entry_type`` with the same inputs."""
    return [
        entry_type(e.message, e.rows, e.enqueue_time, e.seq, arrays=e.arrays)
        for e in entries
    ]


def test_core_strategies_score_and_bound(benchmark):
    """``core.strategies.score_s``: EBPC decisions over a 200-entry queue of
    realistically small entries, equal to the reference stack's (full
    rescan, array-form plans)."""
    entries = _congested_entries(11)

    def drain() -> list:
        decisions: list = []
        _drain_queue(entries, "ebpc", decisions=decisions)
        return decisions

    decisions = benchmark.pedantic(drain, rounds=3, iterations=1)
    oracle: list = []
    _drain_queue(_copies(entries, ReferenceEntry), "ebpc", ReferenceQueue, oracle)
    assert decisions == oracle
    benchmark.extra_info["sent"] = sum(kind == "send" for kind, _ in decisions)
    assert 0 < benchmark.extra_info["sent"] < len(entries)  # pruning in play


def test_core_queueing_push(benchmark):
    """``core.queueing.push_s``: a score plan plus an ε-prune horizon per
    pushed entry, over realistically small entries (the plan's small
    form); every horizon and score equals the array form's."""
    templates = _congested_entries(13)

    def push_all(entries: list[QueueEntry]) -> ScheduledQueue:
        queue = ScheduledQueue(
            make_strategy("ebpc"), PruningPolicy.PROBABILISTIC, DEFAULT_EPSILON,
            planning_delay_ms=2.0,
        )
        for entry in entries:
            queue.push(entry)
        return queue

    queue = benchmark.pedantic(
        push_all, setup=lambda: ((_copies(templates),), {}), rounds=20
    )
    oracle = push_all(_copies(templates, ReferenceEntry))
    assert sorted(queue._prune_index._heap) == sorted(oracle._prune_index._heap)
    ctx = make_ctx(now=4_000.0, ft=900.0)
    strategy = make_strategy("ebpc")
    for entry, reference in zip(queue.entries(), oracle.entries()):
        assert entry.plan(2.0).small is not None
        assert reference.plan(2.0).small is None
        assert strategy.score_and_bound(entry, ctx) == strategy.score_and_bound(
            reference, ctx
        )


#: Row counts of the form sweep: both sides of 16 (BLAS ``ddot`` changes
#: kernel there) and of ``SMALL_ROWS``.
FORM_SWEEP_ROWS = (1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128)


def _us_per_call(fn, calls: int = 200) -> float:
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / calls * 1e6


def test_core_metrics_eb_pair_form_sweep(benchmark):
    """``ScorePlan.eb_pair`` per row count, small form against array form:
    records µs per call and the crossover (the first row count at which
    the array form is faster; ``SMALL_ROWS`` sits below it).  Both forms
    agree bit for bit at every size."""
    rng = np.random.default_rng(5)
    message = make_message(publish_time=0.0)
    plans = []
    for n in FORM_SWEEP_ROWS:
        arrays = RowArrays(
            nn=rng.integers(1, 4, n).astype(np.float64),
            mean=rng.uniform(20.0, 120.0, n),
            std=rng.uniform(10.0, 30.0, n),
            deadline=rng.uniform(20_000.0, 120_000.0, n),
            price=rng.uniform(0.0, 5.0, n),
        )
        small = ScorePlan(arrays, message, 2.0, small_rows=n)
        array_form = ScorePlan(arrays, message, 2.0, small_rows=0)
        assert small.small is not None and array_form.small is None
        for now in (0.0, 30_000.0, 90_000.0):
            assert small.eb_pair(now, 900.0) == array_form.eb_pair(now, 900.0)
        plans.append((n, small, array_form))

    def sweep() -> dict[int, tuple[float, float]]:
        return {
            n: (
                _us_per_call(lambda: small.eb_pair(30_000.0, 900.0)),
                _us_per_call(lambda: array_form.eb_pair(30_000.0, 900.0)),
            )
            for n, small, array_form in plans
        }

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["us_per_call_small_array"] = timings
    benchmark.extra_info["crossover_rows"] = next(
        (n for n, (small_us, array_us) in timings.items() if array_us < small_us), None
    )
    benchmark.extra_info["small_rows"] = SMALL_ROWS


def test_pubsub_subscription_route_plan(benchmark):
    """``pubsub.subscription.match_s``: ``match_grouped`` replayed over the
    (table, message) pairs of a short ``paper-congested``-shaped run —
    the message's filter verdicts cached at publish time, one route-plan
    gather per broker — and checked against the reference table's groups
    and order (per-table dict matcher, rows grouped one by one)."""
    config = SimulationConfig(
        seed=1, scenario=Scenario.SSD, publishing_rate_per_min=20.0,
        duration_ms=60_000.0, grace_ms=20_000.0, strategy="ebpc",
    )
    system = build_system(config)
    schedule_workload(system, config)
    pairs: list[tuple[str, Message]] = []
    for name, broker in system.brokers.items():
        broker.table.match_grouped = (
            lambda message, _name=name, _match=broker.table.match_grouped:
            pairs.append((_name, message)) or _match(message)
        )
    system.run(until=config.horizon_ms)
    for broker in system.brokers.values():
        del broker.table.match_grouped
    assert len(pairs) > system.metrics.published  # every hop matched
    reference = build_system(config, reference=True)
    calls = [(system.brokers[name].table, reference.brokers[name].table, m) for name, m in pairs]
    for table, ref_table, message in calls:
        local, remote = table.match_grouped(message)
        ref_local, ref_remote = ref_table.match_grouped(message)
        assert list(remote) == list(ref_remote)
        assert local.row_ids.tolist() == ref_local.row_ids.tolist()
        for hop, group in remote.items():
            assert group.row_ids.tolist() == ref_remote[hop].row_ids.tolist()

    def replay() -> None:
        for table, _, message in calls:
            table.match_grouped(message)

    benchmark(replay)
    t0 = time.perf_counter()
    replay()
    benchmark.extra_info["us_per_call"] = (time.perf_counter() - t0) / len(calls) * 1e6
    benchmark.extra_info["calls"] = len(calls)


def test_simulator_event_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count

    assert benchmark(run_10k_events) == 10_000


@pytest.mark.parametrize("engine", ["event"])
def test_event_dispatch_engines(benchmark, engine):
    """Bare dispatch loop: 10k chained ticks through ``Simulator.run``,
    the one kernel both stacks run."""

    def run_10k_events():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count

    assert benchmark(run_10k_events) == 10_000


def test_sink_tree_paper_topology(benchmark):
    topo = build_layered_mesh(np.random.default_rng(0))
    sinks = [b for b in topo.brokers if topo.subscribers_of(b)]
    benchmark(lambda: [compute_sink_tree(topo, s) for s in sinks])


# ---------------------------------------------------------------------- #
# The set-up and checkpoint layers of the scale tier, named after the
# perfbench layers they explain (``pubsub.subscription.install_many_s``,
# ``core.checkpoint.save_s`` / ``load_s``): the 16k-subscriber population
# of ``fanout-16k`` installed into the 32 tables of the paper mesh, and
# those tables through a pickle round trip.
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def scale_tables():
    """``(system, blocks)``: the built 16k world and, per broker, the one
    ``install_many`` block its table took."""
    spec = ScaleScenarioSpec(name="micro", subscribers=16_000)
    system = build_system(
        scale_config(spec, minutes=0.5), subscription_builder=lambda rng, topology: []
    )
    blocks = {}

    def recording(name, install_many):
        def install(block):
            assert name not in blocks, "one block per table per batch"
            blocks[name] = block
            install_many(block)
        return install

    for name, broker in system.brokers.items():
        broker.table.install_many = recording(name, broker.table.install_many)
    system.subscribe_all(
        build_scale_subscriptions(system.streams.get("subscriptions"), system.topology, spec)
    )
    for broker in system.brokers.values():
        del broker.table.install_many
    return system, blocks


def _probes(system):
    rng = np.random.default_rng(3)
    return [
        Message(msg_id=i, publisher=publisher, source_broker=source,
                attributes=random_attributes(rng), size_kb=5.0, publish_time=0.0)
        for i, (publisher, source) in enumerate(sorted(system.topology.publisher_brokers.items()))
    ]


def test_pubsub_subscription_install_many(benchmark, scale_tables):
    system, blocks = scale_tables

    def install():
        tables = {name: SubscriptionTable() for name in blocks}
        for name, block in blocks.items():
            tables[name].install_many(block)
        return tables

    tables = benchmark.pedantic(install, rounds=3, iterations=1)
    benchmark.extra_info["rows"] = sum(len(block) for block in blocks.values())
    probes = _probes(system)
    assert sum(
        assert_same_table(table, system.brokers[name].table, probes)
        for name, table in tables.items()
    ) > 0


def test_core_checkpoint_table_roundtrip(benchmark, scale_tables):
    system, _ = scale_tables
    tables = [broker.table for broker in system.brokers.values()]
    restored = benchmark.pedantic(
        lambda: pickle.loads(pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL)),
        rounds=3, iterations=1,
    )
    probes = _probes(system)
    assert sum(
        assert_same_table(table, reference, probes)
        for table, reference in zip(restored, tables)
    ) > 0


# ---------------------------------------------------------------------- #
# The report layers of ``fanout-16k`` (``analysis.latency.stats_s``,
# ``analysis.revenue.by_tier_s``): the same 16k world, run for 0.5
# simulated minutes (~190k delivery rows).  Its own fixture: the tables
# of ``scale_tables`` must stay un-run for the benches above.
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def scale_run():
    spec = ScaleScenarioSpec(name="micro", subscribers=16_000)
    config = scale_config(spec, minutes=0.5)
    system = build_scale_system(spec, config)
    schedule_workload(system, config)
    run_to_horizon(system, config, None)
    return system


def test_analysis_latency_stats(benchmark, scale_run):
    handles = list(scale_run.subscribers.values())
    stats = benchmark.pedantic(latency_stats, args=(handles,), rounds=3, iterations=1)
    benchmark.extra_info["rows"] = len(scale_run.delivery_log)
    assert stats.count > 0 and stats == frozen_latency_stats(handles)


def test_analysis_revenue_by_tier(benchmark, scale_run):
    def cold_tiers():
        scale_run.delivery_log._counts_len = -1  # the report pays the tally pass
        return revenue_by_tier(scale_run)

    tiers = benchmark.pedantic(cold_tiers, rounds=3, iterations=1)
    benchmark.extra_info["endpoints"] = scale_run.delivery_log.endpoint_count
    assert len(tiers) > 1 and tiers == frozen_revenue_by_tier(scale_run)


# ---------------------------------------------------------------------- #
# The mutation path of ``churn-faults-4k``: one ``ChurnWave(400, 400)`` on
# the 4k-subscriber world and the first ``match_grouped`` after it on
# every broker, i.e. what the perfbench layers ``pubsub.system.subscribe_s``
# / ``unsubscribe_s``, ``pubsub.subscription.install_many_s`` /
# ``uninstall_s``, ``pubsub.matching.add_many_s`` / ``remove_s`` and the
# recompile share of ``match_array_s`` add up to per wave.
# ---------------------------------------------------------------------- #
CHURN_CONFIG = SimulationConfig(
    seed=1, strategy="eb",
    topology_spec=LayeredMeshSpec(subscribers_per_edge_broker=250),
)


def _churn_world():
    system = build_system(CHURN_CONFIG)
    system.warm()
    return system, DynamicsDriver(system, CHURN_CONFIG.scenario)


def test_pubsub_subscription_churn_wave(benchmark):
    wave = ChurnWave(at_ms=0.0, leave=400, join=400)

    def apply_and_match(system, driver):
        driver.apply(wave)
        for broker in system.brokers.values():
            for probe in _probes(system):
                broker.table.match_grouped(probe)
        return system

    system = benchmark.pedantic(
        apply_and_match, setup=lambda: (_churn_world(), {}), rounds=3, iterations=1
    )
    # The same wave (same draws) as one-element batches, the per-call path.
    reference, driver = _churn_world()
    leave_batch, join_batch = reference.unsubscribe_all, reference.subscribe_all
    reference.unsubscribe_all = lambda names: [leave_batch([name]) for name in names]
    reference.subscribe_all = lambda joiners: [join_batch([joiner]) for joiner in joiners]
    driver.apply(wave)
    probes = _probes(system)
    assert sum(
        assert_same_table(broker.table, reference.brokers[name].table, probes)
        for name, broker in system.brokers.items()
    ) > 0
    benchmark.extra_info["rows"] = sum(len(broker.table) for broker in system.brokers.values())
