"""Micro-benchmarks for the hot paths.

These auto-calibrate (many rounds) and exist to keep the simulator fast
enough for paper-scale sweeps: matching, metric kernels, queue selection,
event throughput and routing setup.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import time
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.analysis.latency import latency_stats
from repro.analysis.revenue import revenue_by_tier
from repro.analysis.timeseries import windowed_metrics
from repro.core.metrics import SMALL_ROWS, ScorePlan, expected_benefit
from repro.core.pruning import DEFAULT_EPSILON, PruningPolicy, prune_horizon
from repro.core.queueing import ScheduledQueue
from repro.core.registry import STRATEGY_NAMES, make_strategy
from repro.core.strategies import EbStrategy, QueueEntry
from repro.des.simulator import Simulator
from repro.experiments.scale import build_scale_system, scale_config
from repro.network.routing import compute_sink_tree
from repro.network.topology import LayeredMeshSpec, build_layered_mesh
from repro.pubsub.client import DeliveryLog
from repro.pubsub.matching import FilterIndex
from repro.pubsub.message import Message
from repro.pubsub.metrics import LedgerMetricsCollector, MetricsCollector
from repro.pubsub.subscription import RowArrays, SubscriptionTable
from repro.reference import ReferenceEntry, ReferenceQueue
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    build_system,
    resume_run,
    run_to_horizon,
    save_run_checkpoint,
    schedule_workload,
)
from repro.stats.normal import normal_cdf_vec
from repro.workload.dynamics import ChurnWave, DynamicsDriver
from repro.workload.scenarios import ScaleScenarioSpec, Scenario, build_scale_subscriptions
from repro.workload.subscriptions import random_attributes, random_conjunctive_filter
from tests.analysis.frozen_report import frozen_latency_stats, frozen_revenue_by_tier
from tests.analysis.memory import (
    latency_stats_peak,
    latency_stats_peak_bound,
    windowed_metrics_peak,
    windowed_metrics_peak_bound,
)
from tests.core.helpers import (
    assert_same_table,
    block_of,
    make_ctx,
    make_message,
    make_row,
)

N_SUBSCRIPTIONS = 1000
DRAIN_QUEUE_DEPTH = 500


def _build_matchers():
    rng = np.random.default_rng(0)
    filters = [random_conjunctive_filter(rng) for _ in range(N_SUBSCRIPTIONS)]
    index = FilterIndex()
    index.add(filters)
    index.warm()
    messages = [random_attributes(rng) for _ in range(100)]
    # The predicate scan is the reference stack's matcher: both agree.
    for attributes in messages:
        hits = [f.matches(attributes) for f in filters]
        assert index.interested(_probe(attributes)) == sum(hits)
    return filters, index, messages


def _probe(attributes) -> Message:
    """A fresh message, so no cached verdict is reused."""
    return Message(0, "P1", "B1", attributes, 5.0, 0.0)


@pytest.fixture(scope="module")
def matchers():
    return _build_matchers()


def test_match_brute_force_1k_subs(benchmark, matchers):
    """Every filter's own predicate, as the reference stack matches."""
    filters, _, messages = matchers
    benchmark(lambda: [[f.matches(m) for f in filters] for m in messages])


def test_match_counting_index_1k_subs(benchmark, matchers):
    """The filter index's verdicts, once per publication, as production matches."""
    _, index, messages = matchers
    benchmark(lambda: [index.verdicts(_probe(m)) for m in messages])


@pytest.fixture(scope="module")
def index_filters():
    rng = np.random.default_rng(1)
    return [random_conjunctive_filter(rng) for _ in range(N_SUBSCRIPTIONS)]


def test_counting_index_build_incremental(benchmark, index_filters):
    def build():
        index = FilterIndex()
        for f in index_filters:
            index.add([f])
        index.warm()
        return index

    benchmark(build)


def test_counting_index_build_bulk(benchmark, index_filters):
    def build():
        index = FilterIndex()
        index.add(index_filters)
        index.warm()
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
    benchmark(lambda: ScorePlan(arrays, msg, 2.0).expected_benefit(5_000.0))


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
    """``core.queueing.push_s``: one prune-index record per pushed entry,
    keyed on its first row's horizon term — no score plan, no full
    horizon — over realistically small entries.  Every key equals the
    array form's, and so does every later horizon and score (the plan's
    small form)."""
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
    records = sorted(queue._prune_index._heap)
    assert records == sorted(oracle._prune_index._heap)
    assert not any(refined for _, _, refined in records)  # floors, refined on arrival
    ctx = make_ctx(now=4_000.0, ft=900.0)
    strategy = make_strategy("ebpc")
    for entry, reference in zip(queue.entries(), oracle.entries()):
        assert entry._plan is None
        assert prune_horizon(
            entry, 2.0, PruningPolicy.PROBABILISTIC, DEFAULT_EPSILON
        ) == prune_horizon(reference, 2.0, PruningPolicy.PROBABILISTIC, DEFAULT_EPSILON)
        assert entry.plan(2.0).small is not None
        assert reference.plan(2.0).small is None
        assert strategy.score_and_bound(entry, ctx) == strategy.score_and_bound(
            reference, ctx
        )


def test_core_queueing_push_lone_large(benchmark):
    """``core.queueing.push_s`` on ``fanout-16k``'s shape: one 2k-row entry
    pushed into an idle queue and sent alone.  Nothing reads its columns:
    no gather, no score plan, no full prune horizon."""
    table = SubscriptionTable()
    rows = [
        make_row(f"S{i:04d}", deadline_ms=20_000.0 + i, nn=1 + i % 3)
        for i in range(2_000)
    ]
    table.install_many(block_of(table, rows))
    message = make_message(publish_time=0.0, size_kb=5.0)
    ctx = make_ctx(now=100.0)

    def push_pop(group):
        queue = ScheduledQueue(
            make_strategy("eb"), PruningPolicy.PROBABILISTIC, DEFAULT_EPSILON,
            planning_delay_ms=2.0,
        )
        entry = QueueEntry(message, group, enqueue_time=0.0, seq=0)
        queue.push(entry)
        assert queue.prune(ctx.now) == []
        assert queue.pop_best(ctx) is entry
        return entry

    entry = benchmark.pedantic(
        push_pop, setup=lambda: ((table.match_grouped(message)[1]["B2"],), {}), rounds=20
    )
    assert len(entry) == 2_000
    assert entry._arrays is None and entry._rows._arrays is None
    assert entry._plan is None


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


def test_core_metrics_class_plan(benchmark):
    """``ScorePlan``'s class form: a 219-row EB entry whose rows share 8
    operand classes (4 paths x 2 deadline/price tiers), scored at 50 clock
    values with one ``erf`` per class.  The plan is built from the table
    group's classes, without the five-column gather, and every score is
    bit-equal to the array form's (the reference entry's plan)."""
    table = SubscriptionTable()
    rows = [
        make_row(
            f"S{i:03d}", deadline_ms=(30_000.0, 60_000.0)[i % 2], price=(2.0, 1.0)[i % 2],
            nn=1 + i // 2 % 4, mean=40.0 + 15.0 * (i // 2 % 4), variance=90.0 + i // 2 % 4,
        )
        for i in range(219)
    ]
    table.install_many(block_of(table, rows))
    message = make_message(publish_time=0.0)
    group = table.match_grouped(message)[1]["B2"]
    entry = QueueEntry(message, group, enqueue_time=0.0, seq=0)
    plan = entry.plan(2.0)
    assert len(entry) == 219 and plan.inv is not None and len(plan.small) == 8
    assert group._arrays is None
    array_form = ReferenceEntry(message, group, enqueue_time=0.0, seq=0).plan(2.0)
    assert array_form.small is None
    clocks = np.linspace(0.0, 60_000.0, 50).tolist()

    def score() -> list[float]:
        return [plan.expected_benefit(now) for now in clocks]

    got = benchmark(score)
    assert [eb.hex() for eb in got] == [array_form.expected_benefit(now).hex() for now in clocks]
    benchmark.extra_info["rows"] = len(entry)
    benchmark.extra_info["classes"] = len(plan.small)
    benchmark.extra_info["us_per_eb_class_array"] = (
        _us_per_call(lambda: plan.expected_benefit(30_000.0)),
        _us_per_call(lambda: array_form.expected_benefit(30_000.0)),
    )


def test_pubsub_subscription_route_plan(benchmark):
    """``pubsub.subscription.match_s``: ``match_grouped`` replayed over the
    (table, message) pairs of a short ``paper-congested``-shaped run —
    the message's filter verdicts cached at publish time, one route-plan
    gather per broker — and checked against the reference table's groups
    and order (filter predicates tested per row, rows grouped one by one)."""
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


#: The reduction bench's log: 64 near-broadcast messages to 16k endpoints,
#: 1M rows in 16 sealed chunks of the default size.
REDUCE_ENDPOINTS = 16_384
REDUCE_MESSAGES = 64


def test_pubsub_metrics_reduce(benchmark):
    """``LedgerMetricsCollector``: one full reduction of a 1M-row, 16-chunk
    delivery log (first-arrival settlement, counts, tallies, the two left
    folds), checked against the scalar collector fed the same rows one by
    one; records ns per row.  Every 8th message also arrives a second time
    over another path, later in the log, so duplicates cross chunks."""
    rng = np.random.default_rng(11)
    log = DeliveryLog()
    prices = rng.choice([1.0, 2.0, 5.0], REDUCE_ENDPOINTS)
    names = [f"S{i}" for i in range(REDUCE_ENDPOINTS)]
    endpoints = np.array([log.register(n, p) for n, p in zip(names, prices.tolist())])
    scalar = MetricsCollector()
    half = REDUCE_ENDPOINTS // 2
    batches = []
    for msg_id in range(REDUCE_MESSAGES):
        scalar.on_publish(msg_id, REDUCE_ENDPOINTS)
        # Two edge brokers' local groups, each in table (= endpoint) order.
        order = rng.permutation(endpoints)
        batches += [(msg_id, np.sort(order[:half])), (msg_id, np.sort(order[half:]))]
    for i in range(0, len(batches), 16):
        batches[i + 1], batches[i + 9] = batches[i + 9], batches[i + 1]  # a late half
        batches[i + 9] = (batches[i + 9][0], batches[i][1])  # ... re-sent copies
    for i, (msg_id, ids) in enumerate(batches):
        latency = float(rng.uniform(100.0, 3_000.0))
        valid = rng.random(ids.shape[0]) < 0.9
        log.append_batch(ids, msg_id, float(i), latency, valid)
        scalar.on_delivery_batch(msg_id, [names[e] for e in ids.tolist()], latency, prices[ids], valid)
    assert len(log) == 16 * log.chunk_rows

    def reduce() -> LedgerMetricsCollector:
        ledger = LedgerMetricsCollector.for_log(log)
        ledger.deliveries_valid  # the first read reduces the whole log
        return ledger

    ledger = benchmark(reduce)
    assert ledger.rows_reduced == len(log) and ledger.duplicate_deliveries > 0
    for msg_id in range(REDUCE_MESSAGES):
        ledger.on_publish(msg_id, REDUCE_ENDPOINTS)
    ledger.check_invariants()
    for attr in ("deliveries_valid", "deliveries_late", "duplicate_deliveries"):
        assert getattr(ledger, attr) == getattr(scalar, attr), attr
    assert ledger.earning.hex() == scalar.earning.hex()
    assert ledger.latency_sum_ms.hex() == scalar.latency_sum_ms.hex()
    assert ledger.delivered == dict(scalar.delivered)
    best = min(_seconds(reduce) for _ in range(3))
    benchmark.extra_info["ns_per_row"] = best / len(log) * 1e9
    benchmark.extra_info["rows"] = len(log)


#: The chunk-read bench's log: 64 messages broadcast to 16k endpoints,
#: 1M rows in 16 sealed chunks of the default size.
READ_ENDPOINTS = 16_384
READ_MESSAGES = 64


def test_core_chunked_iter_chunks(benchmark, monkeypatch):
    """``core.chunked.iter_chunks_s``: one full pass, every column, over a
    16-chunk spilled delivery log, byte-equal to the same log in memory.
    ``zipfile_opens`` counts the ``zipfile.ZipFile`` constructions on the
    read path (a count, not a time): spilled chunks are read at the
    offsets recorded when they were written, so it must be 0."""
    rng = np.random.default_rng(5)
    memory, spilled = DeliveryLog(), DeliveryLog(spill=True)
    ids = np.arange(READ_ENDPOINTS)
    for log in (memory, spilled):
        log.register_many([f"S{i}" for i in ids.tolist()], [1.0] * READ_ENDPOINTS)
    for msg_id in range(READ_MESSAGES):
        latency = float(rng.uniform(100.0, 3_000.0))
        valid = rng.random(READ_ENDPOINTS) < 0.9
        for log in (memory, spilled):
            log.append_batch(ids, msg_id, float(msg_id), latency, valid)
    assert spilled.spilled_chunks == 16 and len(spilled) == 16 * spilled.chunk_rows

    opened = []

    class CountingZipFile(zipfile.ZipFile):
        def __init__(self, *args, **kwargs):
            opened.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(zipfile, "ZipFile", CountingZipFile)

    def one_pass() -> int:
        return sum(col.nbytes for cols in spilled.iter_chunks() for col in cols)

    nbytes = benchmark(one_pass)
    for mine, theirs in zip(memory.iter_chunks(), spilled.iter_chunks(), strict=True):
        assert [c.tobytes() for c in mine] == [c.tobytes() for c in theirs]
    benchmark.extra_info["rows"] = len(spilled)
    benchmark.extra_info["zipfile_opens"] = len(opened)
    assert nbytes == len(spilled) * sum(c.itemsize for c in next(memory.iter_chunks()))
    assert opened == []


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


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
    """Standalone tables over the system's subscriber index take the
    blocks the system's tables took; ``bytes_per_row`` is what the
    install and warm-up retain, counted by tracemalloc."""
    system, blocks = scale_tables

    def install():
        tables = {name: SubscriptionTable(system.subscriber_index) for name in blocks}
        for name, block in blocks.items():
            tables[name].install_many(block)
        return tables

    tables = benchmark.pedantic(install, rounds=3, iterations=1)
    rows = sum(len(block) for block in blocks.values())
    benchmark.extra_info["rows"] = rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        warmed = install()
        for table in warmed.values():
            table.warm()
        benchmark.extra_info["bytes_per_row"] = round(
            (tracemalloc.get_traced_memory()[0] - before) / rows, 1
        )
    finally:
        tracemalloc.stop()
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
    """``peak_bytes_per_row`` is what tracemalloc sees the report hold at
    its peak, per log row: one pooled sample plus chunk-sized scratch."""
    handles = list(scale_run.subscribers.values())
    stats = benchmark.pedantic(latency_stats, args=(handles,), rounds=3, iterations=1)
    log = scale_run.delivery_log
    benchmark.extra_info["rows"] = len(log)
    traced, peak = latency_stats_peak(handles)
    benchmark.extra_info["peak_bytes_per_row"] = round(peak / len(log), 1)
    assert stats.count > 0 and stats == traced == frozen_latency_stats(handles)
    assert peak <= latency_stats_peak_bound(log)


def test_analysis_revenue_by_tier(benchmark, scale_run):
    def cold_tiers():
        scale_run.delivery_log._counts_len = -1  # the report pays the tally pass
        return revenue_by_tier(scale_run)

    tiers = benchmark.pedantic(cold_tiers, rounds=3, iterations=1)
    benchmark.extra_info["endpoints"] = scale_run.delivery_log.endpoint_count
    assert len(tiers) > 1 and tiers == frozen_revenue_by_tier(scale_run)


#: Rows per chunk of the windowed-series bench's log: ``scale_run``'s
#: world cut into 23 chunks, so a per-log cost shows against the bound.
WINDOWED_CHUNK_ROWS = 8_192


@pytest.fixture(scope="module")
def chunked_run():
    spec = ScaleScenarioSpec(name="micro", subscribers=16_000)
    config = scale_config(spec, minutes=0.5).replace(log_chunk_rows=WINDOWED_CHUNK_ROWS)
    system = build_scale_system(spec, config)
    schedule_workload(system, config)
    run_to_horizon(system, config, None)
    return system, config


def test_analysis_timeseries_windowed(benchmark, chunked_run):
    """``windowed_metrics`` over the 16k world's log in 8k-row chunks
    (``analysis.timeseries.windowed_s``); ``peak_bytes_per_row`` is what
    tracemalloc sees it hold at its peak, per log row, which must stay
    within a few chunks however many chunks the log has."""
    system, config = chunked_run
    log = system.delivery_log
    assert len(log) >= 16 * log.chunk_rows
    series = benchmark.pedantic(
        windowed_metrics, args=(system, 5_000.0, config.horizon_ms), rounds=3, iterations=1
    )
    traced, peak = windowed_metrics_peak(system, 5_000.0, config.horizon_ms)
    benchmark.extra_info["rows"] = len(log)
    benchmark.extra_info["peak_bytes_per_row"] = round(peak / len(log), 1)
    totals, m = series.totals(), system.metrics
    assert totals == traced.totals()
    assert (totals["deliveries_valid"], totals["deliveries_late"]) == (
        m.deliveries_valid, m.deliveries_late,
    )
    assert totals["earning"] == m.earning
    assert peak <= windowed_metrics_peak_bound(log)


def _run_fingerprint(system) -> tuple:
    m = system.metrics
    log = hashlib.sha256()
    for col in system.delivery_log.columns():
        log.update(np.ascontiguousarray(col).tobytes())
    return (
        m.published, m.receptions, m.transmissions, m.deliveries_valid,
        m.deliveries_late, m.pruned, m.earning, system.sim.executed_events,
        list(system.subscribers), log.hexdigest(),
    )


def test_core_checkpoint_system_roundtrip(benchmark, scale_run, tmp_path):
    """The 16k world of ``scale_run``, spilled and paused at half its
    horizon, through ``save_run_checkpoint`` → ``resume_run`` (what the
    layers ``core.checkpoint.save_s`` / ``load_s`` time on
    ``spill-checkpoint-16k``); the restored system runs on to the same
    fingerprint as the uninterrupted run."""
    spec = ScaleScenarioSpec(name="micro", subscribers=16_000)
    config = scale_config(spec, minutes=0.5, spill=True)
    system = build_scale_system(spec, config)
    schedule_workload(system, config)
    system.run(until=config.horizon_ms / 2.0)
    assert system.delivery_log.spilled_chunks > 0

    def roundtrip():
        path, _, size = save_run_checkpoint(system, config, tmp_path)
        benchmark.extra_info["snapshot_mb"] = round(size / 1e6, 2)
        benchmark.extra_info["state_mb"] = round((path / "state.pkl").stat().st_size / 1e6, 2)
        return resume_run(path, config=config)[0]

    restored = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
    del system
    run_to_horizon(restored, config, None)
    assert _run_fingerprint(restored) == _run_fingerprint(scale_run)


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
