"""Differential tests: the log-reduced ledger ≡ the per-delivery collector.

The :class:`LedgerMetricsCollector` is a cursor reduction over a
:class:`DeliveryLog`; it must agree with the dict/set
:class:`MetricsCollector` fed the same deliveries on every public counter
and derived metric — bit for bit, including the float accumulators
(``earning``, ``latency_sum_ms``), whose fold order is the log's append
order — under any chunking, spilled or not, with duplicate settlements
across batches and chunks, reads at any point and a pickle round trip
mid-stream.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub.client import DeliveryLog
from repro.pubsub.metrics import LedgerMetricsCollector, MetricsCollector, MetricsError

#: Both collectors, under the ids their tests have always carried.
COLLECTORS = pytest.mark.parametrize(
    "collector", (LedgerMetricsCollector, MetricsCollector), ids=("ledger", "scalar")
)


def assert_equivalent(ledger: LedgerMetricsCollector, scalar: MetricsCollector) -> None:
    """Every public counter, dict view and derived float must match
    exactly (``==`` on floats: the fold order is part of the contract)."""
    for attr in (
        "published", "receptions", "transmissions", "deliveries_valid",
        "deliveries_late", "pruned", "duplicate_deliveries",
        "total_interested", "delivery_rate", "earning", "latency_sum_ms",
        "mean_latency_ms",
    ):
        assert getattr(ledger, attr) == getattr(scalar, attr), attr
    assert ledger.interested == dict(scalar.interested)
    assert ledger.delivered == {k: v for k, v in scalar.delivered.items() if v}
    assert ledger.per_subscriber_valid == {
        k: v for k, v in scalar.per_subscriber_valid.items() if v
    }
    ledger.check_invariants()
    scalar.check_invariants()


class TestLedgerScalarParity:
    """Hand-written sequences mirroring the scalar collector's test
    surface, replayed against both collectors."""

    def both(self):
        return LedgerMetricsCollector(), MetricsCollector()

    def test_basic_counters(self):
        ledger, scalar = self.both()
        for m in (ledger, scalar):
            m.on_publish(1, 4)
            m.on_publish(2, 2)
            m.on_delivery(1, "S1", 100.0, 1.0, valid=True)
            m.on_delivery(1, "S2", 120.0, 1.0, valid=True)
            m.on_delivery(2, "S1", 900.0, 1.0, valid=False)
            m.on_reception()
            m.on_transmission()
            m.on_prune(3)
        assert ledger.delivery_rate == pytest.approx(2 / 6)
        assert_equivalent(ledger, scalar)

    def test_empty(self):
        ledger, scalar = self.both()
        assert ledger.delivery_rate == 0.0
        assert ledger.mean_latency_ms == 0.0
        assert_equivalent(ledger, scalar)

    def test_duplicate_settlement_valid_then_valid(self):
        ledger, scalar = self.both()
        for m in (ledger, scalar):
            m.on_publish(1, 1)
            m.on_delivery(1, "S1", 100.0, 2.0, valid=True)
            m.on_delivery(1, "S1", 150.0, 2.0, valid=True)
        assert ledger.deliveries_valid == 1
        assert ledger.duplicate_deliveries == 1
        assert_equivalent(ledger, scalar)

    def test_duplicate_settlement_late_then_late(self):
        ledger, scalar = self.both()
        for m in (ledger, scalar):
            m.on_publish(1, 1)
            m.on_delivery(1, "S1", 900.0, 1.0, valid=False)
            m.on_delivery(1, "S1", 950.0, 1.0, valid=False)
        assert ledger.deliveries_late == 1
        assert ledger.duplicate_deliveries == 1
        assert_equivalent(ledger, scalar)

    def test_batch_then_duplicate_batch(self):
        """Multi-path style: the same (message, subscriber) pairs arrive
        again in a later batch and must settle as duplicates."""
        ledger, scalar = self.both()
        subs = ["S1", "S2", "S3"]
        prices = np.array([3.0, 2.0, 1.0])
        valid = np.array([True, False, True])
        for m in (ledger, scalar):
            m.on_publish(7, 3)
            m.on_delivery_batch(7, subs, 50.0, prices, valid)
            m.on_delivery_batch(7, subs, 80.0, prices, np.array([True, True, True]))
        assert ledger.duplicate_deliveries == 3
        assert ledger.deliveries_valid == 2
        assert ledger.deliveries_late == 1
        assert_equivalent(ledger, scalar)

    def test_batch_with_intra_batch_duplicates_falls_back(self):
        ledger, scalar = self.both()
        subs = ["S1", "S1", "S2"]
        prices = np.array([3.0, 3.0, 2.0])
        valid = np.array([True, True, True])
        for m in (ledger, scalar):
            m.on_publish(1, 2)
            m.on_delivery_batch(1, subs, 10.0, prices, valid)
        assert ledger.duplicate_deliveries == 1
        assert_equivalent(ledger, scalar)

    def test_empty_batch(self):
        ledger, scalar = self.both()
        for m in (ledger, scalar):
            m.on_publish(1, 1)
            m.on_delivery_batch(1, [], 10.0, np.empty(0), np.empty(0, dtype=bool))
        assert_equivalent(ledger, scalar)

    def test_scalar_and_batch_interleaved_across_paths(self):
        """Scalar arrivals (one path) interleave with batches (another);
        settlement is first-arrival-wins across entry points."""
        ledger, scalar = self.both()
        for m in (ledger, scalar):
            m.on_publish(1, 3)
            m.on_delivery(1, "S2", 40.0, 2.0, valid=True)
            m.on_delivery_batch(
                1, ["S1", "S2", "S3"], 60.0,
                np.array([1.0, 2.0, 3.0]), np.array([True, True, False]),
            )
            m.on_delivery(1, "S3", 70.0, 3.0, valid=True)
        assert ledger.duplicate_deliveries == 2
        assert_equivalent(ledger, scalar)


class TestInvariantErrors:
    """check_invariants raises real exceptions (survives ``python -O``),
    still catchable as AssertionError for old callers."""

    @COLLECTORS
    def test_over_delivery_detected(self, collector):
        m = collector()
        m.on_publish(1, 1)
        m.on_delivery(1, "S1", 1.0, 1.0, valid=True)
        m.on_delivery(1, "S2", 1.0, 1.0, valid=True)  # more than interested
        with pytest.raises(MetricsError):
            m.check_invariants()
        with pytest.raises(AssertionError):  # backwards-compatible catch
            m.check_invariants()

    def test_tallies_that_miss_a_delivery_are_detected(self, monkeypatch):
        """The valid count and the per-message / per-endpoint tallies come
        out of one reduction by different code; a tally that loses a row
        must not pass as consistent."""
        from repro.pubsub import metrics

        m = LedgerMetricsCollector()
        m.on_publish(1, 3)
        m.on_delivery(1, "S1", 1.0, 1.0, valid=True)
        monkeypatch.setattr(metrics, "_tally", lambda counts, ids: counts)
        with pytest.raises(MetricsError, match="per-message sum 0"):
            m.check_invariants()

    @COLLECTORS
    def test_clean_state_passes(self, collector):
        m = collector()
        m.on_publish(1, 3)
        m.on_delivery(1, "S1", 1.0, 1.0, valid=True)
        m.check_invariants()

    def test_is_not_a_bare_assert(self):
        """The raise must be explicit: compiling the module with -O-style
        optimisation must not remove the checks (bare asserts would)."""
        import inspect

        from repro.pubsub import metrics

        source = inspect.getsource(metrics.MetricsCollector.check_invariants)
        assert "assert " not in source
        source = inspect.getsource(metrics.LedgerMetricsCollector.check_invariants)
        assert "assert " not in source


class TestStandaloneEntry:
    """A ledger built without a log owns one; a system's ledger is never
    fed per delivery."""

    def test_price_is_fixed_per_subscriber(self):
        m = LedgerMetricsCollector()
        m.on_delivery(1, "S1", 10.0, 2.0, valid=True)
        with pytest.raises(MetricsError, match="billed at 3.0"):
            m.on_delivery(2, "S1", 10.0, 3.0, valid=True)

    def test_a_systems_ledger_rejects_deliveries(self):
        log = DeliveryLog()
        m = LedgerMetricsCollector.for_log(log)
        with pytest.raises(MetricsError):
            m.on_delivery(1, "S1", 10.0, 1.0, valid=True)
        with pytest.raises(MetricsError):
            m.on_delivery_batch_ids(1, np.zeros(1, dtype=np.int64), 10.0, np.ones(1, bool))
        assert len(log) == 0

    def test_reads_reduce_only_new_rows(self):
        log = DeliveryLog(chunk_rows=2)
        m = LedgerMetricsCollector.for_log(log)
        eid = log.register("S1", 4.0)
        m.on_publish(0, 1)
        m.on_publish(1, 1)
        log.append_batch(np.array([eid, eid, eid]), 0, 1.0, 5.0, np.ones(3, bool))
        assert (m.deliveries_valid, m.duplicate_deliveries, m.rows_reduced) == (1, 2, 3)
        log.append_batch(np.array([eid]), 1, 2.0, 7.0, np.zeros(1, bool))
        assert (m.deliveries_late, m.rows_reduced) == (1, 4)
        assert (m.earning, m.latency_sum_ms) == (4.0, 5.0)
        assert m.rows_reduced == 4  # a read with nothing new reduces nothing


# --------------------------------------------------------------------- #
# Property-based differential: random interleavings of publishes, scalar
# deliveries (with duplicates) and batches, through the standalone entry.
# --------------------------------------------------------------------- #

SUBSCRIBERS = [f"S{i}" for i in range(6)]
MESSAGES = list(range(4))
prices_of_subscribers = st.lists(
    st.floats(0.0, 5.0, allow_nan=False), min_size=len(SUBSCRIBERS), max_size=len(SUBSCRIBERS)
)


@st.composite
def delivery_ops(draw):
    """Publishes, single deliveries and batches; each subscriber is billed
    one price throughout, as a subscription is."""
    price = dict(zip(SUBSCRIBERS, draw(prices_of_subscribers)))
    ops = []
    for msg_id in MESSAGES:
        ops.append(("publish", msg_id, draw(st.integers(0, 6))))
    n_ops = draw(st.integers(1, 25))
    for _ in range(n_ops):
        msg_id = draw(st.sampled_from(MESSAGES))
        if draw(st.booleans()):
            sub = draw(st.sampled_from(SUBSCRIBERS))
            ops.append((
                "delivery", msg_id, sub,
                draw(st.floats(0.0, 1000.0, allow_nan=False)),
                price[sub],
                draw(st.booleans()),
            ))
        else:
            subs = draw(
                st.lists(st.sampled_from(SUBSCRIBERS), min_size=0, max_size=5)
            )
            valid = [draw(st.booleans()) for _ in subs]
            ops.append((
                "batch", msg_id, subs,
                draw(st.floats(0.0, 1000.0, allow_nan=False)),
                [price[s] for s in subs], valid,
            ))
    return ops


@settings(max_examples=120, deadline=None)
@given(ops=delivery_ops())
def test_ledger_equals_scalar_on_random_interleavings(ops):
    ledger, scalar = LedgerMetricsCollector(), MetricsCollector()
    for m in (ledger, scalar):
        for op in ops:
            if op[0] == "publish":
                m.on_publish(op[1], op[2])
            elif op[0] == "delivery":
                m.on_delivery(op[1], op[2], op[3], op[4], op[5])
            else:
                _, msg_id, subs, latency, prices, valid = op
                m.on_delivery_batch(
                    msg_id, subs, latency,
                    np.asarray(prices, dtype=np.float64),
                    np.asarray(valid, dtype=bool),
                )
    for attr in (
        "published", "deliveries_valid", "deliveries_late",
        "duplicate_deliveries", "total_interested", "delivery_rate",
        "earning", "latency_sum_ms", "mean_latency_ms",
    ):
        assert getattr(ledger, attr) == getattr(scalar, attr), attr
    assert ledger.delivered == {k: v for k, v in scalar.delivered.items() if v}
    assert ledger.per_subscriber_valid == {
        k: v for k, v in scalar.per_subscriber_valid.items() if v
    }


# --------------------------------------------------------------------- #
# Property-based differential over the log itself: any chunking, spill on
# and off, reads anywhere, a pickle round trip mid-stream.
# --------------------------------------------------------------------- #

def _float_hex(m) -> tuple[str, ...]:
    return tuple(
        float(getattr(m, attr)).hex()
        for attr in ("earning", "latency_sum_ms", "mean_latency_ms", "delivery_rate")
    )


def _assert_same(ledger: LedgerMetricsCollector, scalar: MetricsCollector) -> None:
    for attr in (
        "published", "deliveries_valid", "deliveries_late",
        "duplicate_deliveries", "total_interested",
    ):
        assert getattr(ledger, attr) == getattr(scalar, attr), attr
    assert _float_hex(ledger) == _float_hex(scalar)
    assert ledger.delivered == {k: v for k, v in scalar.delivered.items() if v}
    assert ledger.per_subscriber_valid == {
        k: v for k, v in scalar.per_subscriber_valid.items() if v
    }
    ledger.check_invariants()


@settings(max_examples=150, deadline=None)
@given(
    chunk_rows=st.sampled_from((1, 2, 3, 5, 64)),
    spill=st.booleans(),
    prices=prices_of_subscribers,
    data=st.data(),
)
def test_log_reduction_equals_the_scalar_collector(chunk_rows, spill, prices, data):
    """The ledger reduces the log that a scalar collector's deliveries
    were written to: every counter equal, floats equal by ``float.hex``,
    each row reduced exactly once."""
    log = DeliveryLog(chunk_rows=chunk_rows, spill=spill)
    ledger, scalar = LedgerMetricsCollector.for_log(log), MetricsCollector()
    endpoints = [log.register(name, price) for name, price in zip(SUBSCRIBERS, prices)]
    for msg_id in MESSAGES:
        for m in (ledger, scalar):
            m.on_publish(msg_id, len(SUBSCRIBERS))
    for step in range(data.draw(st.integers(1, 20), label="steps")):
        op = data.draw(st.sampled_from(("batch", "batch", "read", "pickle")), label=f"op{step}")
        if op == "read":
            _assert_same(ledger, scalar)
        elif op == "pickle":
            log, ledger = pickle.loads(pickle.dumps((log, ledger)))
        else:
            msg_id = data.draw(st.sampled_from(MESSAGES))
            # Any endpoints, repeats included: within a batch, across the
            # batches of a message and so across chunks.
            ids = data.draw(st.lists(st.integers(0, len(SUBSCRIBERS) - 1), max_size=6))
            valid = np.asarray([data.draw(st.booleans()) for _ in ids], dtype=bool)
            latency = data.draw(st.floats(0.0, 1000.0, allow_nan=False))
            eids = np.asarray([endpoints[i] for i in ids], dtype=np.int64)
            log.append_batch(eids, msg_id, float(step), latency, valid)
            scalar.on_delivery_batch(
                msg_id, [SUBSCRIBERS[i] for i in ids], latency,
                np.asarray([prices[i] for i in ids], dtype=np.float64), valid,
            )
    _assert_same(ledger, scalar)
    assert ledger.rows_reduced == len(log)


def test_a_spilling_log_is_reduced_before_each_chunk_goes_to_disk(monkeypatch):
    """Reading the ledger of a spilled log loads no chunk back from the
    spill ring (each row is reduced once, from RAM), also after a pickle
    round trip; the counters still equal the scalar collector's."""
    from repro.core import chunked

    log = DeliveryLog(chunk_rows=4, spill=True)
    ledger, scalar = LedgerMetricsCollector.for_log(log), MetricsCollector()
    endpoints = [log.register(name, 1.0 + i) for i, name in enumerate(SUBSCRIBERS)]
    reads = []
    real_read = chunked._read_chunk
    monkeypatch.setattr(chunked, "_read_chunk", lambda *a: reads.append(a) or real_read(*a))
    for msg_id in range(30):
        ids = [msg_id % len(SUBSCRIBERS), (msg_id * 5) % len(SUBSCRIBERS), 0]
        valid = np.array([msg_id % 3 != 0, True, msg_id % 4 == 0])
        for m in (ledger, scalar):
            m.on_publish(msg_id, len(SUBSCRIBERS))
        log.append_batch(np.asarray([endpoints[i] for i in ids]), msg_id, 1.0, 10.0 + msg_id, valid)
        scalar.on_delivery_batch(
            msg_id, [SUBSCRIBERS[i] for i in ids], 10.0 + msg_id,
            np.asarray([1.0 + i for i in ids]), valid,
        )
        if msg_id == 15:
            with chunked.spill_transfer(tmp := Path(tempfile.mkdtemp())):
                blob = pickle.dumps((log, ledger))
                log, ledger = pickle.loads(blob)
            shutil.rmtree(tmp)
    assert log.spilled_chunks > 10
    reads.clear()
    _assert_same(ledger, scalar)
    assert reads == []
    assert ledger.rows_reduced == len(log)
