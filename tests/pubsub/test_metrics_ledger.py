"""Differential tests: the ledger collector ≡ the per-delivery collector.

The array-backed :class:`LedgerMetricsCollector` must agree with the
dict/set :class:`MetricsCollector` on every public counter and derived
metric — bit for bit, including the float accumulators (``earning``,
``latency_sum_ms``), whose fold order the ledger preserves — under any
interleaving of scalar deliveries, batched deliveries and duplicate
settlements.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# --------------------------------------------------------------------- #
# Property-based differential: random interleavings of publishes, scalar
# deliveries (with duplicates) and batches.
# --------------------------------------------------------------------- #

SUBSCRIBERS = [f"S{i}" for i in range(6)]
MESSAGES = list(range(4))


@st.composite
def delivery_ops(draw):
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
                draw(st.floats(0.0, 5.0, allow_nan=False)),
                draw(st.booleans()),
            ))
        else:
            subs = draw(
                st.lists(st.sampled_from(SUBSCRIBERS), min_size=0, max_size=5)
            )
            prices = [draw(st.floats(0.0, 5.0, allow_nan=False)) for _ in subs]
            valid = [draw(st.booleans()) for _ in subs]
            ops.append((
                "batch", msg_id, subs,
                draw(st.floats(0.0, 1000.0, allow_nan=False)),
                prices, valid,
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


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_batched_settlement_equals_the_scalar_settle_path(data):
    """``on_delivery_batch_ids`` on batches of distinct subscribers — the
    fast path: one fancy-index tally add, one concatenate-and-sort merge
    of the settled set — against ``_settle_one`` row by row on a twin
    ledger, with subscribers repeating across the batches of a message
    (duplicate settlements) and the intra-batch uniqueness check both
    skipped and run."""
    batched, scalar = LedgerMetricsCollector(), LedgerMetricsCollector()
    for m in (batched, scalar):
        m.intern_subscribers(SUBSCRIBERS)
        for msg_id in MESSAGES:
            m.on_publish(msg_id, len(SUBSCRIBERS))
    for _ in range(data.draw(st.integers(1, 12))):
        msg_id = data.draw(st.sampled_from(MESSAGES))
        sids = data.draw(st.lists(
            st.integers(0, len(SUBSCRIBERS) - 1), min_size=1, max_size=len(SUBSCRIBERS),
            unique=True,
        ))
        prices = [data.draw(st.floats(0.0, 5.0, allow_nan=False)) for _ in sids]
        valid = [data.draw(st.booleans()) for _ in sids]
        latency = data.draw(st.floats(0.0, 1000.0, allow_nan=False))
        batched.on_delivery_batch_ids(
            msg_id, np.asarray(sids, dtype=np.int64), latency,
            np.asarray(prices, dtype=np.float64), np.asarray(valid, dtype=bool),
            assume_unique=data.draw(st.booleans()),
        )
        mid = scalar._mid(msg_id)
        for sid, price, ok in zip(sids, prices, valid):
            scalar._settle_one(mid, sid, latency, price, ok)
    for attr in (
        "deliveries_valid", "deliveries_late", "duplicate_deliveries",
        "earning", "latency_sum_ms",
    ):
        assert getattr(batched, attr) == getattr(scalar, attr), attr
    assert batched.delivered == scalar.delivered
    assert batched.per_subscriber_valid == scalar.per_subscriber_valid
    assert [s.tolist() for s in batched._settled] == [s.tolist() for s in scalar._settled]
    assert all(s.dtype == np.int64 for s in batched._settled)
    batched.check_invariants()
