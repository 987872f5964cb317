"""Client endpoint tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategies import FifoStrategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.core.settlement import pair_keys
from repro.pubsub import client
from repro.pubsub.client import DeliveryLog, DeliveryRecord, LogIdOverflow, SubscriberHandle
from repro.pubsub.filters import Predicate
from repro.pubsub.metrics import MetricsError
from repro.pubsub.subscription import Subscription
from repro.pubsub.system import PubSubSystem
from tests.conftest import make_line_topology

MATCH_ALL = Predicate("A1", "<", 1e9)


def _fill_log(log: DeliveryLog, endpoints: int, rows: int, seed: int = 3):
    """Register endpoints and append a deterministic row mix (batch +
    scalar appends, so chunk boundaries land mid-batch too)."""
    ids = [log.register(f"S{i}") for i in range(endpoints)]
    rng = np.random.default_rng(seed)
    sub = rng.integers(0, endpoints, rows)
    msg = rng.integers(0, 50, rows)
    t = np.sort(rng.uniform(0, 1000, rows))
    lat = rng.uniform(1, 100, rows)
    valid = rng.integers(0, 2, rows).astype(bool)
    i = 0
    while i < rows:
        k = min(int(rng.integers(1, 9)), rows - i)
        if k == 1:
            log.append(int(sub[i]), int(msg[i]), float(t[i]), float(lat[i]), bool(valid[i]))
        else:
            log.append_batch(sub[i : i + k], int(msg[i]), float(t[i]), float(lat[i]), valid[i : i + k])
            msg[i : i + k] = msg[i]
            t[i : i + k] = t[i]
            lat[i : i + k] = lat[i]
        i += k
    return ids, (sub, msg, t, lat, valid)


class TestDeliveryLogChunked:
    def test_columns_is_a_stable_snapshot(self):
        """Satellite pin: ``columns()`` snapshots are copies — they stay
        valid (and unchanged) across later appends that seal/reallocate
        chunks.  The pre-chunking zero-copy views did not survive this."""
        log = DeliveryLog(chunk_rows=4)
        log.register("S0")
        for i in range(6):
            log.append(0, i, float(i), 1.0, True)
        snap = log.columns()
        for i in range(6, 40):  # forces several seals past the snapshot
            log.append(0, i, float(i), 1.0, False)
        np.testing.assert_array_equal(snap[1], np.arange(6))
        assert snap[4].all()
        assert len(log) == 40

    def test_chunked_matches_unchunked(self):
        big = DeliveryLog()  # one active chunk
        small = DeliveryLog(chunk_rows=16)
        _fill_log(big, 5, 200)
        _fill_log(small, 5, 200)
        for a, b in zip(big.columns(), small.columns()):
            assert a.tobytes() == b.tobytes()
        for sid in range(5):
            assert big.counts_for(sid) == small.counts_for(sid)
            for a, b in zip(big.columns_for(sid), small.columns_for(sid)):
                np.testing.assert_array_equal(a, b)

    def test_spill_matches_memory(self):
        mem = DeliveryLog(chunk_rows=16)
        disk = DeliveryLog(chunk_rows=16, spill=True)
        _fill_log(mem, 4, 150)
        _fill_log(disk, 4, 150)
        assert disk.spilled_chunks > 0 and disk.spills
        assert mem.spilled_chunks == 0 and not mem.spills
        for a, b in zip(mem.columns(), disk.columns()):
            assert a.tobytes() == b.tobytes()

    def test_counts_cache_tracks_growth_and_new_endpoints(self):
        log = DeliveryLog(chunk_rows=8)
        a = log.register("A")
        log.append(a, 1, 1.0, 1.0, True)
        assert log.counts_for(a) == (1, 1)
        b = log.register("B")  # registered after the tallies were cached
        assert log.counts_for(b) == (0, 0)
        log.append(b, 2, 2.0, 2.0, False)
        assert log.counts_for(b) == (1, 0)
        assert log.counts_for(a) == (1, 1)

    def test_row_without_live_endpoint_raises(self):
        """The log is the one delivery record: a row it cannot attribute
        is an error, not a silent drop."""
        log = DeliveryLog(chunk_rows=4)
        a = log.register("A")
        with pytest.raises(MetricsError, match="1 of 2 deliveries of msg 7"):
            log.append_batch(np.array([a, -1]), 7, 1.0, 1.0, np.ones(2, bool))
        assert len(log) == 0

    def test_ids_are_stored_as_int32_and_widened_on_read(self):
        """26 bytes a row: the id columns are int32 in the chunks, and
        the whole-column reads hand out the int64 arrays they always did."""
        log = DeliveryLog(chunk_rows=16)
        _, (sub, msg, t, lat, valid) = _fill_log(log, 5, 100)
        chunks = list(log.iter_chunks())
        assert len(chunks) > 1
        for chunk in chunks:
            assert [c.dtype for c in chunk[:2]] == [np.int32, np.int32]
            assert sum(c.itemsize for c in chunk) == 26
        cols = log.columns()
        assert [c.dtype for c in cols[:2]] == [np.int64, np.int64]
        for have, want in zip(cols, (sub, msg, t, lat, valid)):
            np.testing.assert_array_equal(have, want)
        assert log.columns_for(2)[0].dtype == np.int64
        np.testing.assert_array_equal(log.columns_for(2)[0], msg[sub == 2])

    def test_pair_keys_widen_int32_ids_without_touching_them(self):
        msg = np.array([0, 1, 2**31 - 1], dtype=np.int32)
        sub = np.array([2**31 - 1, 0, 5], dtype=np.int32)
        keys = pair_keys(msg, sub)
        assert keys.dtype == np.int64
        np.testing.assert_array_equal(
            keys, (msg.astype(np.int64) << 32) | sub.astype(np.int64)
        )
        np.testing.assert_array_equal(msg, [0, 1, 2**31 - 1])
        assert (np.diff(keys) > 0).all()  # (message, endpoint) order

    def test_endpoint_ids_past_the_limit_raise(self, monkeypatch):
        """An id past int32 would wrap in the column: registration stops
        first, and registers nothing."""
        monkeypatch.setattr(client, "MAX_LOG_ID", 5)
        log = DeliveryLog()
        assert log.register_many([f"S{i}" for i in range(5)], [1.0] * 5) == 0
        with pytest.raises(LogIdOverflow, match="largest endpoint id 5"):
            log.register_many(["S5", "S6"], [1.0, 1.0])
        assert log.endpoint_count == 5 and len(log.endpoint_prices()) == 5
        assert log.register("S5") == 5
        with pytest.raises(LogIdOverflow):
            SubscriberHandle("S6", log=log)
        assert log.endpoint_count == 6

    def test_msg_ids_past_the_limit_raise(self, monkeypatch):
        log = DeliveryLog(chunk_rows=4)
        a = log.register("A")
        with pytest.raises(LogIdOverflow):  # no limit lowered: int32 itself
            log.append(a, 2**31, 1.0, 1.0, True)
        monkeypatch.setattr(client, "MAX_LOG_ID", 100)
        log.append(a, 100, 1.0, 1.0, True)
        log.append_batch(np.array([a, a]), 100, 1.0, 1.0, np.ones(2, bool))
        with pytest.raises(LogIdOverflow, match="msg_id 101"):
            log.append(a, 101, 1.0, 1.0, True)
        with pytest.raises(LogIdOverflow, match="msg_id 101"):
            log.append_batch(np.array([a, a]), 101, 1.0, 1.0, np.ones(2, bool))
        assert isinstance(LogIdOverflow("x"), OverflowError)
        assert len(log) == 3
        assert log.columns()[1].tolist() == [100, 100, 100]

    def test_handle_counts_on_chunked_log(self):
        log = DeliveryLog(chunk_rows=4)
        h = SubscriberHandle("S1", log=log)
        other = SubscriberHandle("S2", log=log)
        for i in range(10):
            (h if i % 2 else other).record(i, float(i), 1.0, valid=i < 6)
        assert h.valid_count + h.late_count == 5
        assert other.valid_count + other.late_count == 5
        assert h.received_ids() == {1, 3, 5, 7, 9}


class TestSubscriberHandle:
    def test_counts(self):
        h = SubscriberHandle("S1")
        h.record(1, 10.0, 10.0, valid=True)
        h.record(2, 20.0, 20.0, valid=True)
        h.record(3, 30.0, 30.0, valid=False)
        assert h.valid_count == 2
        assert h.late_count == 1
        assert h.received_ids() == {1, 2, 3}
        assert h.records == [
            DeliveryRecord(1, 10.0, 10.0, valid=True),
            DeliveryRecord(2, 20.0, 20.0, valid=True),
            DeliveryRecord(3, 30.0, 30.0, valid=False),
        ]

    def test_records_refresh_after_append(self):
        h = SubscriberHandle("S1")
        assert h.records == []
        h.record(7, 1.0, 1.0, valid=True)
        assert [r.msg_id for r in h.records] == [7]
        h.record(8, 2.0, 2.0, valid=False)
        assert [r.msg_id for r in h.records] == [7, 8]

    def test_empty(self):
        h = SubscriberHandle("S1")
        assert h.valid_count == 0 and h.late_count == 0
        assert h.received_ids() == set()


class TestPublisherHandle:
    def test_publish_through_system(self):
        topo = make_line_topology(
            n=2, publishers={"P1": "B1"}, subscribers={"S1": "B2"}
        )
        system = PubSubSystem(topo, FifoStrategy(), Simulator(), RngStreams(0))
        handle_sub = system.subscribe(Subscription("S1", MATCH_ALL))
        pub = system.publishers["P1"]
        message = pub.publish({"A1": 2.0}, size_kb=10.0)
        system.sim.run()
        assert pub.published == 1
        assert message.size_kb == 10.0
        assert handle_sub.received_ids() == {message.msg_id}

    def test_deadline_forwarded(self):
        topo = make_line_topology(n=2, publishers={"P1": "B1"})
        system = PubSubSystem(topo, FifoStrategy(), Simulator(), RngStreams(0))
        message = system.publishers["P1"].publish({"A1": 1.0}, deadline_ms=5_000.0)
        assert message.deadline_ms == 5_000.0
