"""The delivery log's run columns against the per-row store they replaced.

The log stores ``msg_id``, ``time`` and ``latency`` once an append (a
run) and expands them when read.  Every read — ``iter_chunks`` from any
row with any columns, ``gather``, ``columns()`` and ``columns_for`` —
must return what the frozen 26-byte-a-row store in
``tests/core/frozen_log.py`` returns, chunk for chunk and byte for byte:
in memory, spilled, and pickled and resumed part-way (spilled through a
checkpoint's ``spill_transfer``).
"""

from __future__ import annotations

import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunked import ChunkedColumnStore, spill_transfer
from repro.pubsub.client import DeliveryLog
from tests.core.frozen_log import FrozenLog

ENDPOINTS = 8

#: Column selections the readers ask for: all, each kind alone, mixed.
SELECTIONS = (
    None, ("sub_id",), ("msg_id",), ("latency",), ("time", "sub_id"),
    ("first", "latency", "valid"), ("msg_id", "time", "latency"),
    ("sub_id", "msg_id", "latency", "valid", "first"),
)

#: One append: (single row?, rows, msg_id, time, latency, first as an
#: array?, scalar first, id dtype, content seed).
_append = st.tuples(
    st.booleans(),
    st.integers(0, 150) | st.sampled_from([0, 1]),
    st.integers(-5, 2**31 - 1),
    st.sampled_from([0.0, 1.5, 250.0, float("nan")]) | st.floats(0, 1e6),
    st.sampled_from([250.0, 1e3]) | st.floats(0, 5e3),
    st.booleans(),
    st.booleans(),
    st.sampled_from([np.int32, np.int64]),
    st.integers(0, 2**16),
)


def _apply(logs, op) -> None:
    single, rows, msg_id, time, latency, first_array, first, dtype, seed = op
    rng = np.random.default_rng(seed)
    if single:
        sub, valid = int(rng.integers(0, ENDPOINTS)), bool(rng.random() < 0.8)
        for log in logs:
            log.append(sub, msg_id, time, latency, valid, first)
        return
    sub_ids = rng.integers(0, ENDPOINTS, rows).astype(dtype)
    valid = rng.random(rows) < 0.8
    mark = rng.random(rows) < 0.5 if first_array else first
    for log in logs:
        log.append_batch(sub_ids, msg_id, time, latency, valid, mark)


def _same(mine: tuple[np.ndarray, ...], theirs: tuple[np.ndarray, ...]) -> None:
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _assert_equals_the_oracle(log: DeliveryLog, oracle: FrozenLog) -> None:
    n = len(oracle)
    assert len(log) == n
    for names in SELECTIONS:
        for start in sorted({0, 1, n // 3, max(n - 1, 0), n, n + 1}):
            mine = list(log.iter_chunks(names, start))
            theirs = list(oracle.iter_chunks(names, start))
            assert len(mine) == len(theirs), (names, start)
            for a, b in zip(mine, theirs):
                _same(a, b)
        _same(log._store.gather(names), oracle.gather(names))
    _same(log.columns(), oracle.columns())
    for sub_id in range(ENDPOINTS + 1):
        _same(log.columns_for(sub_id), oracle.columns_for(sub_id))
    # Six bytes a row and 24 a run, in memory or on disk.
    assert log.nbytes == 6 * n + 24 * log.run_count


def _resumed(log: DeliveryLog) -> DeliveryLog:
    if not log.spills:
        return pickle.loads(pickle.dumps(log))
    with tempfile.TemporaryDirectory() as root:
        with spill_transfer(root):
            data = pickle.dumps(log)
        with spill_transfer(root):
            return pickle.loads(data)


@pytest.mark.parametrize("spill", [False, True])
@pytest.mark.parametrize("resume", [False, True])
@settings(max_examples=40, deadline=None)
@given(
    chunk_rows=st.integers(1, 64),
    ops=st.lists(_append, max_size=10),
    cut=st.integers(0, 10),
)
def test_reads_equal_the_per_row_store(spill, resume, chunk_rows, ops, cut):
    log, oracle = DeliveryLog(chunk_rows=chunk_rows, spill=spill), FrozenLog(chunk_rows)
    head, tail = (ops[:cut], ops[cut:]) if resume else (ops, [])
    for op in head:
        _apply((log, oracle), op)
    if resume:
        _assert_equals_the_oracle(log, oracle)
        log = _resumed(log)
    for op in tail:
        _apply((log, oracle), op)
    _assert_equals_the_oracle(log, oracle)
    if spill:
        assert log.spilled_chunks == len(oracle) // chunk_rows


class TestRuns:
    def test_a_batch_split_by_a_seal_is_two_runs(self):
        log = DeliveryLog(chunk_rows=4)
        log.append_batch(np.arange(6), 7, 1.0, 2.0, np.ones(6, dtype=bool), True)
        assert log.run_count == 2 and log.nbytes == 6 * 6 + 24 * 2
        runs = list(log.iter_runs(("msg_id", "sub_id")))
        assert [r.tolist() for r, _ in runs] == [[4], [2]]
        assert [c[0].tolist() for _, c in runs] == [[7], [7]]
        assert [c[1].tolist() for _, c in runs] == [[0, 1, 2, 3], [4, 5]]

    def test_empty_batches_store_nothing(self):
        log = DeliveryLog(chunk_rows=4)
        log.append_batch(np.arange(0), 7, 1.0, 2.0, np.ones(0, dtype=bool), True)
        assert len(log) == log.run_count == log.nbytes == 0
        assert list(log.iter_chunks()) == [] and list(log.iter_runs()) == []

    def test_expanded_columns_are_read_only(self):
        log = DeliveryLog(chunk_rows=4)
        log.append_batch(np.arange(6), 7, 1.0, 2.0, np.ones(6, dtype=bool), True)
        for chunk in log.iter_chunks(("msg_id", "time")):
            for column in chunk:
                with pytest.raises(ValueError):
                    column[0] = 0

    def test_a_store_without_runs_has_no_run_view(self):
        store = ChunkedColumnStore((("a", np.int64),), chunk_rows=4)
        store.append_batch(3, np.arange(3))
        assert store.run_count == 0 and store.nbytes == 24
        with pytest.raises(ValueError):
            next(store.iter_runs())

    def test_schema_checks(self):
        with pytest.raises(ValueError, match="not in the schema"):
            ChunkedColumnStore((("a", np.int64),), runs=("b",))
        with pytest.raises(ValueError, match="row column"):
            ChunkedColumnStore((("a", np.int64),), runs=("a",))
        with pytest.raises(ValueError, match="reserved"):
            ChunkedColumnStore((("run_rows", np.int64),))
