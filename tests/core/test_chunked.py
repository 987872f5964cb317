"""ChunkedColumnStore: sealing, spill round-trips, streaming reads."""

from __future__ import annotations

import gc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import chunked
from repro.core.chunked import ChunkedColumnStore, SpillError

SCHEMA = (("a", np.int64), ("b", np.float64), ("flag", np.bool_))


def fill_reference(store: ChunkedColumnStore, n: int, seed: int = 0):
    """Append n rows through a mix of row/batch appends; return the
    reference columns."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1000, n)
    b = rng.uniform(0, 1, n)
    flag = rng.integers(0, 2, n).astype(bool)
    i = 0
    while i < n:
        if i % 3 == 0:
            store.append_row(a[i], b[i], flag[i])
            i += 1
        else:
            k = min(int(rng.integers(1, 40)), n - i)
            store.append_batch(k, a[i : i + k], b[i : i + k], flag[i : i + k])
            i += k
    return a, b, flag


class TestAppendAndGather:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 64, 1000])
    def test_gather_reproduces_append_order(self, chunk_rows):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=chunk_rows)
        a, b, flag = fill_reference(store, 333)
        ga, gb, gflag = store.gather()
        np.testing.assert_array_equal(ga, a)
        np.testing.assert_array_equal(gb, b)
        np.testing.assert_array_equal(gflag, flag)
        assert len(store) == 333

    def test_iter_chunks_concatenates_to_gather(self):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=50)
        fill_reference(store, 333)
        parts = list(store.iter_chunks())
        assert store.sealed_chunks == 6
        assert len(parts) == 7  # 6 sealed + active prefix
        for i, whole in enumerate(store.gather()):
            np.testing.assert_array_equal(
                np.concatenate([p[i] for p in parts]), whole
            )

    def test_scalar_broadcast_batches(self):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8)
        store.append_batch(20, np.arange(20), 2.5, True)
        a, b, flag = store.gather()
        np.testing.assert_array_equal(a, np.arange(20))
        np.testing.assert_array_equal(b, np.full(20, 2.5))
        assert flag.all()

    def test_column_subset_reads(self):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=16)
        a, _, flag = fill_reference(store, 100)
        got_a, got_flag = store.gather(("a", "flag"))
        np.testing.assert_array_equal(got_a, a)
        np.testing.assert_array_equal(got_flag, flag)
        for part in store.iter_chunks(("flag",)):
            assert len(part) == 1

    def test_empty_store(self):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=4)
        assert len(store) == 0
        assert list(store.iter_chunks()) == []
        a, b, flag = store.gather()
        assert a.shape == b.shape == flag.shape == (0,)
        assert a.dtype == np.int64 and flag.dtype == np.bool_

    def test_sealed_chunks_are_immutable(self):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=4)
        fill_reference(store, 12)
        first = next(iter(store.iter_chunks()))
        with pytest.raises(ValueError):
            first[0][0] = 99

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkedColumnStore(SCHEMA, chunk_rows=0)
        with pytest.raises(ValueError):
            ChunkedColumnStore(())


class TestSpill:
    def test_spill_round_trip_is_byte_identical(self):
        mem = ChunkedColumnStore(SCHEMA, chunk_rows=32)
        disk = ChunkedColumnStore(SCHEMA, chunk_rows=32, spill=True)
        fill_reference(mem, 300, seed=7)
        fill_reference(disk, 300, seed=7)
        assert disk.spilled_chunks == disk.sealed_chunks > 0
        assert mem.spilled_chunks == 0
        for m, d in zip(mem.gather(), disk.gather()):
            assert m.tobytes() == d.tobytes()

    def test_spill_ring_files_exist_and_close_removes_them(self):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        fill_reference(store, 50)
        ring = store._spill_dir
        assert ring is not None and ring.is_dir()
        files = sorted(ring.glob("chunk-*.npz"))
        assert len(files) == store.sealed_chunks
        store.close()
        assert not ring.exists()
        # close() is idempotent and the store remains usable afterwards —
        # including appends past a *seal*, which must recreate the ring.
        store.close()
        assert len(store) == 0
        store.append_batch(20, np.arange(20), 1.0, True)
        assert store.spilled_chunks == 2
        np.testing.assert_array_equal(store.gather(("a",))[0], np.arange(20))
        store.close()

    def test_spill_ring_removed_on_gc(self):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        fill_reference(store, 50)
        ring = Path(store._spill_dir)
        del store
        gc.collect()
        assert not ring.exists()

    @pytest.mark.parametrize("spill", [True, False])
    def test_before_spill_sees_each_full_chunk_in_memory(self, spill, monkeypatch):
        """The hook runs once per chunk about to go to disk, when the
        store already holds the chunk's rows and none of it is on disk;
        a store that does not spill never calls it."""
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=spill)
        seen: list[tuple[int, int]] = []
        store.before_spill(lambda: seen.append((len(store), store.spilled_chunks)))
        fill_reference(store, 50)
        reads = []
        monkeypatch.setattr(chunked, "_read_chunk", lambda *a: reads.append(a))
        if spill:
            assert seen == [(8 * k, k - 1) for k in range(1, 7)]
            assert store.spilled_chunks == 6
        else:
            assert seen == []
        assert reads == []
        store.close()

    def test_streaming_read_interleaved_with_appends(self):
        """Chunks sealed so far stream correctly while the store grows."""
        store = ChunkedColumnStore(SCHEMA, chunk_rows=10, spill=True)
        store.append_batch(25, np.arange(25), 0.5, False)
        seen = [p[0].copy() for p in store.iter_chunks(("a",))]
        store.append_batch(25, np.arange(25, 50), 0.5, False)
        np.testing.assert_array_equal(np.concatenate(seen), np.arange(25))
        np.testing.assert_array_equal(store.gather(("a",))[0], np.arange(50))


class TestSpillFaults:
    """Injected failing-filesystem shims: bounded retry, typed errors."""

    @pytest.fixture(autouse=True)
    def _fast_backoff(self, monkeypatch):
        monkeypatch.setattr(chunked, "_SPILL_BACKOFF_S", 0.0)

    def test_persistent_write_failure_is_typed_after_retries(self, monkeypatch):
        calls = []

        def enospc(path, **arrays):
            calls.append(path)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(chunked, "_SAVEZ", enospc)
        store = ChunkedColumnStore(SCHEMA, chunk_rows=4, spill=True)
        with pytest.raises(SpillError) as info:
            store.append_batch(8, np.arange(8), 0.0, False)
        assert len(calls) == chunked._SPILL_ATTEMPTS
        assert info.value.chunk_id == 0
        assert info.value.path.name == "chunk-000000.npz"
        assert "No space left" in str(info.value)

    def test_transient_write_failure_heals_within_retry_budget(self, monkeypatch):
        real = np.savez
        failures = iter([True, True])  # first two attempts fail

        def flaky(path, **arrays):
            if next(failures, False):
                raise OSError(4, "Interrupted system call")
            real(path, **arrays)

        monkeypatch.setattr(chunked, "_SAVEZ", flaky)
        store = ChunkedColumnStore(SCHEMA, chunk_rows=4, spill=True)
        store.append_batch(8, np.arange(8), 0.5, True)
        assert store.spilled_chunks == 2
        np.testing.assert_array_equal(store.gather(("a",))[0], np.arange(8))

    def test_corrupt_chunk_read_fails_immediately(self, monkeypatch):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=4, spill=True)
        store.append_batch(8, np.arange(8), 0.5, True)
        calls = []

        def corrupt(path, **kwargs):
            calls.append(path)
            raise zipfile.BadZipFile("truncated central directory")

        monkeypatch.setattr(chunked, "_LOAD", corrupt)
        with pytest.raises(SpillError, match="corrupt") as info:
            store.gather()
        assert len(calls) == 1  # corruption never retries
        assert info.value.chunk_id == 0

    def test_truncated_chunk_file_names_the_file(self):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=4, spill=True)
        store.append_batch(8, np.arange(8), 0.5, True)
        victim = sorted(store._spill_dir.glob("chunk-*.npz"))[1]
        victim.write_bytes(b"\x00" * 16)
        with pytest.raises(SpillError) as info:
            store.gather()
        assert info.value.path == victim
        assert info.value.chunk_id == 1

    def test_transient_read_failure_heals(self, monkeypatch):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=4, spill=True)
        store.append_batch(8, np.arange(8), 0.5, True)
        real = np.load
        failures = iter([True])

        def flaky(path, **kwargs):
            if next(failures, False):
                raise OSError(4, "Interrupted system call")
            return real(path, **kwargs)

        monkeypatch.setattr(chunked, "_LOAD", flaky)
        np.testing.assert_array_equal(store.gather(("a",))[0], np.arange(8))
