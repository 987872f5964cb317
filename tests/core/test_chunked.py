"""ChunkedColumnStore: sealing, spill round-trips, streaming reads."""

from __future__ import annotations

import collections
import gc
import tracemalloc
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

    def test_streaming_holds_one_spilled_chunk_at_a_time(self):
        """A reader that drops each chunk before asking for the next holds
        one chunk's columns (and a file buffer), never two."""
        store = ChunkedColumnStore(SCHEMA, chunk_rows=4_096, spill=True)
        store.append_batch(8 * 4_096, np.arange(8 * 4_096), 0.5, True)
        chunk_bytes = 4_096 * sum(np.dtype(dtype).itemsize for _, dtype in SCHEMA)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            collections.deque(store.iter_chunks(), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= chunk_bytes + 16 * 1024
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
        real = chunked._LOAD
        failures = iter([True])

        def flaky(path, **kwargs):
            if next(failures, False):
                raise OSError(4, "Interrupted system call")
            return real(path, **kwargs)

        monkeypatch.setattr(chunked, "_LOAD", flaky)
        np.testing.assert_array_equal(store.gather(("a",))[0], np.arange(8))

    @staticmethod
    def _spilled(n: int = 8) -> tuple[ChunkedColumnStore, Path]:
        """A store of two spilled chunks and the second one's file."""
        store = ChunkedColumnStore(SCHEMA, chunk_rows=n // 2, spill=True)
        store.append_batch(n, np.arange(n), np.linspace(0.0, 1.0, n), True)
        return store, sorted(store._spill_dir.glob("chunk-*.npz"))[1]

    @staticmethod
    def _flip(path: Path, offset: int) -> None:
        data = bytearray(path.read_bytes())
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))

    def _assert_names_chunk_1(self, store: ChunkedColumnStore, victim: Path) -> None:
        with pytest.raises(SpillError) as info:
            store.gather()
        assert info.value.path == victim
        assert info.value.chunk_id == 1

    def test_flipped_data_byte_fails_the_crc(self):
        store, victim = self._spilled()
        b = store.gather(("b",))[0][4:]
        self._flip(victim, victim.read_bytes().index(b.tobytes()) + b.nbytes - 1)
        self._assert_names_chunk_1(store, victim)

    def test_flipped_npy_header_byte_fails_the_crc(self):
        store, victim = self._spilled()
        data = victim.read_bytes()
        header = data.index(b"'descr'", data.index(b"a.npy"))
        self._flip(victim, header + 1)
        self._assert_names_chunk_1(store, victim)

    def test_file_one_byte_short_fails_the_size_check(self):
        store, victim = self._spilled()
        victim.write_bytes(victim.read_bytes()[:-1])
        self._assert_names_chunk_1(store, victim)

    def test_ring_files_stay_plain_npz(self):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=16, spill=True)
        fill_reference(store, 100)
        files = sorted(store._spill_dir.iterdir())
        assert [f.name for f in files] == [f"chunk-{k:06d}.npz" for k in range(6)]
        for f, mine in zip(files, store.iter_chunks()):
            with np.load(f, allow_pickle=False) as npz:
                assert npz.files == list(store.names)
                for name, col in zip(store.names, mine):
                    assert npz[name].dtype == col.dtype
                    assert npz[name].tobytes() == col.tobytes()
        store.close()

    def test_spilled_reads_open_no_zipfile(self, monkeypatch):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=16, spill=True)
        a, b, flag = fill_reference(store, 100)
        opened = []
        real = zipfile.ZipFile

        def counting(*args, **kwargs):
            opened.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(zipfile, "ZipFile", counting)
        got = store.gather()
        assert opened == []
        for want, have in zip((a, b, flag), got):
            np.testing.assert_array_equal(have, want)
        store.close()

    def test_ring_never_writes_through_an_existing_path(self):
        """A chunk file may be shared, as a hard link, with a snapshot: the
        ring refuses to write a chunk over a file already at its path."""
        store = ChunkedColumnStore(SCHEMA, chunk_rows=4, spill=True)
        store.append_batch(4, np.arange(4), 0.5, True)
        shared = store._spill_dir / "chunk-000001.npz"
        shared.write_bytes(b"a snapshot's bytes")
        with pytest.raises(SpillError, match="refusing") as info:  # at once, not retried
            store.append_batch(4, np.arange(4), 0.5, True)
        assert info.value.chunk_id == 1
        assert shared.read_bytes() == b"a snapshot's bytes"
