"""core.checkpoint: atomic directory snapshots, manifests, refusal rules."""

from __future__ import annotations

import errno
import gc
import json
import pickle

import numpy as np
import pytest

from repro.core import checkpoint as ck
from repro.core import chunked
from repro.core.chunked import ChunkedColumnStore, SpillError
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointMismatch,
    arithmetic_fingerprint,
    checkpoint_size_bytes,
    code_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
    timed_save,
)

SCHEMA = (("a", np.int64), ("b", np.float64))


class GcProbe:
    """Records whether cyclic GC was enabled when it was unpickled."""

    seen: list[bool] = []

    def __reduce__(self):
        return GcProbe._restore, ()

    @staticmethod
    def _restore() -> "GcProbe":
        GcProbe.seen.append(gc.isenabled())
        return GcProbe()


def rewrite_manifest(path, **changes) -> None:
    manifest = json.loads((path / "MANIFEST.json").read_text())
    manifest.update(changes)
    (path / "MANIFEST.json").write_text(json.dumps(manifest))


def fill(store: ChunkedColumnStore, n: int) -> np.ndarray:
    values = np.arange(n, dtype=np.int64)
    store.append_batch(n, values, values * 0.5)
    return values


class TestSaveLoadRoundTrip:
    def test_plain_state_round_trips(self, tmp_path):
        state = {"answer": 42, "arr": np.arange(5), "nested": [1, {"k": "v"}]}
        path = save_checkpoint(
            state, tmp_path / "ckpt-000000000001",
            fingerprints={"config": "abc"}, meta={"note": "hello"},
        )
        assert path == tmp_path / "ckpt-000000000001"
        loaded, manifest = load_checkpoint(path, fingerprints={"config": "abc"})
        assert loaded["answer"] == 42
        np.testing.assert_array_equal(loaded["arr"], state["arr"])
        assert loaded["nested"] == state["nested"]
        assert manifest["version"] == CHECKPOINT_VERSION
        assert manifest["code"] == code_fingerprint()
        assert manifest["fingerprints"] == {"config": "abc"}
        assert manifest["meta"] == {"note": "hello"}
        assert manifest["chunks"] == []

    def test_layout_on_disk(self, tmp_path):
        path = save_checkpoint({"x": 1}, tmp_path / "ckpt-a")
        assert (path / "MANIFEST.json").is_file()
        assert (path / "state.pkl").is_file()
        assert (path / "chunks").is_dir()
        # No temp residue anywhere in the parent.
        assert not list(tmp_path.glob(".*"))

    def test_refuses_overwrite_unless_asked(self, tmp_path):
        target = tmp_path / "ckpt-a"
        save_checkpoint({"v": 1}, target)
        with pytest.raises(CheckpointError):
            save_checkpoint({"v": 2}, target)
        save_checkpoint({"v": 2}, target, overwrite=True)
        state, _ = load_checkpoint(target)
        assert state == {"v": 2}
        assert not list(tmp_path.glob(".*"))  # old snapshot fully reaped

    def test_failed_save_leaves_no_residue(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            save_checkpoint({"bad": Unpicklable()}, tmp_path / "ckpt-a")
        assert not list(tmp_path.iterdir())

    def test_stale_tmp_from_crashed_writer_is_swept(self, tmp_path):
        stale = tmp_path / ".ckpt-a.tmp-99999"
        stale.mkdir()
        (stale / "state.pkl").write_bytes(b"junk")
        save_checkpoint({"v": 1}, tmp_path / "ckpt-a")
        assert not stale.exists()

    def _interrupted_overwrite(self, tmp_path, monkeypatch, *, published: bool):
        """Overwrite ckpt-a {"v": 1} with {"v": 2} in a process that dies
        either between the two renames or right after them (``published``),
        so it never reaps anything."""
        target = tmp_path / "ckpt-a"
        save_checkpoint({"v": 1}, target)
        real_rename = ck.os.rename

        def rename(src, dst):
            if not published and dst == target:
                raise KeyboardInterrupt
            real_rename(src, dst)

        monkeypatch.setattr(ck.os, "rename", rename)
        monkeypatch.setattr(ck.shutil, "rmtree", lambda *args, **kwargs: None)
        if published:
            save_checkpoint({"v": 2}, target, overwrite=True)
        else:
            with pytest.raises(KeyboardInterrupt):
                save_checkpoint({"v": 2}, target, overwrite=True)
        monkeypatch.undo()
        assert list(tmp_path.glob(".ckpt-a.old-*"))
        return target

    def test_old_snapshot_stranded_by_a_crashed_overwrite_is_restored(
        self, tmp_path, monkeypatch
    ):
        target = self._interrupted_overwrite(tmp_path, monkeypatch, published=False)
        assert not target.exists()
        assert latest_checkpoint(tmp_path) is None  # dot-names are skipped
        with pytest.raises(CheckpointError):  # restored first, so it "already exists"
            save_checkpoint({"v": 3}, target)
        assert load_checkpoint(target)[0] == {"v": 1}
        assert not list(tmp_path.glob(".*"))

    def test_old_snapshot_left_behind_a_published_overwrite_is_swept(
        self, tmp_path, monkeypatch
    ):
        target = self._interrupted_overwrite(tmp_path, monkeypatch, published=True)
        assert load_checkpoint(target)[0] == {"v": 2}
        save_checkpoint({"v": 3}, target, overwrite=True)
        assert load_checkpoint(target)[0] == {"v": 3}
        assert not list(tmp_path.glob(".*"))

    def test_timed_save_accounting(self, tmp_path):
        path, seconds, size = timed_save({"v": 1}, tmp_path / "ckpt-a")
        assert path.is_dir()
        assert seconds >= 0.0
        assert size == checkpoint_size_bytes(path) > 0


class TestRefusalRules:
    def test_version_mismatch_refused(self, tmp_path):
        path = save_checkpoint({"v": 1}, tmp_path / "ckpt-a")
        manifest = json.loads((path / "MANIFEST.json").read_text())
        manifest["version"] = CHECKPOINT_VERSION + 1
        (path / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointMismatch, match="no cross-version"):
            load_checkpoint(path)

    def test_code_mismatch_refused_unless_overridden(self, tmp_path):
        path = save_checkpoint({"v": 1}, tmp_path / "ckpt-a")
        manifest = json.loads((path / "MANIFEST.json").read_text())
        manifest["code"] = "f" * 64
        (path / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointMismatch, match="different code tree"):
            load_checkpoint(path)
        state, _ = load_checkpoint(path, allow_code_mismatch=True)
        assert state == {"v": 1}

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = save_checkpoint(
            {"v": 1}, tmp_path / "ckpt-a", fingerprints={"config": "abc"}
        )
        with pytest.raises(CheckpointMismatch, match="config"):
            load_checkpoint(path, fingerprints={"config": "xyz"})
        # A key absent from the snapshot is also a mismatch, not a pass.
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path, fingerprints={"other": "abc"})

    def test_not_a_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_manifest(tmp_path)
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing")

    def test_corrupt_manifest(self, tmp_path):
        path = save_checkpoint({"v": 1}, tmp_path / "ckpt-a")
        (path / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            read_manifest(path)
        (path / "MANIFEST.json").write_text('["a", "list"]')
        with pytest.raises(CheckpointError, match="malformed"):
            read_manifest(path)


class TestCorruptState:
    """A damaged ``state.pkl`` is a CheckpointError naming the file, never
    a raw pickle error."""

    def _saved(self, tmp_path):
        state = {"arr": np.arange(2_000), "names": [f"S{i}" for i in range(200)]}
        return save_checkpoint(state, tmp_path / "ckpt-a")

    def test_manifest_records_the_state_size(self, tmp_path):
        path = self._saved(tmp_path)
        assert read_manifest(path)["state_bytes"] == (path / "state.pkl").stat().st_size

    def test_truncated_state_refused(self, tmp_path):
        path = self._saved(tmp_path)
        data = (path / "state.pkl").read_bytes()
        (path / "state.pkl").write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="state.pkl.*truncated"):
            load_checkpoint(path)

    def test_zero_length_state_refused(self, tmp_path):
        path = self._saved(tmp_path)
        (path / "state.pkl").write_bytes(b"")
        with pytest.raises(CheckpointError, match="state.pkl has 0 bytes"):
            load_checkpoint(path)

    def test_wrong_size_state_refused(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path / "state.pkl", "ab") as fh:
            fh.write(b"\x00" * 7)
        with pytest.raises(CheckpointError, match="state.pkl"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [0, 1, 0.5])
    def test_unpickle_errors_become_checkpoint_errors(self, tmp_path, cut):
        # The size agrees with the manifest, so the unpickle itself fails:
        # EOFError (empty), UnpicklingError (truncated mid-stream).
        path = self._saved(tmp_path)
        data = (path / "state.pkl").read_bytes()
        data = data[: int(cut * len(data)) if isinstance(cut, float) else cut]
        (path / "state.pkl").write_bytes(data)
        rewrite_manifest(path, state_bytes=len(data))
        with pytest.raises(CheckpointError, match="corrupt checkpoint state .*state.pkl") as err:
            load_checkpoint(path)
        assert isinstance(err.value.__cause__, (pickle.UnpicklingError, EOFError))

    def test_missing_class_becomes_a_checkpoint_error(self, tmp_path, monkeypatch):
        path = save_checkpoint({"probe": GcProbe()}, tmp_path / "ckpt-a")
        monkeypatch.delattr(GcProbe, "_restore")
        with pytest.raises(CheckpointError, match="state.pkl") as err:
            load_checkpoint(path)
        assert isinstance(err.value.__cause__, AttributeError)


class TestCollectorPausedForTheUnpickle:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_paused_during_load_and_restored_after(self, tmp_path, enabled):
        path = save_checkpoint({"probe": GcProbe()}, tmp_path / "ckpt-a")
        GcProbe.seen.clear()
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            state, _ = load_checkpoint(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert isinstance(state["probe"], GcProbe)
        assert GcProbe.seen == [False]

    def test_gc_restored_after_a_failed_load(self, tmp_path):
        path = save_checkpoint({"v": 1}, tmp_path / "ckpt-a")
        (path / "state.pkl").write_bytes(b"\x80")
        rewrite_manifest(path, state_bytes=1)
        assert gc.isenabled()
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert gc.isenabled()


class TestArithmeticFingerprint:
    def test_recorded_and_memoized(self, tmp_path, monkeypatch):
        first = arithmetic_fingerprint()
        assert first["numpy"] == np.__version__
        assert first["blas"] and len(first["probes"]) == 64
        monkeypatch.setattr(ck, "_ARITHMETIC_FINGERPRINT", None)
        assert arithmetic_fingerprint() == first
        path = save_checkpoint({"v": 1}, tmp_path / "ckpt-a")
        assert read_manifest(path)["arithmetic"] == first

    @pytest.mark.parametrize("key", ["numpy", "blas", "probes"])
    def test_mismatch_refused_unless_overridden(self, tmp_path, key):
        path = save_checkpoint({"v": 1}, tmp_path / "ckpt-a")
        rewrite_manifest(path, arithmetic={**arithmetic_fingerprint(), key: "other"})
        with pytest.raises(CheckpointMismatch, match="arithmetic"):
            load_checkpoint(path)
        state, _ = load_checkpoint(path, allow_code_mismatch=True)
        assert state == {"v": 1}

    def test_missing_record_refused(self, tmp_path):
        path = save_checkpoint({"v": 1}, tmp_path / "ckpt-a")
        manifest = json.loads((path / "MANIFEST.json").read_text())
        del manifest["arithmetic"]
        (path / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointMismatch, match="arithmetic"):
            load_checkpoint(path)


class TestLatestCheckpoint:
    def test_none_for_missing_or_empty(self, tmp_path):
        assert latest_checkpoint(tmp_path / "absent") is None
        assert latest_checkpoint(tmp_path) is None

    def test_picks_newest_by_name(self, tmp_path):
        save_checkpoint({"v": 1}, tmp_path / "ckpt-000000000100")
        save_checkpoint({"v": 2}, tmp_path / "ckpt-000000000200")
        assert latest_checkpoint(tmp_path) == tmp_path / "ckpt-000000000200"

    def test_skips_invalid_snapshots(self, tmp_path):
        save_checkpoint({"v": 1}, tmp_path / "ckpt-000000000100")
        broken = tmp_path / "ckpt-000000000900"
        broken.mkdir()  # no manifest: must not be trusted
        assert latest_checkpoint(tmp_path) == tmp_path / "ckpt-000000000100"


class TestSpilledStoreTransfer:
    """Spilled chunks ride as files in chunks/, not inlined pickle bytes."""

    def test_spilled_store_round_trips_through_checkpoint(self, tmp_path):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        values = fill(store, 50)
        assert store.spilled_chunks > 0
        path = save_checkpoint({"store": store}, tmp_path / "ckpt-a")
        manifest = read_manifest(path)
        assert len(manifest["chunks"]) == store.spilled_chunks
        assert all(ref.endswith(".npz") for ref in manifest["chunks"])
        loaded, _ = load_checkpoint(path)
        restored = loaded["store"]
        assert restored.spilled_chunks == store.spilled_chunks
        np.testing.assert_array_equal(restored.gather(("a",))[0], values)

    def test_restored_store_is_independent_of_checkpoint_dir(self, tmp_path):
        import shutil

        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        values = fill(store, 40)
        path = save_checkpoint({"store": store}, tmp_path / "ckpt-a")
        restored, _ = load_checkpoint(path)
        shutil.rmtree(path)  # the snapshot must not be a live dependency
        np.testing.assert_array_equal(restored["store"].gather(("a",))[0], values)

    def test_memory_store_pickles_without_transfer(self, tmp_path):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8)
        values = fill(store, 40)
        clone = pickle.loads(pickle.dumps(store))
        np.testing.assert_array_equal(clone.gather(("a",))[0], values)

    def test_spilled_store_refuses_plain_pickle_restore_without_ring(self):
        # Outside a checkpoint, spilled chunks are inlined into the pickle
        # ("mem" encoding) so a plain pickle round trip still works.
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        values = fill(store, 40)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.spilled_chunks == store.spilled_chunks
        np.testing.assert_array_equal(clone.gather(("a",))[0], values)

    def test_ref_restore_outside_transfer_is_a_typed_error(self, tmp_path):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        fill(store, 40)
        path = save_checkpoint({"store": store}, tmp_path / "ckpt-a")
        # Unpickling state.pkl directly (no spill_transfer context) must
        # fail with the typed SpillError, not a random FileNotFoundError.
        with pytest.raises(SpillError):
            with open(path / "state.pkl", "rb") as fh:
                pickle.load(fh)


class TestChunkFiles:
    """Snapshot chunk files are hard links to the ring's (copies where the
    filesystem refuses a link), sized in the manifest and checked at load."""

    @staticmethod
    def _ring(store: ChunkedColumnStore) -> dict[str, Path]:
        return {f.name: f for f in store._spill_dir.glob("chunk-*.npz")}

    @staticmethod
    def _snapshot(path) -> dict[str, Path]:
        return {f.name: f for f in (path / "chunks").rglob("chunk-*.npz")}

    def test_manifest_records_each_chunk_size(self, tmp_path):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        fill(store, 50)
        path = save_checkpoint({"store": store}, tmp_path / "ckpt-a")
        sizes = read_manifest(path)["chunk_bytes"]
        assert sorted(sizes) == read_manifest(path)["chunks"]
        assert sizes == {
            rel: (path / "chunks" / rel).stat().st_size for rel in sizes
        }

    @pytest.mark.parametrize("damage", ["missing", "short"])
    def test_missing_or_short_chunk_refused_at_load(self, tmp_path, damage):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        fill(store, 50)
        path = save_checkpoint({"store": store}, tmp_path / "ckpt-a")
        store.close()
        victim = sorted(self._snapshot(path).values())[2]
        if damage == "missing":
            victim.unlink()
        else:
            victim.write_bytes(victim.read_bytes()[:-1])
        with pytest.raises(CheckpointError, match=f"chunk .*{victim.name}"):
            load_checkpoint(path)

    def test_snapshot_links_the_ring_files(self, tmp_path):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        values = fill(store, 50)
        path = save_checkpoint({"store": store}, tmp_path / "ckpt-a")
        ring, snap = self._ring(store), self._snapshot(path)
        assert sorted(snap) == sorted(ring)
        for name, f in snap.items():
            assert f.stat().st_ino == ring[name].stat().st_ino
        restored = load_checkpoint(path)[0]["store"]
        for name, f in self._ring(restored).items():
            assert f.stat().st_ino == snap[name].stat().st_ino
            assert f.stat().st_nlink == 3  # the ring, the snapshot, the resumed ring
        np.testing.assert_array_equal(restored.gather(("a",))[0], values)

    def test_restored_chunks_have_numpys_own_dtypes(self, tmp_path):
        # An unpickled dtype is a copy, and np.add.at over a column of one
        # takes a slow path: spilled and active chunks of a restored store
        # read back with numpy's own instances.
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        fill(store, 20)
        path = save_checkpoint({"store": store}, tmp_path / "ckpt-a")
        restored = load_checkpoint(path)[0]["store"]
        restored.append_batch(10, np.arange(10), 0.0)
        chunks = list(restored.iter_chunks())
        assert len(chunks) == 4
        for chunk in chunks:
            assert [c.dtype is np.dtype(c.dtype.str) for c in chunk] == [True, True]

    def test_refused_link_falls_back_to_a_copy(self, tmp_path, monkeypatch):
        def exdev(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(chunked, "_LINK", exdev)
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        fill(store, 50)
        path = save_checkpoint({"store": store}, tmp_path / "ckpt-a")
        restored = load_checkpoint(path)[0]["store"]
        for f in [*self._snapshot(path).values(), *self._ring(restored).values()]:
            assert f.stat().st_nlink == 1
        for mine, theirs in zip(store.gather(), restored.gather()):
            assert mine.tobytes() == theirs.tobytes()

    def test_transfer_never_places_a_chunk_over_an_existing_file(self, tmp_path):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        fill(store, 20)
        taken = tmp_path / "chunks" / "store-000" / "chunk-000001.npz"
        taken.parent.mkdir(parents=True)
        taken.write_bytes(b"another snapshot's bytes")
        with pytest.raises(SpillError) as info:
            with chunked.spill_transfer(tmp_path / "chunks"):
                pickle.dumps(store)
        assert info.value.path == taken
        assert taken.read_bytes() == b"another snapshot's bytes"

    def test_second_snapshot_shares_the_first_ones_chunks(self, tmp_path):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        fill(store, 30)
        first = save_checkpoint({"store": store}, tmp_path / "ckpt-a")
        store.append_batch(30, np.arange(30), 0.0)
        second = save_checkpoint({"store": store}, tmp_path / "ckpt-b")
        a, b = self._snapshot(first), self._snapshot(second)
        assert set(a) < set(b)
        for name in a:
            assert a[name].stat().st_ino == b[name].stat().st_ino
            assert a[name].stat().st_nlink == 3  # the ring and two snapshots

    def test_chunk_sealed_after_a_snapshot_stays_out_of_it(self, tmp_path):
        store = ChunkedColumnStore(SCHEMA, chunk_rows=8, spill=True)
        fill(store, 30)
        path = save_checkpoint({"store": store}, tmp_path / "ckpt-a")
        before = {name: f.read_bytes() for name, f in self._snapshot(path).items()}
        store.append_batch(30, np.arange(30), 0.0)
        assert len(self._ring(store)) > len(before)
        after = {name: f.read_bytes() for name, f in self._snapshot(path).items()}
        assert after == before
        assert read_manifest(path)["chunks"] == sorted(
            f"store-000/{name}" for name in before
        )


class TestCodeFingerprint:
    def test_stable_and_memoized(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_covers_source_tree(self, monkeypatch):
        # Clearing the memo and recomputing yields the same digest: the
        # fingerprint is a pure function of the on-disk tree.
        first = code_fingerprint()
        monkeypatch.setattr(ck, "_CODE_FINGERPRINT", None)
        assert code_fingerprint() == first
