"""core.checkpoint: atomic directory snapshots, manifests, refusal rules."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.core import checkpoint as ck
from repro.core.chunked import ChunkedColumnStore, SpillError
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointMismatch,
    checkpoint_size_bytes,
    code_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
    timed_save,
)

SCHEMA = (("a", np.int64), ("b", np.float64))


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
