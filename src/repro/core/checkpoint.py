"""Versioned, atomic checkpoint save/restore for full engine state.

A checkpoint is a **directory**, not a file::

    <name>/
        MANIFEST.json     version, code/config fingerprints, run metadata
        state.pkl         the pickled object graph (DES heap, RNG streams,
                          tables, queues, monitors, metrics, logs)
        chunks/           spilled log chunks, copied file-to-file

The pickled graph is the *live system object* — every pending
:class:`~repro.des.event.Event` serializes its action (a
``functools.partial`` of a bound method) by reference within the graph,
so scheduled publications, queue-service completions and dynamics
interventions all survive without a registry of callback names.  Spilled
log chunks travel as files through :func:`repro.core.chunked.spill_transfer`
rather than being inlined into the pickle, so checkpointing a
bounded-memory run stays bounded-memory.

Atomicity: the directory is assembled under a dot-prefixed temp name in
the same parent and published with ``os.rename``; a crash mid-save
leaves at most a temp directory (and, mid-overwrite, the previous
snapshot under a dot-prefixed ``.old-*`` name) that the next save of
that snapshot sweeps away or restores, never a half-written checkpoint
that :func:`latest_checkpoint` could pick up.

Compatibility policy (version 1): a snapshot binds to the exact code
tree (sha256 over the package's ``*.py`` files) and to caller-supplied
fingerprints (the run's config).  Loading refuses a version or
fingerprint mismatch with :class:`CheckpointMismatch` — resumption is
only provably byte-identical under the same decisions, so anything else
is an error, not a warning.  ``allow_code_mismatch=True`` exists for
debugging archaeology only.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.core.chunked import spill_transfer

#: Bump when the on-disk layout or pickled-state contract changes in a
#: way old readers cannot interpret.  Policy: no cross-version loading —
#: a checkpoint is a resume token for one code tree, not an archive
#: format (see README "Crash safety & resume").
CHECKPOINT_VERSION = 1

_MANIFEST = "MANIFEST.json"
_STATE = "state.pkl"
_CHUNKS = "chunks"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or read."""


class CheckpointMismatch(CheckpointError):
    """The snapshot exists but belongs to different code or config."""


# ---------------------------------------------------------------------- #
# Code fingerprint.
# ---------------------------------------------------------------------- #
_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """sha256 over the ``repro`` package's source tree (paths + bytes).

    Memoized for the process lifetime: the tree cannot change under a
    running simulation, and checkpoint cadence can be tight.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        root = Path(__file__).resolve().parents[1]
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\x00")
            h.update(path.read_bytes())
            h.update(b"\x00")
        _CODE_FINGERPRINT = h.hexdigest()
    return _CODE_FINGERPRINT


# ---------------------------------------------------------------------- #
# Save / load.
# ---------------------------------------------------------------------- #
def _fsync_tree(root: Path) -> None:
    """fsync every file then the directories, so the rename that follows
    publishes fully durable contents."""
    for path in sorted(root.rglob("*")):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    for path in [root, *sorted(p for p in root.rglob("*") if p.is_dir())]:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _sweep_stale(parent: Path, name: str) -> None:
    """Clean up after crashed writers of this snapshot.

    Temp directories go.  An ``.old-*`` directory is the previous
    snapshot, renamed away by an overwrite that crashed around publishing
    its successor: with the snapshot in place it is a leftover and goes
    too; with the snapshot missing it is the newest complete state there
    is, and is renamed back.
    """
    for stale in parent.glob(f".{name}.tmp-*"):
        shutil.rmtree(stale, ignore_errors=True)
    for old in sorted(parent.glob(f".{name}.old-*")):
        if (parent / name).exists():
            shutil.rmtree(old, ignore_errors=True)
        else:
            os.rename(old, parent / name)


def save_checkpoint(
    state: Any,
    path: Path | str,
    *,
    fingerprints: dict[str, str] | None = None,
    meta: dict[str, Any] | None = None,
    overwrite: bool = False,
) -> Path:
    """Write ``state`` as an atomic checkpoint directory at ``path``.

    Returns the final path.  ``fingerprints`` are opaque caller identities
    (e.g. the config fingerprint) that :func:`load_checkpoint` will demand
    back verbatim; ``meta`` is informational (surfaced in the manifest for
    humans and smoke tests, never verified).
    """
    path = Path(path)
    parent = path.parent
    parent.mkdir(parents=True, exist_ok=True)
    _sweep_stale(parent, path.name)
    if path.exists() and not overwrite:
        raise CheckpointError(f"checkpoint already exists: {path}")
    tmp = parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        tmp.mkdir(parents=True)
        chunks_dir = tmp / _CHUNKS
        chunks_dir.mkdir()
        with open(tmp / _STATE, "wb") as fh:
            with spill_transfer(chunks_dir):
                pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
        chunk_files = sorted(
            str(p.relative_to(chunks_dir)) for p in chunks_dir.rglob("*.npz")
        )
        manifest = {
            "version": CHECKPOINT_VERSION,
            "code": code_fingerprint(),
            "fingerprints": dict(fingerprints or {}),
            "meta": dict(meta or {}),
            "chunks": chunk_files,
        }
        (tmp / _MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True))
        _fsync_tree(tmp)
        if path.exists():
            # Rename the old snapshot away first: the target of os.rename
            # must not exist for directories.
            old = parent / f".{path.name}.old-{os.getpid()}"
            os.rename(path, old)
            os.rename(tmp, path)
            shutil.rmtree(old, ignore_errors=True)
        else:
            os.rename(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


def read_manifest(path: Path | str) -> dict:
    """Parse a checkpoint's manifest (no state load, no verification)."""
    path = Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise CheckpointError(f"not a checkpoint directory: {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"malformed checkpoint manifest: {manifest_path}")
    return manifest


def load_checkpoint(
    path: Path | str,
    *,
    fingerprints: dict[str, str] | None = None,
    allow_code_mismatch: bool = False,
) -> tuple[Any, dict]:
    """Verify and restore a checkpoint; returns ``(state, manifest)``.

    Every key in ``fingerprints`` must match the manifest exactly; the
    snapshot version and code fingerprint are always checked (the latter
    bypassable with ``allow_code_mismatch`` for debugging only).
    """
    path = Path(path)
    manifest = read_manifest(path)
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointMismatch(
            f"checkpoint {path} has version {version!r}; this build reads "
            f"version {CHECKPOINT_VERSION} only (no cross-version resume)"
        )
    code = manifest.get("code")
    if code != code_fingerprint() and not allow_code_mismatch:
        raise CheckpointMismatch(
            f"checkpoint {path} was written by a different code tree "
            f"({str(code)[:12]}… vs {code_fingerprint()[:12]}…); resume "
            "identity is only guaranteed on the same tree "
            "(allow_code_mismatch=True to override for debugging)"
        )
    saved = manifest.get("fingerprints") or {}
    for key, expected in (fingerprints or {}).items():
        if saved.get(key) != expected:
            raise CheckpointMismatch(
                f"checkpoint {path} fingerprint {key!r} mismatch: "
                f"snapshot has {saved.get(key)!r}, caller expects {expected!r}"
            )
    try:
        with open(path / _STATE, "rb") as fh:
            with spill_transfer(path / _CHUNKS):
                state = pickle.load(fh)
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint state {path}: {exc}") from exc
    return state, manifest


def latest_checkpoint(directory: Path | str) -> Path | None:
    """Newest valid snapshot under a checkpoint root (``None`` if none).

    Snapshots are named so lexicographic order is execution order
    (``ckpt-{executed:012d}``); temp/old directories are dot-prefixed and
    skipped by the glob, and a snapshot without a readable manifest is
    ignored rather than trusted.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    best: Path | None = None
    for cand in sorted(directory.glob("ckpt-*"), reverse=True):
        if not cand.is_dir():
            continue
        try:
            read_manifest(cand)
        except CheckpointError:
            continue
        best = cand
        break
    return best


def checkpoint_size_bytes(path: Path | str) -> int:
    """Total on-disk size of one snapshot directory."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def timed_save(
    state: Any,
    path: Path | str,
    **kwargs: Any,
) -> tuple[Path, float, int]:
    """:func:`save_checkpoint` plus ``(path, seconds, bytes)`` accounting
    for the bench guard and run stats."""
    t0 = perf_counter()  # repro-lint: ignore[RL001] -- snapshot write-cost stat, decision-neutral
    out = save_checkpoint(state, path, **kwargs)
    # repro-lint: ignore[RL001] -- snapshot write-cost stat, decision-neutral
    return out, perf_counter() - t0, checkpoint_size_bytes(out)
