"""Versioned, atomic checkpoint save/restore for full engine state.

A checkpoint is a **directory**, not a file::

    <name>/
        MANIFEST.json     version, code/config fingerprints, run metadata
        state.pkl         the pickled object graph (DES heap, RNG streams,
                          tables, queues, monitors, metrics, logs)
        chunks/           spilled log chunks: hard links to the run's
                          spill-ring files (copies across filesystems)

The pickled graph is the *live system object* — every pending
:class:`~repro.des.event.Event` serializes its action (a
``functools.partial`` of a bound method) by reference within the graph,
so scheduled publications, queue-service completions and dynamics
interventions all survive without a registry of callback names.  Spilled
log chunks travel as files through :func:`repro.core.chunked.spill_transfer`
rather than being inlined into the pickle, so checkpointing a
bounded-memory run stays bounded-memory.  A chunk file is written once,
when its chunk is sealed, and never rewritten, so the snapshot and the
run share it as one inode (and a resumed run links it back into its
ring): the filesystem's link count is the only reference count.

Atomicity: the directory is assembled under a dot-prefixed temp name in
the same parent and published with ``os.rename``; a crash mid-save
leaves at most a temp directory (and, mid-overwrite, the previous
snapshot under a dot-prefixed ``.old-*`` name) that the next save of
that snapshot sweeps away or restores, never a half-written checkpoint
that :func:`latest_checkpoint` could pick up.

Compatibility policy (version 2): a snapshot binds to the exact code
tree (sha256 over the package's ``*.py`` files), to the arithmetic under
it (numpy version, BLAS, a digest of fixed ``erf``/``dot`` probes) and to
caller-supplied fingerprints (the run's config).  Loading refuses a
version or fingerprint mismatch with :class:`CheckpointMismatch` —
resumption is only provably byte-identical under the same decisions, so
anything else is an error, not a warning.  ``allow_code_mismatch=True``
(code and arithmetic) exists for debugging archaeology only.  The
manifest records the size of ``state.pkl`` and of each chunk file, and
which chunk files are hard links (:func:`checkpoint_size_bytes` counts
only what the save wrote); a missing file, one of another size, or a
state file that does not unpickle is a :class:`CheckpointError` naming it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pickle
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.core.chunked import spill_transfer

#: Bump when the on-disk layout or pickled-state contract changes in a
#: way old readers cannot interpret.  Policy: no cross-version loading —
#: a checkpoint is a resume token for one code tree, not an archive
#: format (see README "Crash safety & resume").  Version 2: chunk stores
#: pickle their run columns (one value an append) beside their rows.
CHECKPOINT_VERSION = 2

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


_ARITHMETIC_FINGERPRINT: dict[str, str] | None = None


def arithmetic_fingerprint() -> dict[str, str]:
    """What a run's floats depend on besides the source tree: the numpy
    version, the BLAS numpy was built against and a sha256 over the bits
    of fixed ``math.erf`` and ``np.dot`` probes.

    Memoized for the process lifetime, like :func:`code_fingerprint`.
    """
    global _ARITHMETIC_FINGERPRINT
    if _ARITHMETIC_FINGERPRINT is None:
        try:
            blas = str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"])
        except (AttributeError, KeyError, TypeError):
            blas = "unknown"
        x = np.linspace(-3.0, 3.0, 97)
        probes = [math.erf(v) for v in x.tolist()]
        probes.append(float(np.dot(x, x[::-1].copy())))
        probes.extend(np.dot(np.outer(x[:24], x[-24:]) + 0.1, x[:24]).tolist())
        digest = hashlib.sha256(" ".join(p.hex() for p in probes).encode()).hexdigest()
        _ARITHMETIC_FINGERPRINT = {"numpy": np.__version__, "blas": blas, "probes": digest}
    return dict(_ARITHMETIC_FINGERPRINT)


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
            with spill_transfer(chunks_dir) as transfer:
                pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
            state_bytes = fh.tell()
        chunk_bytes = {
            str(p.relative_to(chunks_dir)): p.stat().st_size
            for p in sorted(chunks_dir.rglob("*.npz"))
        }
        manifest = {
            "version": CHECKPOINT_VERSION,
            "code": code_fingerprint(),
            "arithmetic": arithmetic_fingerprint(),
            "fingerprints": dict(fingerprints or {}),
            "meta": dict(meta or {}),
            "chunks": sorted(chunk_bytes),
            "chunk_bytes": chunk_bytes,
            "linked": sorted(transfer.linked),
            "state_bytes": state_bytes,
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
    snapshot version and the code and arithmetic fingerprints are always
    checked (the latter two bypassable with ``allow_code_mismatch`` for
    debugging only).  Cyclic garbage collection is paused for the
    unpickle: it allocates a container per restored object, none of them
    garbage, and each collection pass would walk them all again.
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
    arithmetic = manifest.get("arithmetic")
    if arithmetic != arithmetic_fingerprint() and not allow_code_mismatch:
        raise CheckpointMismatch(
            f"checkpoint {path} was written under different arithmetic "
            f"({arithmetic!r} vs {arithmetic_fingerprint()!r}); resume identity "
            "is only guaranteed on the same numpy, BLAS and floating-point results "
            "(allow_code_mismatch=True to override for debugging)"
        )
    saved = manifest.get("fingerprints") or {}
    for key, expected in (fingerprints or {}).items():
        if saved.get(key) != expected:
            raise CheckpointMismatch(
                f"checkpoint {path} fingerprint {key!r} mismatch: "
                f"snapshot has {saved.get(key)!r}, caller expects {expected!r}"
            )
    state_path = path / _STATE
    _check_size(state_path, manifest.get("state_bytes"), "state")
    for rel, chunk_bytes in (manifest.get("chunk_bytes") or {}).items():
        _check_size(path / _CHUNKS / rel, chunk_bytes, "chunk")
    try:
        with open(state_path, "rb") as fh:
            with spill_transfer(path / _CHUNKS):
                collecting = gc.isenabled()
                gc.disable()
                try:
                    state = pickle.load(fh)
                finally:
                    if collecting:
                        gc.enable()
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint state {state_path}: {exc}") from exc
    except (pickle.UnpicklingError, EOFError, AttributeError) as exc:
        raise CheckpointError(f"corrupt checkpoint state {state_path}: {exc}") from exc
    return state, manifest


def _check_size(file: Path, expected: int | None, what: str) -> None:
    """Refuse a snapshot file that is missing or not the size its manifest
    records, naming it."""
    try:
        size = file.stat().st_size
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint {what} {file}: {exc}") from exc
    if expected is not None and size != expected:
        raise CheckpointError(
            f"checkpoint {what} {file} has {size} bytes but its manifest "
            f"records {expected}: truncated or overwritten"
        )


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
    """Bytes the save of one snapshot directory wrote: every file but the
    chunk files it hard-linked (the manifest's ``linked``), whose bytes
    the run's spill ring already held; a chunk copied where the
    filesystem refused the link counts."""
    path = Path(path)
    linked = {path / _CHUNKS / rel for rel in read_manifest(path).get("linked", ())}
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file() and p not in linked)


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
