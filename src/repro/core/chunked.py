"""Chunked columnar storage with optional on-disk spill.

The columnar spine (PR 2/3) made append and reduction fast, but every
row of every run still lived in RAM until process exit — fine at 20k
subscribers, fatal at the roadmap's "millions of users" tier.  This
module decomposes a column set into **fixed-size immutable chunks**:

* the *active* chunk is a set of fixed-capacity
  :class:`~repro.core.growable.GrowableArray` columns (one broadcast or
  slice write per batch, never reallocating);
* a full active chunk is **sealed** — its columns are detached
  (zero-copy, marked read-only) and either kept in memory or, with
  spill enabled, written to a numbered ``.npz`` file in a private temp
  ring and dropped from RAM;
* readers consume :meth:`ChunkedColumnStore.iter_chunks`, a streaming
  pass that materialises **one chunk at a time** (loading only the
  requested columns of spilled chunks), so any associative reduction —
  partial bincounts, ``np.add.at`` into carried accumulators — runs in
  O(chunk) memory over an O(run) log.

Chunk boundaries never reorder rows: concatenating the chunks of a
store reproduces the exact append sequence, which is what makes the
streaming reductions in :mod:`repro.analysis` decision- and
byte-compatible with the old whole-array gathers.
"""

from __future__ import annotations

import shutil
import tempfile
import time
import weakref
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.growable import GrowableArray

#: Default rows per chunk: 64k delivery-log rows x 26 bytes (two int32
#: ids, two float64s, two bools) is a ~1.7 MB working set — big enough to
#: amortise seal overhead, small enough that the active chunk is
#: cache-friendly.
DEFAULT_CHUNK_ROWS = 65_536


# ---------------------------------------------------------------------- #
# Hardened chunk I/O.
# ---------------------------------------------------------------------- #
class SpillError(RuntimeError):
    """A spill-ring chunk could not be written or read back.

    Carries the offending ``path`` and ``chunk_id`` so a failed marathon
    run points straight at the bad file (ENOSPC, truncated/corrupt
    ``.npz``) instead of surfacing a raw numpy/zipfile traceback from
    deep inside a reduction.
    """

    def __init__(self, message: str, *, path: Path | str, chunk_id: int) -> None:
        super().__init__(message)
        self.path = Path(path)
        self.chunk_id = chunk_id


#: Save/load indirections: tests inject failing-filesystem shims here.
_SAVEZ = np.savez
_LOAD = np.load
_COPY = shutil.copy2

#: Bounded retry for transient I/O (EINTR, NFS hiccups).  Attempt ``k``
#: sleeps ``_SPILL_BACKOFF_S * 2**k`` before retrying; persistent errors
#: (ENOSPC never heals in 0.15 s, but the caller gets a typed error
#: naming the file either way) surface as :class:`SpillError`.
_SPILL_ATTEMPTS = 3
_SPILL_BACKOFF_S = 0.05

#: Errors that mean "this chunk is corrupt", not "the fs is flaky" —
#: retrying cannot help, so they convert to SpillError immediately.
_CORRUPT_ERRORS = (ValueError, KeyError, EOFError, zipfile.BadZipFile)


def _chunk_id_of(path: Path) -> int:
    """Chunk ordinal encoded in the ring file name (-1 if foreign)."""
    try:
        return int(Path(path).stem.rsplit("-", 1)[-1])
    except ValueError:
        return -1


def _retrying(op: str, path: Path, fn: Callable[[], Any]) -> Any:
    """Run ``fn`` with bounded retry-with-backoff on OSError; convert
    corrupt-chunk errors immediately and exhausted retries finally into
    :class:`SpillError`."""
    last: OSError | None = None
    for attempt in range(_SPILL_ATTEMPTS):
        try:
            return fn()
        except _CORRUPT_ERRORS as exc:
            raise SpillError(
                f"corrupt spill chunk ({op} {path}): {exc!r}",
                path=path, chunk_id=_chunk_id_of(path),
            ) from exc
        except OSError as exc:
            last = exc
            if attempt + 1 < _SPILL_ATTEMPTS:
                time.sleep(_SPILL_BACKOFF_S * (2 ** attempt))
    raise SpillError(
        f"failed to {op} spill chunk {path} after {_SPILL_ATTEMPTS} "
        f"attempts: {last!r}",
        path=path, chunk_id=_chunk_id_of(path),
    ) from last


def _write_chunk(path: Path, arrays: dict[str, np.ndarray]) -> None:
    _retrying("write", path, lambda: _SAVEZ(path, **arrays))


def _read_chunk(path: Path, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    def _load() -> tuple[np.ndarray, ...]:
        with _LOAD(path, allow_pickle=False) as zf:
            # npz members load lazily per key: a reduction that needs two
            # of five columns reads only those two from disk.
            return tuple(zf[n] for n in names)

    return _retrying("read", path, _load)


def _copy_chunk(src: Path, dst: Path) -> None:
    _retrying("copy", src, lambda: _COPY(src, dst))


# ---------------------------------------------------------------------- #
# Spill-file transfer (checkpoint save/restore).
# ---------------------------------------------------------------------- #
class SpillTransfer:
    """File-level transfer channel for spilled chunks during (un)pickling.

    Pickling a spilling store without a transfer context inlines every
    spilled chunk into the byte stream — correct, but it re-buys the RAM
    the spill ring exists to avoid.  Inside a :func:`spill_transfer`
    context the store instead *copies* each spilled ``.npz`` file into
    ``root`` (namespaced per store object, so the delivery and
    publication logs never collide) and pickles a relative reference.
    Unpickling under a context rooted at the same directory copies the
    files back into a fresh private ring.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self._keys: dict[int, str] = {}

    def _store_key(self, store: "ChunkedColumnStore") -> str:
        key = self._keys.get(id(store))
        if key is None:
            key = f"store-{len(self._keys):03d}"
            self._keys[id(store)] = key
        return key

    def export(self, store: "ChunkedColumnStore", path: Path) -> str:
        """Copy a spilled chunk file under ``root``; return its relative
        reference string."""
        rel = f"{self._store_key(store)}/{path.name}"
        dst = self.root / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        _copy_chunk(path, dst)
        return rel

    def resolve(self, rel: str) -> Path:
        return self.root / rel


_SPILL_TRANSFER: list[SpillTransfer] = []


@contextmanager
def spill_transfer(root: Path | str) -> Iterator[SpillTransfer]:
    """Activate a :class:`SpillTransfer` rooted at ``root`` for the
    duration of a pickle/unpickle of spilling stores."""
    ctx = SpillTransfer(root)
    _SPILL_TRANSFER.append(ctx)
    try:
        yield ctx
    finally:
        _SPILL_TRANSFER.pop()


def grouped_runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable group-by over an id array: ``(order, sorted_ids, starts,
    stops)``.

    ``order`` is a stable argsort (ties keep input order — for the
    chunk-streaming reductions that means arrival order within each
    group); group ``g`` covers ``order[starts[g]:stops[g]]`` and its id
    is ``sorted_ids[starts[g]]``.  Shared by the per-chunk group-bys in
    :mod:`repro.analysis` so the run-boundary arithmetic lives once.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if sorted_ids.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return order, sorted_ids, empty, empty  # no phantom zero-length group
    bounds = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), bounds))
    stops = np.append(bounds, sorted_ids.shape[0])
    return order, sorted_ids, starts, stops


class _SealedChunk:
    """One immutable chunk: column arrays in memory or an ``.npz`` path."""

    __slots__ = ("rows", "arrays", "path")

    def __init__(self, rows: int, arrays: dict[str, np.ndarray] | None, path: Path | None) -> None:
        self.rows = rows
        self.arrays = arrays
        self.path = path

    def load(self, names: Sequence[str]) -> tuple[np.ndarray, ...]:
        if self.arrays is not None:
            return tuple(self.arrays[n] for n in names)
        return _read_chunk(self.path, names)  # type: ignore[arg-type]


class ChunkedColumnStore:
    """Append-only named columns stored as fixed-size immutable chunks.

    ``schema`` is a sequence of ``(name, dtype)`` pairs.  With
    ``spill=False`` (the default) sealed chunks stay in memory and the
    store behaves like the old growable columns, just pre-segmented;
    with ``spill=True`` sealed chunks are written to a process-private
    temp directory (``<prefix>-XXXX/chunk-NNNNNN.npz``) that is removed
    when the store is garbage-collected or :meth:`close` is called.
    """

    __slots__ = (
        "_names", "_dtypes", "_chunk_rows", "_spill", "_spill_prefix",
        "_spill_dir", "_active", "_sealed", "_rows_sealed", "_finalizer",
        "_before_spill", "__weakref__",
    )

    def __init__(
        self,
        schema: Sequence[tuple[str, np.dtype]],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        spill: bool = False,
        spill_prefix: str = "repro-chunks",
    ) -> None:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        if not schema:
            raise ValueError("schema must name at least one column")
        self._names = tuple(name for name, _ in schema)
        self._dtypes = tuple(np.dtype(dt) for _, dt in schema)
        self._chunk_rows = chunk_rows
        self._spill = spill
        self._spill_prefix = spill_prefix
        self._spill_dir: Path | None = None
        self._finalizer = None
        if spill:
            tmp = tempfile.mkdtemp(prefix=f"{spill_prefix}-")
            self._spill_dir = Path(tmp)
            self._finalizer = weakref.finalize(self, _remove_tree, tmp)
        self._active = self._fresh_active()
        self._sealed: list[_SealedChunk] = []
        self._rows_sealed = 0
        self._before_spill: Callable[[], None] | None = None

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def chunk_rows(self) -> int:
        return self._chunk_rows

    @property
    def sealed_chunks(self) -> int:
        return len(self._sealed)

    @property
    def spilled_chunks(self) -> int:
        return sum(1 for c in self._sealed if c.path is not None)

    @property
    def spills(self) -> bool:
        return self._spill

    def __len__(self) -> int:
        return self._rows_sealed + len(self._active[0])

    def before_spill(self, hook: Callable[[], None]) -> None:
        """Call ``hook`` each time a full chunk is about to be written to
        disk, while its rows are still in memory (and :meth:`iter_chunks`
        still yields them from RAM).  A no-op on a store that does not
        spill.  The hook must not append."""
        self._before_spill = hook

    # ------------------------------------------------------------------ #
    # Appending.
    # ------------------------------------------------------------------ #
    def _fresh_active(self) -> tuple[GrowableArray, ...]:
        return tuple(
            GrowableArray(dt, capacity=self._chunk_rows) for dt in self._dtypes
        )

    def _seal_active(self) -> None:
        if self._spill and self._before_spill is not None:
            self._before_spill()
        arrays = {n: g.detach() for n, g in zip(self._names, self._active)}
        rows = next(iter(arrays.values())).shape[0]
        if self._spill_dir is not None:
            if not self._spill_dir.exists():
                # Recreate the ring after close() (or external cleanup):
                # the store stays append-usable for its whole lifetime.
                self._spill_dir.mkdir(parents=True, exist_ok=True)
                self._finalizer = weakref.finalize(
                    self, _remove_tree, str(self._spill_dir)
                )
            path = self._spill_dir / f"chunk-{len(self._sealed):06d}.npz"
            _write_chunk(path, arrays)
            self._sealed.append(_SealedChunk(rows, None, path))
        else:
            self._sealed.append(_SealedChunk(rows, arrays, None))
        self._rows_sealed += rows
        self._active = self._fresh_active()

    def append_row(self, *values: Any) -> None:
        """Append one row (scalar per column, schema order)."""
        for g, v in zip(self._active, values):
            g.append(v)
        if len(self._active[0]) >= self._chunk_rows:
            self._seal_active()

    def append_batch(self, count: int, *columns: Any) -> None:
        """Append ``count`` rows; each column is a length-``count`` array
        or a scalar (broadcast with one slice-fill per chunk segment).

        Batches larger than the active chunk's remaining capacity are
        split at chunk boundaries, preserving row order exactly.
        """
        if count <= 0:
            return
        offset = 0
        while offset < count:
            fill = len(self._active[0])
            take = min(self._chunk_rows - fill, count - offset)
            for g, col in zip(self._active, columns):
                if isinstance(col, np.ndarray):
                    g.extend(col[offset : offset + take])
                else:
                    g.extend_scalar(col, take)
            offset += take
            if len(self._active[0]) >= self._chunk_rows:
                self._seal_active()

    # ------------------------------------------------------------------ #
    # Reading.
    # ------------------------------------------------------------------ #
    def iter_chunks(
        self, names: Sequence[str] | None = None, start: int = 0
    ) -> Iterator[tuple[np.ndarray, ...]]:
        """Stream the store's chunks in append order, from row ``start``.

        Yields one tuple of column arrays (in ``names`` order; all
        columns by default) per sealed chunk, then the live prefix of
        the active chunk.  Chunks wholly before ``start`` are skipped
        unread, and the chunk holding it is yielded from that row on.
        Sealed arrays are immutable; the final active tuple holds live
        views — consume each chunk before appending again, and never
        mutate what is yielded.
        """
        cols = self._names if names is None else tuple(names)
        offset = 0
        for chunk in self._sealed:
            end = offset + chunk.rows
            if end > start:
                arrays = chunk.load(cols)
                yield arrays if offset >= start else tuple(a[start - offset:] for a in arrays)
            offset = end
        skip = max(start - offset, 0)
        if len(self._active[0]) > skip:
            idx = {n: i for i, n in enumerate(self._names)}
            yield tuple(self._active[idx[n]].view()[skip:] for n in cols)

    def gather(self, names: Sequence[str] | None = None) -> tuple[np.ndarray, ...]:
        """Concatenate all chunks into whole-column copies.

        The compatibility escape hatch: safe to hold (always a copy),
        but materialises the full log — streaming reductions should use
        :meth:`iter_chunks` instead.
        """
        cols = self._names if names is None else tuple(names)
        parts: list[tuple[np.ndarray, ...]] = list(self.iter_chunks(cols))
        if not parts:
            idx = {n: i for i, n in enumerate(self._names)}
            return tuple(np.empty(0, dtype=self._dtypes[idx[n]]) for n in cols)
        return tuple(
            np.concatenate([p[i] for p in parts]) if len(parts) > 1 else parts[0][i].copy()
            for i in range(len(cols))
        )

    # ------------------------------------------------------------------ #
    # Serialization.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Snapshot the store.  In-memory chunks and the active prefix
        pickle by value; spilled chunks export through the ambient
        :func:`spill_transfer` context as file references, or — without
        one — inline into the stream (correct, but O(log) memory)."""
        transfer = _SPILL_TRANSFER[-1] if _SPILL_TRANSFER else None
        sealed: list[tuple[str, int, object]] = []
        for chunk in self._sealed:
            if chunk.path is None:
                sealed.append(("mem", chunk.rows, chunk.arrays))
            elif transfer is not None:
                sealed.append(("ref", chunk.rows, transfer.export(self, chunk.path)))
            else:
                arrays = dict(zip(self._names, chunk.load(self._names)))
                sealed.append(("mem", chunk.rows, arrays))
        return {
            "names": self._names,
            "dtypes": self._dtypes,
            "chunk_rows": self._chunk_rows,
            "spill": self._spill,
            "spill_prefix": self._spill_prefix,
            "rows_sealed": self._rows_sealed,
            "active": self._active,
            "sealed": sealed,
            "before_spill": self._before_spill,
        }

    def __setstate__(self, state: dict) -> None:
        self._names = state["names"]
        self._dtypes = state["dtypes"]
        self._chunk_rows = state["chunk_rows"]
        self._spill = state["spill"]
        self._spill_prefix = state["spill_prefix"]
        self._rows_sealed = state["rows_sealed"]
        self._active = state["active"]
        self._before_spill = state["before_spill"]
        self._spill_dir = None
        self._finalizer = None
        if self._spill:
            # A fresh private ring: restored stores never write into (or
            # depend on the continued existence of) the checkpoint dir.
            tmp = tempfile.mkdtemp(prefix=f"{self._spill_prefix}-")
            self._spill_dir = Path(tmp)
            self._finalizer = weakref.finalize(self, _remove_tree, tmp)
        transfer = _SPILL_TRANSFER[-1] if _SPILL_TRANSFER else None
        sealed: list[_SealedChunk] = []
        for kind, rows, payload in state["sealed"]:
            path = (
                None if self._spill_dir is None
                else self._spill_dir / f"chunk-{len(sealed):06d}.npz"
            )
            if kind == "mem":
                if path is not None:
                    # Re-spill inline chunks so the restored store keeps
                    # the bounded-memory property it was built with.
                    _write_chunk(path, payload)
                    sealed.append(_SealedChunk(rows, None, path))
                else:
                    sealed.append(_SealedChunk(rows, payload, None))
            elif kind == "ref":
                if transfer is None or path is None:
                    raise SpillError(
                        f"cannot restore spilled chunk reference {payload!r} "
                        "outside a spill_transfer() context",
                        path=str(payload), chunk_id=len(sealed),
                    )
                _copy_chunk(transfer.resolve(payload), path)
                sealed.append(_SealedChunk(rows, None, path))
            else:  # pragma: no cover - forward-compat guard
                raise SpillError(
                    f"unknown sealed-chunk encoding {kind!r}",
                    path="", chunk_id=len(sealed),
                )
        self._sealed = sealed

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop sealed chunks and remove the spill ring (idempotent)."""
        self._sealed.clear()
        self._rows_sealed = 0
        self._active = self._fresh_active()
        if self._finalizer is not None:
            self._finalizer()


def _remove_tree(path: str) -> None:
    """Best-effort recursive removal of the spill ring directory."""
    import shutil

    shutil.rmtree(path, ignore_errors=True)
