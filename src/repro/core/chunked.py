"""Chunked columnar storage with optional on-disk spill.

The columnar spine (PR 2/3) made append and reduction fast, but every
row of every run still lived in RAM until process exit — fine at 20k
subscribers, fatal at the roadmap's "millions of users" tier.  This
module decomposes a column set into **fixed-size immutable chunks**:

* a column is a *row column* (one value a row) or a *run column* (one
  value an append): each append segment — a batch, split where a chunk
  seals — writes one *run*, an int32 row count (the ``run_rows``
  member) plus one value per run column, so a value every row of a
  batch shares is stored once, not broadcast into each row;
* the *active* chunk is a set of fixed-capacity
  :class:`~repro.core.growable.GrowableArray` row columns (one broadcast
  or slice write per batch, never reallocating) and small growable run
  columns (one write per run);
* a full active chunk is **sealed** — its columns are detached
  (zero-copy, marked read-only) and either kept in memory or, with
  spill enabled, written once by ``np.savez`` (row and run members in
  the same file) to a numbered ``.npz`` file in a private temp ring and
  dropped from RAM; the file's size and each member's zip offset,
  length, CRC-32 and ``.npy`` header length are recorded at seal;
* readers consume :meth:`ChunkedColumnStore.iter_chunks`, a streaming
  pass that materialises **one chunk at a time** (reading only the
  requested columns of spilled chunks, each with one read at its
  recorded offset, checked against the recorded size and CRC-32, and
  expanding only the requested run columns to one value a row with
  ``np.repeat``), so any associative reduction — partial bincounts,
  ``np.add.at`` into carried accumulators — runs in O(chunk) memory over
  an O(run) log.  :meth:`ChunkedColumnStore.iter_runs` hands out the
  run columns unexpanded, for reducers that can work a run at a time.

A chunk file is never written through once it exists (the ring creates
each file exclusively), so snapshots and resumed rings take it as a hard
link, falling back to a copy where the filesystem refuses one: the
filesystem's link count is the only reference count.

Chunk boundaries never reorder rows: concatenating the chunks of a
store reproduces the exact append sequence, which is what makes the
streaming reductions in :mod:`repro.analysis` decision- and
byte-compatible with the old whole-array gathers.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import tempfile
import time
import weakref
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.growable import GrowableArray

#: Default rows per chunk: 64k delivery-log rows x 6 bytes (an int32 id,
#: two bools), plus 24 bytes a run (an int32 row count, an int32 id, two
#: float64s) for each batch, is a ~0.4 MB working set at the fan-outs of
#: the scale worlds — big enough to amortise seal overhead, small enough
#: that the active chunk is cache-friendly.  A chunk read expands the run
#: columns it is asked for to 26 bytes a row (~1.7 MB).
DEFAULT_CHUNK_ROWS = 65_536

#: The member of a chunk with run columns that holds each run's row count.
RUN_ROWS = "run_rows"


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


def _read_bytes(fh: BinaryIO, count: int) -> np.ndarray:
    """Up to ``count`` bytes from ``fh``'s position, as a fresh uint8 array
    (shorter only at the end of the file)."""
    raw = np.empty(count, dtype=np.uint8)
    return raw[: fh.readinto(raw)]


#: Save/load/place indirections: tests inject failing-filesystem shims here.
_SAVEZ = np.savez
_LOAD = _read_bytes
_COPY = shutil.copy2
_LINK = os.link

#: Bounded retry for transient I/O (EINTR, NFS hiccups).  Attempt ``k``
#: sleeps ``_SPILL_BACKOFF_S * 2**k`` before retrying; persistent errors
#: (ENOSPC never heals in 0.15 s, but the caller gets a typed error
#: naming the file either way) surface as :class:`SpillError`.
_SPILL_ATTEMPTS = 3
_SPILL_BACKOFF_S = 0.05

#: Errors that mean "this chunk is corrupt", not "the fs is flaky" —
#: retrying cannot help, so they convert to SpillError immediately.
_CORRUPT_ERRORS = (ValueError, KeyError, zipfile.BadZipFile)

#: Zip local file header: fixed part, and where its name and extra-field
#: lengths sit in it.
_ZIP_LOCAL_HEADER = 30
_ZIP_NAME_LENGTHS = struct.Struct("<HH")
_NPY_MAGIC = b"\x93NUMPY"


class _Member(NamedTuple):
    """Where one column lies in a sealed ``.npz``: its zip member's bytes
    (the ``.npy`` header, then the data) span ``[offset, offset + length)``
    of the file with CRC-32 ``crc``, and the data starts ``header`` bytes
    in (a multiple of 64).  ``dtype`` is a type string: an unpickled
    ``np.dtype`` is not numpy's own instance, and ``np.add.at`` over an
    array viewed as one takes a path about 18 times slower."""

    offset: int
    length: int
    crc: int
    header: int
    dtype: str


#: A sealed chunk file's byte size and its columns' members, recorded at
#: seal so a read is one read per column, with no zip parsing.
_Layout = tuple[int, dict[str, _Member]]


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


def _write_chunk(path: Path, arrays: dict[str, np.ndarray]) -> _Layout:
    """Write ``arrays`` to ``path`` as a plain ``.npz``; return its layout.

    The file is created exclusively: a chunk file, once written, may be a
    hard link shared with snapshots and resumed rings, so a write through
    an existing path would change their bytes too.  An existing ``path``
    is an error, never overwritten, and not retried.
    """

    def _write() -> _Layout:
        try:
            fh = open(path, "x+b")
        except FileExistsError as exc:
            raise SpillError(
                f"refusing to write spill chunk over existing {path}",
                path=path, chunk_id=_chunk_id_of(path),
            ) from exc
        try:
            with fh:
                _SAVEZ(fh, **arrays)
                return _read_layout(fh, arrays)
        except BaseException:
            path.unlink(missing_ok=True)  # our own partial file, linked nowhere yet
            raise

    return _retrying("write", path, _write)


def _read_layout(fh: BinaryIO, arrays: dict[str, np.ndarray]) -> _Layout:
    """The layout of the ``.npz`` just written to ``fh`` from ``arrays``:
    the zip directory's offsets and CRC-32s, each local header's length
    and each ``.npy`` header's length."""
    members: dict[str, _Member] = {}
    size = fh.seek(0, os.SEEK_END)
    with zipfile.ZipFile(fh) as zf:
        infos = zf.infolist()
    for info in infos:
        name = info.filename.removesuffix(".npy")
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(f"member {info.filename} is compressed")
        fh.seek(info.header_offset + _ZIP_LOCAL_HEADER - _ZIP_NAME_LENGTHS.size)
        name_len, extra_len = _ZIP_NAME_LENGTHS.unpack(fh.read(_ZIP_NAME_LENGTHS.size))
        offset = info.header_offset + _ZIP_LOCAL_HEADER + name_len + extra_len
        fh.seek(offset)
        # Magic, format version, then the header's length: two bytes
        # in format 1.0, four in 2.0 and 3.0.
        preamble = fh.read(12)
        if preamble[:6] != _NPY_MAGIC:
            raise ValueError(f"member {info.filename} is not an .npy array")
        if preamble[6] == 1:
            header = 10 + int.from_bytes(preamble[8:10], "little")
        else:
            header = 12 + int.from_bytes(preamble[8:12], "little")
        if header % 64 or header + arrays[name].nbytes != info.file_size:
            raise ValueError(f"member {info.filename} has an unexpected layout")
        members[name] = _Member(
            offset, info.file_size, info.CRC, header, arrays[name].dtype.str
        )
    return size, members


def _read_chunk(path: Path, layout: _Layout, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    """The ``names`` columns of a sealed chunk file, read at the offsets
    recorded at seal: one read a column, checked against the
    file's recorded size and each member's CRC-32.  The columns are
    read-only views past their ``.npy`` headers."""
    size, members = layout

    def _load() -> tuple[np.ndarray, ...]:
        with open(path, "rb") as fh:
            actual = os.fstat(fh.fileno()).st_size
            if actual != size:
                raise ValueError(f"file has {actual} bytes, {size} when sealed")
            out = []
            for name in names:
                member = members[name]
                fh.seek(member.offset)
                raw = _LOAD(fh, count=member.length)
                if raw.shape[0] != member.length or zlib.crc32(raw) != member.crc:
                    raise ValueError(f"bad CRC-32 for member {name}.npy")
                raw.flags.writeable = False
                out.append(raw[member.header:].view(member.dtype))
            return tuple(out)

    return _retrying("read", path, _load)


def _place_chunk(src: Path, dst: Path) -> bool:
    """Give ``dst`` the bytes of the sealed chunk file ``src``: a hard link
    (the same inode, nothing copied), or a copy where the filesystem will
    not link them (``EXDEV`` across filesystems, ``EPERM``, ...); returns
    whether it linked.  Safe because no chunk file is written twice
    (:func:`_write_chunk`); for the same reason an existing ``dst`` is an
    error, never copied over."""
    try:
        _LINK(src, dst)
    except FileExistsError as exc:
        raise SpillError(
            f"refusing to place spill chunk {src} over existing {dst}",
            path=dst, chunk_id=_chunk_id_of(dst),
        ) from exc
    except OSError:
        _retrying("copy", src, lambda: _COPY(src, dst))
        return False
    return True


# ---------------------------------------------------------------------- #
# Spill-file transfer (checkpoint save/restore).
# ---------------------------------------------------------------------- #
class SpillTransfer:
    """File-level transfer channel for spilled chunks during (un)pickling.

    Pickling a spilling store without a transfer context inlines every
    spilled chunk into the byte stream — correct, but it re-buys the RAM
    the spill ring exists to avoid.  Inside a :func:`spill_transfer`
    context the store instead *hard-links* each spilled ``.npz`` file
    into ``root`` (namespaced per store object, so the delivery and
    publication logs never collide) and pickles a relative reference
    with the chunk's recorded layout.  Unpickling under a context rooted
    at the same directory links the files back into a fresh private
    ring.  Either link falls back to a copy (``EXDEV`` across
    filesystems, or any other refusal).
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self._keys: dict[int, str] = {}
        #: The references :meth:`export` placed as hard links (not copies).
        self.linked: list[str] = []

    def _store_key(self, store: "ChunkedColumnStore") -> str:
        key = self._keys.get(id(store))
        if key is None:
            key = f"store-{len(self._keys):03d}"
            self._keys[id(store)] = key
        return key

    def export(self, store: "ChunkedColumnStore", path: Path) -> str:
        """Place a spilled chunk file under ``root`` (a hard link where the
        filesystem allows); return its relative reference string."""
        rel = f"{self._store_key(store)}/{path.name}"
        dst = self.root / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        if _place_chunk(path, dst):
            self.linked.append(rel)
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
    """One immutable chunk: its members (columns, and ``run_rows`` in a
    store with run columns) in memory, or an ``.npz`` path and the layout
    recorded when it was written; ``runs`` counts its runs."""

    __slots__ = ("rows", "runs", "arrays", "path", "layout")

    def __init__(
        self,
        rows: int,
        runs: int,
        arrays: dict[str, np.ndarray] | None,
        path: Path | None = None,
        layout: _Layout | None = None,
    ) -> None:
        self.rows = rows
        self.runs = runs
        self.arrays = arrays
        self.path = path
        self.layout = layout

    def load(self, names: Sequence[str]) -> tuple[np.ndarray, ...]:
        if self.arrays is not None:
            return tuple(self.arrays[n] for n in names)
        return _read_chunk(self.path, self.layout, names)  # type: ignore[arg-type]

    def nbytes(self) -> int:
        """Bytes of member data, in memory or in the file (no headers)."""
        if self.arrays is not None:
            return sum(a.nbytes for a in self.arrays.values())
        return sum(m.length - m.header for m in self.layout[1].values())  # type: ignore[index]


def _expand(
    members: tuple[np.ndarray, ...], is_run: tuple[bool, ...], skip: int
) -> tuple[np.ndarray, ...]:
    """One chunk's columns at one value a row, from row ``skip`` on.

    ``members`` holds the columns (``is_run`` marks the run columns) and,
    when any is a run column, the runs' row counts last: each run value
    is repeated over its rows (the run holding row ``skip`` over its rows
    from there).  Row columns come as sliced views, run columns as fresh
    read-only arrays."""
    if not any(is_run):
        return members if not skip else tuple(m[skip:] for m in members)
    counts, first = members[-1], 0
    if skip:
        ends = np.cumsum(counts)
        first = int(np.searchsorted(ends, skip, side="right"))
        counts = counts[first:].copy()
        counts[0] = ends[first] - skip
    out = []
    for column, run in zip(members, is_run):
        if run:
            column = np.repeat(column[first:], counts)
            column.flags.writeable = False
        elif skip:
            column = column[skip:]
        out.append(column)
    return tuple(out)


class ChunkedColumnStore:
    """Append-only named columns stored as fixed-size immutable chunks.

    ``schema`` is a sequence of ``(name, dtype)`` pairs; the columns it
    names in ``runs`` are run columns (one value an append, see the module
    docstring), the rest row columns, of which there must be one at
    least.  With ``spill=False`` (the default) sealed chunks stay in
    memory and the store behaves like the old growable columns, just
    pre-segmented; with ``spill=True`` sealed chunks are written to a
    process-private temp directory (``<prefix>-XXXX/chunk-NNNNNN.npz``)
    that is removed when the store is garbage-collected or :meth:`close`
    is called.
    """

    __slots__ = (
        "_names", "_dtypes", "_runs", "_is_run", "_lead", "_chunk_rows", "_spill",
        "_spill_prefix", "_spill_dir", "_active", "_run_rows", "_sealed",
        "_rows_sealed", "_finalizer", "_before_spill", "__weakref__",
    )

    def __init__(
        self,
        schema: Sequence[tuple[str, np.dtype]],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        spill: bool = False,
        spill_prefix: str = "repro-chunks",
        runs: Sequence[str] = (),
    ) -> None:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        if not schema:
            raise ValueError("schema must name at least one column")
        self._names = tuple(name for name, _ in schema)
        self._dtypes = tuple(np.dtype(dt) for _, dt in schema)
        if RUN_ROWS in self._names:
            raise ValueError(f"{RUN_ROWS!r} is reserved for the runs' row counts")
        unknown = set(runs) - set(self._names)
        if unknown:
            raise ValueError(f"run columns {sorted(unknown)} are not in the schema")
        self._set_runs(tuple(n for n in self._names if n in runs))
        self._chunk_rows = chunk_rows
        self._spill = spill
        self._spill_prefix = spill_prefix
        self._spill_dir: Path | None = None
        self._finalizer = None
        if spill:
            tmp = tempfile.mkdtemp(prefix=f"{spill_prefix}-")
            self._spill_dir = Path(tmp)
            self._finalizer = weakref.finalize(self, _remove_tree, tmp)
        self._active, self._run_rows = self._fresh_active()
        self._sealed: list[_SealedChunk] = []
        self._rows_sealed = 0
        self._before_spill: Callable[[], None] | None = None

    def _set_runs(self, runs: tuple[str, ...]) -> None:
        self._runs = runs
        self._is_run = tuple(n in runs for n in self._names)
        if all(self._is_run):
            raise ValueError("a store needs at least one row column")
        self._lead = self._is_run.index(False)

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def runs(self) -> tuple[str, ...]:
        """The run columns, in schema order."""
        return self._runs

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
        return self._rows_sealed + len(self._active[self._lead])

    @property
    def run_count(self) -> int:
        """Runs stored so far (0 in a store without run columns)."""
        active = 0 if self._run_rows is None else len(self._run_rows)
        return sum(c.runs for c in self._sealed) + active

    @property
    def nbytes(self) -> int:
        """Bytes of column data the store holds, in memory or in its chunk
        files: the rows of each row column, the runs of each run column
        and their row counts — not the active chunk's spare capacity, nor
        file or array headers."""
        active = [*self._active] + ([] if self._run_rows is None else [self._run_rows])
        return sum(c.nbytes() for c in self._sealed) + sum(g.view().nbytes for g in active)

    def before_spill(self, hook: Callable[[], None]) -> None:
        """Call ``hook`` each time a full chunk is about to be written to
        disk, while its rows are still in memory (and :meth:`iter_chunks`
        still yields them from RAM).  A no-op on a store that does not
        spill.  The hook must not append."""
        self._before_spill = hook

    # ------------------------------------------------------------------ #
    # Appending.
    # ------------------------------------------------------------------ #
    def _fresh_active(self) -> tuple[tuple[GrowableArray, ...], GrowableArray | None]:
        """Empty active columns: row columns at the chunk's capacity, run
        columns (and the runs' row counts, if any) growing as runs come."""
        columns = tuple(
            GrowableArray(dt) if run else GrowableArray(dt, capacity=self._chunk_rows)
            for dt, run in zip(self._dtypes, self._is_run)
        )
        return columns, (GrowableArray(np.int32) if self._runs else None)

    def _stored(self) -> tuple[str, ...]:
        """The members of a sealed chunk: every column, then ``run_rows``
        in a store with run columns."""
        return self._names + ((RUN_ROWS,) if self._runs else ())

    def _seal_active(self) -> None:
        if self._spill and self._before_spill is not None:
            self._before_spill()
        arrays = {n: g.detach() for n, g in zip(self._names, self._active)}
        rows = arrays[self._names[self._lead]].shape[0]
        runs = 0
        if self._run_rows is not None:
            arrays[RUN_ROWS] = self._run_rows.detach()
            runs = arrays[RUN_ROWS].shape[0]
        if self._spill_dir is not None:
            if not self._spill_dir.exists():
                # Recreate the ring after close() (or external cleanup):
                # the store stays append-usable for its whole lifetime.
                self._spill_dir.mkdir(parents=True, exist_ok=True)
                self._finalizer = weakref.finalize(
                    self, _remove_tree, str(self._spill_dir)
                )
            path = self._spill_dir / f"chunk-{len(self._sealed):06d}.npz"
            layout = _write_chunk(path, arrays)
            self._sealed.append(_SealedChunk(rows, runs, None, path, layout))
        else:
            self._sealed.append(_SealedChunk(rows, runs, arrays))
        self._rows_sealed += rows
        self._active, self._run_rows = self._fresh_active()

    def append_row(self, *values: Any) -> None:
        """Append one row (scalar per column, schema order): a run of one
        row in a store with run columns."""
        for g, v in zip(self._active, values):
            g.append(v)
        if self._run_rows is not None:
            self._run_rows.append(1)
        if len(self._active[self._lead]) >= self._chunk_rows:
            self._seal_active()

    def append_batch(self, count: int, *columns: Any) -> None:
        """Append ``count`` rows; each row column is a length-``count``
        array or a scalar (broadcast with one slice-fill per chunk
        segment), each run column a scalar.

        Batches larger than the active chunk's remaining capacity are
        split at chunk boundaries, preserving row order exactly; each
        segment is one run.
        """
        if count <= 0:
            return
        offset = 0
        lead = self._active[self._lead]
        while offset < count:
            take = min(self._chunk_rows - len(lead), count - offset)
            for g, col, run in zip(self._active, columns, self._is_run):
                if run:
                    g.append(col)
                elif isinstance(col, np.ndarray):
                    g.extend(col[offset : offset + take])
                else:
                    g.extend_scalar(col, take)
            if self._run_rows is not None:
                self._run_rows.append(take)
            offset += take
            if len(lead) >= self._chunk_rows:
                self._seal_active()
                lead = self._active[self._lead]

    # ------------------------------------------------------------------ #
    # Reading.
    # ------------------------------------------------------------------ #
    def _members(self, cols: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[bool, ...]]:
        """The members to read for columns ``cols`` (``run_rows`` last if
        any is a run column) and which of ``cols`` are run columns."""
        is_run = tuple(n in self._runs for n in cols)
        return (cols + (RUN_ROWS,) if any(is_run) else cols), is_run

    def _iter_members(
        self, members: tuple[str, ...], start: int
    ) -> Iterator[tuple[int, tuple[np.ndarray, ...]]]:
        """Per chunk holding rows from ``start`` on, ``(skip, arrays)``:
        the chunk's ``members`` as stored and the rows of it before
        ``start``.  The active chunk's arrays are live views."""
        offset = 0
        for chunk in self._sealed:
            end = offset + chunk.rows
            if end > start:
                arrays = chunk.load(members)
                yield max(start - offset, 0), arrays
                del arrays  # not alive while the next chunk loads
            offset = end
        skip = max(start - offset, 0)
        if len(self._active[self._lead]) > skip:
            live = dict(zip(self._names, self._active))
            if self._run_rows is not None:
                live[RUN_ROWS] = self._run_rows
            yield skip, tuple(live[n].view() for n in members)

    def iter_chunks(
        self, names: Sequence[str] | None = None, start: int = 0
    ) -> Iterator[tuple[np.ndarray, ...]]:
        """Stream the store's chunks in append order, from row ``start``.

        Yields one tuple of column arrays (in ``names`` order; all
        columns by default), one value a row, per sealed chunk, then the
        live prefix of the active chunk.  Chunks wholly before ``start``
        are skipped unread, and the chunk holding it is yielded from that
        row on.  Run columns are expanded when yielded (fresh arrays);
        sealed row columns are immutable, and the final active tuple holds
        live views of them — consume each chunk before appending again,
        and never mutate what is yielded.
        """
        cols = self._names if names is None else tuple(names)
        members, is_run = self._members(cols)
        for skip, arrays in self._iter_members(members, start):
            yield _expand(arrays, is_run, skip)
            del arrays  # not alive while the next chunk loads

    def iter_runs(
        self, names: Sequence[str] | None = None
    ) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
        """Stream the store's chunks in append order as ``(run_rows,
        columns)``: each run's row count, and the ``names`` columns (all by
        default) as stored — one value a row for a row column, one a run
        for a run column, unexpanded.  The same lifetime rules as
        :meth:`iter_chunks`; a store without run columns has no runs."""
        if not self._runs:
            raise ValueError("the store has no run columns")
        cols = self._names if names is None else tuple(names)
        for _, arrays in self._iter_members(cols + (RUN_ROWS,), 0):
            yield arrays[-1], arrays[:-1]
            del arrays  # not alive while the next chunk loads

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
        sealed: list[tuple[str, int, int, object]] = []
        for chunk in self._sealed:
            if chunk.path is None:
                sealed.append(("mem", chunk.rows, chunk.runs, chunk.arrays))
            elif transfer is not None:
                ref = transfer.export(self, chunk.path)
                sealed.append(("ref", chunk.rows, chunk.runs, (ref, chunk.layout)))
            else:
                stored = self._stored()
                arrays = dict(zip(stored, chunk.load(stored)))
                sealed.append(("mem", chunk.rows, chunk.runs, arrays))
        return {
            "names": self._names,
            "dtypes": self._dtypes,
            "runs": self._runs,
            "chunk_rows": self._chunk_rows,
            "spill": self._spill,
            "spill_prefix": self._spill_prefix,
            "rows_sealed": self._rows_sealed,
            "active": self._active,
            "run_rows": self._run_rows,
            "sealed": sealed,
            "before_spill": self._before_spill,
        }

    def __setstate__(self, state: dict) -> None:
        if "runs" not in state:
            raise pickle.UnpicklingError(
                "a chunk store pickled before run columns existed (one value a "
                "row in every column); this build cannot read it"
            )
        self._names = state["names"]
        # numpy's own dtype instances, not unpickled copies: the active
        # chunks made after a resume take them (see GrowableArray).
        self._dtypes = tuple(np.dtype(dt.str) for dt in state["dtypes"])
        self._set_runs(state["runs"])
        self._chunk_rows = state["chunk_rows"]
        self._spill = state["spill"]
        self._spill_prefix = state["spill_prefix"]
        self._rows_sealed = state["rows_sealed"]
        self._active = state["active"]
        self._run_rows = state["run_rows"]
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
        for kind, rows, runs, payload in state["sealed"]:
            path = (
                None if self._spill_dir is None
                else self._spill_dir / f"chunk-{len(sealed):06d}.npz"
            )
            if kind == "mem":
                if path is not None:
                    # Re-spill inline chunks so the restored store keeps
                    # the bounded-memory property it was built with.
                    layout = _write_chunk(path, payload)
                    sealed.append(_SealedChunk(rows, runs, None, path, layout))
                else:
                    sealed.append(_SealedChunk(rows, runs, payload))
            elif kind == "ref":
                ref, layout = payload
                if transfer is None or path is None:
                    raise SpillError(
                        f"cannot restore spilled chunk reference {ref!r} "
                        "outside a spill_transfer() context",
                        path=str(ref), chunk_id=len(sealed),
                    )
                _place_chunk(transfer.resolve(ref), path)
                sealed.append(_SealedChunk(rows, runs, None, path, layout))
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
        self._active, self._run_rows = self._fresh_active()
        if self._finalizer is not None:
            self._finalizer()


def _remove_tree(path: str) -> None:
    """Best-effort recursive removal of the spill ring directory."""
    import shutil

    shutil.rmtree(path, ignore_errors=True)
