"""The delivery log's storage as it was before run columns: every column
one value a row, 26 bytes a row, in fixed-size in-memory chunks.

A frozen oracle for ``tests/core/test_log_runs.py``: the production log
stores ``msg_id``/``time``/``latency`` once an append and expands them
when read, and every read must equal what this store returns, chunk for
chunk and byte for byte.  Do not "fix" it to follow the production code.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

#: The record: two int32 ids, two float64s, two bools — 26 bytes a row.
FROZEN_SCHEMA = (
    ("sub_id", np.int32),
    ("msg_id", np.int32),
    ("time", np.float64),
    ("latency", np.float64),
    ("valid", np.bool_),
    ("first", np.bool_),
)
FROZEN_NAMES = tuple(name for name, _ in FROZEN_SCHEMA)
RECORD_COLUMNS = ("sub_id", "msg_id", "time", "latency", "valid")


class FrozenLog:
    """Append-only delivery records in chunks of ``chunk_rows`` rows, each
    column broadcast or copied into every row of its batch."""

    def __init__(self, chunk_rows: int) -> None:
        self.chunk_rows = chunk_rows
        self._sealed: list[tuple[np.ndarray, ...]] = []
        self._active = self._fresh()
        self._fill = 0

    def _fresh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.zeros(self.chunk_rows, dtype=dt) for _, dt in FROZEN_SCHEMA)

    def __len__(self) -> int:
        return len(self._sealed) * self.chunk_rows + self._fill

    def append(self, sub_id, msg_id, time, latency, valid, first) -> None:
        self.append_batch(np.array([sub_id]), msg_id, time, latency, np.array([valid]), first)

    def append_batch(self, sub_ids, msg_id, time, latency, valid, first) -> None:
        columns = (sub_ids, msg_id, time, latency, valid, first)
        count, offset = sub_ids.shape[0], 0
        while offset < count:
            take = min(self.chunk_rows - self._fill, count - offset)
            for column, value in zip(self._active, columns):
                if isinstance(value, np.ndarray):
                    value = value[offset:offset + take]
                column[self._fill:self._fill + take] = value
            self._fill += take
            offset += take
            if self._fill == self.chunk_rows:
                self._sealed.append(self._active)
                self._active, self._fill = self._fresh(), 0

    def iter_chunks(
        self, names: Sequence[str] | None = None, start: int = 0
    ) -> Iterator[tuple[np.ndarray, ...]]:
        picks = [FROZEN_NAMES.index(n) for n in (FROZEN_NAMES if names is None else names)]
        offset = 0
        for chunk in [*self._sealed, tuple(c[:self._fill] for c in self._active)]:
            rows = chunk[0].shape[0]
            if rows and offset + rows > start:
                yield tuple(chunk[i][max(start - offset, 0):] for i in picks)
            offset += rows

    def gather(self, names: Sequence[str] | None = None) -> tuple[np.ndarray, ...]:
        cols = FROZEN_NAMES if names is None else tuple(names)
        parts = list(self.iter_chunks(cols))
        if not parts:
            dtypes = dict(FROZEN_SCHEMA)
            return tuple(np.empty(0, dtype=dtypes[n]) for n in cols)
        return tuple(
            np.concatenate([p[i] for p in parts]) if len(parts) > 1 else parts[0][i].copy()
            for i in range(len(cols))
        )

    def columns(self) -> tuple[np.ndarray, ...]:
        sub, msg, time, latency, valid = self.gather(RECORD_COLUMNS)
        return sub.astype(np.int64), msg.astype(np.int64), time, latency, valid

    def columns_for(self, sub_id: int) -> tuple[np.ndarray, ...]:
        parts = []
        for sub, msg, time, lat, valid in self.iter_chunks(RECORD_COLUMNS):
            hit = sub == sub_id
            if hit.any():
                parts.append((msg[hit].astype(np.int64), time[hit], lat[hit], valid[hit]))
        if not parts:
            return (
                np.empty(0, dtype=np.int64), np.empty(0), np.empty(0),
                np.empty(0, dtype=bool),
            )
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate([p[i] for p in parts]) for i in range(4))
