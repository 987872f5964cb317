"""Growable numpy columns: the storage primitive of the columnar spine.

Appending to a plain ``np.ndarray`` reallocates on every call, and a
Python ``list`` forces per-element boxing on the way back out.  A
:class:`GrowableArray` amortises both: capacity doubles, the live prefix
is a zero-copy view, and whole batches land with one slice assignment.
The delivery log (:mod:`repro.pubsub.client`) sits on this: its active
chunk columns and its per-endpoint price column.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import DTypeLike

#: Starting capacity; small because most instances are per-subscriber or
#: per-message tallies that may never grow past a handful of entries.
_INITIAL_CAPACITY = 16


class GrowableArray:
    """An append-only 1-D array with amortised O(1) growth."""

    __slots__ = ("_data", "_n")

    def __init__(self, dtype: DTypeLike, capacity: int = _INITIAL_CAPACITY) -> None:
        self._data = np.zeros(max(capacity, 1), dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def __getstate__(self) -> tuple[np.ndarray, int]:
        """Pickle the live prefix and the capacity, not the unused tail."""
        return self._data[: self._n], self._data.shape[0]

    def __setstate__(self, state: tuple[np.ndarray, int]) -> None:
        live, capacity = state
        # An unpickled dtype is a copy, not numpy's builtin instance, and
        # ufunc fast paths (``np.add.at`` over values gathered from this
        # column) test for the builtin one: restore it for plain dtypes.
        dtype = live.dtype if live.dtype.fields is not None else np.dtype(live.dtype.str)
        self._data = np.zeros(capacity, dtype=dtype)
        self._n = len(live)
        self._data[: self._n] = live

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._data.shape[0]:
            return
        cap = self._data.shape[0]
        while cap < need:
            cap *= 2
        grown = np.zeros(cap, dtype=self._data.dtype)
        grown[: self._n] = self._data[: self._n]
        self._data = grown

    def append(self, value: float | int | bool) -> None:
        self._reserve(1)
        self._data[self._n] = value
        self._n += 1

    def extend(self, values: np.ndarray) -> None:
        k = len(values)
        if k == 0:
            return
        self._reserve(k)
        self._data[self._n : self._n + k] = values
        self._n += k

    def extend_scalar(self, value: float | int | bool, count: int) -> None:
        """Append ``count`` copies of one scalar with a single broadcast
        slice-fill — no ``np.full`` temporary on the append hot path."""
        if count <= 0:
            return
        self._reserve(count)
        self._data[self._n : self._n + count] = value
        self._n += count

    @property
    def capacity(self) -> int:
        return self._data.shape[0]

    def view(self) -> np.ndarray:
        """Zero-copy view of the live prefix.

        Aliasing contract (pinned by ``tests/core/test_growable.py``): the
        view shares the *current* buffer, so later appends that fit in
        place are visible through it, while a reallocating grow detaches
        it — the view keeps the old buffer and goes stale.  Holders that
        need a stable snapshot must copy (or use :meth:`detach`).
        """
        return self._data[: self._n]

    def detach(self) -> np.ndarray:
        """Seal and hand over the live prefix; the array resets to empty.

        Zero-copy when the buffer is exactly full (the chunk-store case:
        fixed-capacity columns sealed at capacity), otherwise the prefix
        is copied out.  The returned array is marked read-only — it is an
        immutable chunk from this moment on.
        """
        out = self._data if self._n == self._data.shape[0] else self._data[: self._n].copy()
        out.setflags(write=False)
        self._data = np.zeros(_INITIAL_CAPACITY, dtype=self._data.dtype)
        self._n = 0
        return out

    def at_least(self, size: int) -> np.ndarray:
        """View of the first ``max(size, len)`` slots, growing with zeros.

        Used for dense-id tallies: indexing by a freshly interned id is
        valid immediately, unfilled slots read as zero.
        """
        if size > self._n:
            self._reserve(size - self._n)
            self._n = size
        return self._data[: self._n]
