"""The cross-chunk pair settlement the delivery log's ``first`` column
replaced, frozen verbatim as a test-side oracle.

``SettledKeys`` settled the log after the fact: per chunk, one
``np.unique`` pass over the (message, endpoint) keys, with a sorted key
set of every pair an earlier chunk settled.  The ledger and the windowed
series now read the mark the system writes at append time;
:func:`oracle_first_marks` recomputes that column from the log's ids the
old way, so the tests compare the mark against what the code *was*.
``sorted_contains``, its membership probe, is shared with the frozen
report reducers.
"""

from __future__ import annotations

import numpy as np

from repro.core.settlement import pair_keys
from repro.pubsub.client import DeliveryLog


def sorted_contains(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean membership of ``needles`` in a **sorted** ``haystack``.

    The searchsorted-and-clamp idiom every chunk-streaming reduction
    needs (cross-chunk dedup state probes, wanted-id filters); shared
    here so the clamping subtlety lives in one place.  ``haystack`` must
    be ascending (an empty haystack contains nothing); ``needles`` may
    be in any order.
    """
    if haystack.shape[0] == 0:
        return np.zeros(needles.shape[0], dtype=bool)
    pos = np.minimum(np.searchsorted(haystack, needles), haystack.shape[0] - 1)
    return haystack[pos] == needles


class SettledKeys:
    """The pairs settled so far: a sorted set of int64 keys with amortised
    consolidation.

    A consolidated sorted array plus a short list of sorted per-chunk
    batches; novelty probes binary-search all of them, and batches fold
    into the big array only when they rival it in size (or pile up) —
    doubling-style, so the total sort work over a run is O(P log P) in
    the settled-pair count instead of one full re-sort per chunk.
    """

    __slots__ = ("_seen", "_pending", "_pending_rows")

    _MAX_PENDING = 16

    def __init__(self) -> None:
        self._seen = np.empty(0, dtype=np.int64)
        self._pending: list[np.ndarray] = []
        self._pending_rows = 0

    def novel(self, uniq: np.ndarray) -> np.ndarray:
        """Mask of ``uniq`` (sorted unique) keys not settled yet."""
        mask = ~sorted_contains(self._seen, uniq)
        for batch in self._pending:
            mask &= ~sorted_contains(batch, uniq)
        return mask

    def add(self, fresh: np.ndarray) -> None:
        """Record sorted keys known to be disjoint from the state."""
        if not fresh.shape[0]:
            return
        self._pending.append(fresh)
        self._pending_rows += fresh.shape[0]
        if (
            len(self._pending) >= self._MAX_PENDING
            or self._pending_rows >= max(self._seen.shape[0], 1)
        ):
            self._seen = np.concatenate([self._seen, *self._pending])
            self._seen.sort(kind="mergesort")  # disjoint parts: plain sort
            self._pending.clear()
            self._pending_rows = 0

    def first_arrivals(self, keys: np.ndarray) -> np.ndarray:
        """Settle one slice of the log: the indices of the rows whose pair
        no earlier row settled (the first occurrence of each new key), in
        key order.  Those pairs count as settled from now on."""
        # A stable sort: a chunk's keys come in sorted runs (a batch lists
        # its endpoints in table order), which it merges in near-linear time.
        uniq, first = np.unique(keys, return_index=True)
        novel = self.novel(uniq)
        if not novel.all():
            uniq, first = uniq[novel], first[novel]
        self.add(uniq)
        return first


def oracle_first_marks(log: DeliveryLog) -> np.ndarray:
    """The ``first`` column of ``log`` as :class:`SettledKeys` settles its
    rows: one bool per row, in append order."""
    settled = SettledKeys()
    parts = [np.zeros(0, dtype=bool)]
    for sub, msg in log.iter_chunks(("sub_id", "msg_id")):
        mark = np.zeros(sub.shape[0], dtype=bool)
        mark[settled.first_arrivals(pair_keys(msg, sub))] = True
        parts.append(mark)
    return np.concatenate(parts)


def logged_first_marks(log: DeliveryLog) -> np.ndarray:
    """The ``first`` column the log holds, in append order."""
    return log._store.gather(("first",))[0]
