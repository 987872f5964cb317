"""First-arrival settlement of (message, endpoint) pairs over a chunked log.

Under multi-path routing one (message, endpoint) pair can arrive more than
once; the paper's accounting counts it once, at its first arrival, as
valid or late.  The delivery log holds every arrival in append (= simulated
time) order, so settlement is a streaming reduction: each chunk's keys go
through one ``np.unique`` pass (the first index per key is the chunk's
first arrival), and a cross-chunk sorted-key set drops the pairs an
earlier chunk already settled.  The production ledger
(:mod:`repro.pubsub.metrics`) and the windowed series
(:mod:`repro.analysis.timeseries`) both settle through this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.chunked import sorted_contains

#: Bits of a pair key below the message id: endpoint ids stay below 2**32
#: and message ids below 2**31, so ``msg_id << 32 | endpoint`` is a unique
#: non-negative int64 whose order is (message, endpoint) order.
_ENDPOINT_BITS = 32


def pair_keys(msg_ids: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """One int64 key per ``(msg_id, endpoint)`` row."""
    return (msg_ids << _ENDPOINT_BITS) | endpoints


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
