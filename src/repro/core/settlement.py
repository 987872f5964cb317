"""First-arrival settlement of (message, endpoint) pairs, at append time.

Under multi-path routing — and under single-path routing across a route
change, when rows installed before and after it follow different sink
trees — one (message, endpoint) pair can arrive more than once; the
paper's accounting counts it once, at its first arrival, as valid or
late.  An endpoint's local rows live only in its edge broker's table, so
a pair can repeat only if the message is delivered locally twice at that
broker.  The system therefore settles each local delivery batch as it is
appended: :func:`first_marks` checks the batch's endpoint ids against the
batches of the same message delivered there before, and the delivery log
stores the outcome as its ``first`` column.  The production ledger
(:mod:`repro.pubsub.metrics`) and the windowed series
(:mod:`repro.analysis.timeseries`) both read that mark; neither keeps a
set of settled pairs.
"""

from __future__ import annotations

import numpy as np

#: Bits of a pair key below the message id: the delivery log stores both
#: ids as int32 and endpoint ids are non-negative (below 2**31), so
#: ``msg_id << 32 | endpoint`` is a unique int64 whose order is (message,
#: endpoint) order — non-negative for the system's message ids.
_ENDPOINT_BITS = 32


def pair_keys(msg_ids: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """One int64 key per ``(msg_id, endpoint)`` row, widened from the
    log's int32 ids in one allocation (the shift and the or work in place)."""
    keys = msg_ids.astype(np.int64)
    keys <<= _ENDPOINT_BITS
    keys |= endpoints
    return keys


def first_marks(
    earlier: list[np.ndarray], ids: np.ndarray, *, distinct: bool = False
) -> bool | np.ndarray:
    """Settle one delivery batch of one message: which of its endpoint
    ``ids`` arrive for the first time.

    ``earlier`` holds the id arrays of the message's batches appended
    before this one (to the same broker's endpoints, or to the same log);
    ``ids`` joins it.  A row is a first arrival if no earlier batch holds
    its id and, within the batch, the first occurrence wins.  When the
    caller knows the ids are ``distinct`` (a table's local group) and
    nothing came before, every row is first: the scalar ``True``, which
    the log broadcasts without allocating a mask.
    """
    if not earlier and distinct:
        earlier.append(ids)
        return True
    if earlier:
        seen = earlier[0] if len(earlier) == 1 else np.concatenate(earlier)
        mark = ~np.isin(ids, seen)
    else:
        mark = np.ones(ids.shape[0], dtype=bool)
    if not distinct and ids.shape[0] > 1:
        _, first = np.unique(ids, return_index=True)
        if first.shape[0] < ids.shape[0]:
            once = np.zeros(ids.shape[0], dtype=bool)
            once[first] = True
            mark &= once
    earlier.append(ids)
    return mark
