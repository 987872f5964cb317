"""Evaluation counters (Section 4.1 and 6.1).

* **Delivery rate** (PSD): ``Σ ds_i / Σ ts_i`` over published messages,
  where ``ts_i`` is how many subscribers are interested in message ``i``
  and ``ds_i`` how many received it before its deadline.
* **Total earning** (SSD): ``Σ price(s) · msg(s)`` over subscribers.
* **Message number**: total messages received by all brokers — the
  network-traffic proxy the paper plots in Figs. 5(b)/6(b).

Two collectors implement the accounting:

* :class:`LedgerMetricsCollector` (the production stack's) — the
  columnar spine: subscribers and messages interned to dense ids,
  per-message duplicate settlement via flat sorted settled-id arrays,
  tallies in growable numpy accumulators, and a batched
  ``on_delivery_batch_ids`` entry point matched to the broker's batched
  local delivery.
* :class:`MetricsCollector` (the reference stack's, see
  :mod:`repro.reference`) — the original per-delivery dict/set collector.

Both produce byte-identical derived metrics: the ledger logs the float
contributions (prices, latencies) in arrival order and folds them with
the same left-to-right summation the scalar collector performs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.folds import fold_sum_array
from repro.core.growable import GrowableArray

class MetricsError(AssertionError):
    """An accounting invariant does not hold.

    Subclasses :class:`AssertionError` for backwards compatibility, but is
    raised explicitly so the checks survive ``python -O``.
    """


@dataclass
class MetricsCollector:
    """Mutable counters updated by the system while the simulation runs.

    The reference stack's collector: one Python call per delivery, pair
    settlement via ``(msg_id, subscriber)`` tuple sets.
    """

    published: int = 0
    receptions: int = 0  # "message number"
    transmissions: int = 0
    deliveries_valid: int = 0
    deliveries_late: int = 0
    pruned: int = 0  # queue entries deleted as invalid/hopeless
    earning: float = 0.0
    interested: dict[int, int] = field(default_factory=dict)  # msg_id -> ts_i
    delivered: dict[int, int] = field(default_factory=lambda: defaultdict(int))  # msg_id -> ds_i
    per_subscriber_valid: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    latency_sum_ms: float = 0.0
    # Pair-level dedup: under multi-path routing the same (message,
    # subscriber) pair can arrive more than once; only the first arrival
    # counts (single-path routing never produces duplicates, so this is a
    # no-op there).  Keys are (msg_id, subscriber).
    _valid_pairs: set = field(default_factory=set, repr=False)
    _late_pairs: set = field(default_factory=set, repr=False)
    duplicate_deliveries: int = 0

    # ------------------------------------------------------------------ #
    # Recording.
    # ------------------------------------------------------------------ #
    def on_publish(self, msg_id: int, interested_subscribers: int) -> None:
        self.published += 1
        self.interested[msg_id] = interested_subscribers

    def on_reception(self) -> None:
        self.receptions += 1

    def on_transmission(self) -> None:
        self.transmissions += 1

    def on_delivery(self, msg_id: int, subscriber: str, latency_ms: float, price: float, valid: bool) -> None:
        pair = (msg_id, subscriber)
        if pair in self._valid_pairs or pair in self._late_pairs:
            self.duplicate_deliveries += 1
            return
        if valid:
            self._valid_pairs.add(pair)
            self.deliveries_valid += 1
            self.delivered[msg_id] += 1
            self.per_subscriber_valid[subscriber] += 1
            self.earning += price
            self.latency_sum_ms += latency_ms
        else:
            # Arrivals are time-ordered, so a late first arrival implies
            # every later duplicate is late too — safe to settle the pair.
            self._late_pairs.add(pair)
            self.deliveries_late += 1

    def on_delivery_batch(
        self,
        msg_id: int,
        subscribers: list[str],
        latency_ms: float,
        prices: np.ndarray,
        valid: np.ndarray,
    ) -> None:
        """One message's local deliveries at one broker, settled per row.

        All rows of a batch share the arrival time (hence one scalar
        ``latency_ms``); this collector just replays the per-row path
        in batch order — it *is* the oracle for the ledger's batched
        settlement.
        """
        for sub, price, ok in zip(subscribers, prices.tolist(), valid.tolist()):
            self.on_delivery(msg_id, sub, latency_ms, price, ok)

    def on_prune(self, count: int = 1) -> None:
        self.pruned += count

    # ------------------------------------------------------------------ #
    # Derived metrics.
    # ------------------------------------------------------------------ #
    @property
    def total_interested(self) -> int:
        # repro-lint: ignore[RL006] -- exact integer tally (int counters)
        return sum(self.interested.values())

    @property
    def delivery_rate(self) -> float:
        """``Σ ds_i / Σ ts_i`` — 0.0 when nothing was publishable."""
        denom = self.total_interested
        return self.deliveries_valid / denom if denom else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_sum_ms / self.deliveries_valid if self.deliveries_valid else 0.0

    def check_invariants(self) -> None:
        """Accounting sanity: raise :class:`MetricsError` on impossible
        counters (a real raise, not ``assert`` — survives ``python -O``)."""
        # repro-lint: ignore[RL006] -- exact integer tally (int counters)
        if self.deliveries_valid != sum(self.delivered.values()):
            raise MetricsError(
                f"valid-delivery total {self.deliveries_valid} != per-message "
                f"sum {sum(self.delivered.values())}"  # repro-lint: ignore[RL006]
            )
        if self.deliveries_valid > self.total_interested:
            raise MetricsError("delivered more than the interested population")
        for msg_id, count in self.delivered.items():
            if count > self.interested.get(msg_id, 0):
                raise MetricsError(f"over-delivery of msg {msg_id}")
        if self.receptions < 0 or self.pruned < 0:
            raise MetricsError("negative traffic counters")
        if self.earning < 0.0:
            raise MetricsError("negative earning")


_EMPTY_SETTLED = np.empty(0, dtype=np.int64)


class _FoldedSum:
    """Float contributions logged in arrival order, folded left-to-right
    on read.

    The fold order is correctness-critical: it reproduces byte-for-byte
    the running ``acc += value`` sum the scalar collector keeps, while
    appends on the hot path stay vectorised.  The fold is amortised O(1)
    per read (a watermark remembers what has been folded).

    Memory is **bounded**: once the unfolded tail reaches ``_TRIM_AT``
    entries the log is folded into the accumulator and discarded —
    folding earlier performs exactly the same additions in exactly the
    same order, so trimming is invisible in the result, and the ledger's
    float state stays O(1) over million-delivery runs instead of
    retaining every contribution.
    """

    __slots__ = ("_log", "_folded", "_acc")

    #: Fold-and-trim threshold (entries); small enough to bound memory,
    #: large enough that the Python fold loop stays amortised.
    _TRIM_AT = 65_536

    def __init__(self) -> None:
        self._log = GrowableArray(np.float64)
        self._folded = 0
        self._acc = 0.0

    def append(self, value: float) -> None:
        self._log.append(value)
        if len(self._log) >= self._TRIM_AT:
            self._fold_and_trim()

    def extend(self, values: np.ndarray) -> None:
        self._log.extend(values)
        if len(self._log) >= self._TRIM_AT:
            self._fold_and_trim()

    def _fold_and_trim(self) -> None:
        self.value()
        self._log = GrowableArray(np.float64)
        self._folded = 0

    def value(self) -> float:
        n = len(self._log)
        if self._folded < n:
            tail = self._log.view()[self._folded:]
            # The documented left fold (repro.core.folds): the same
            # sequential chain of float64 additions as the scalar
            # ``acc += v`` loop, seeded with the accumulator — the
            # running sum byte-for-byte, no Python loop over the tail.
            self._acc = fold_sum_array(tail, start=self._acc)
            self._folded = n
        return self._acc


class LedgerMetricsCollector:
    """Array-backed accounting: the columnar spine's ledger.

    Subscribers and messages are interned to dense ids on first sight
    (the same counting-index discipline the vector matcher applies to
    rows), per-message pair settlement is a flat sorted array of settled
    subscriber ids probed with ``searchsorted``, and per-message /
    per-subscriber tallies are growable numpy accumulators.  Float
    contributions (prices of counted valid deliveries, their latencies)
    are appended in arrival order and folded left-to-right on read, so
    ``earning`` and ``mean_latency_ms`` are byte-identical to the scalar
    collector's running sums.
    """

    def __init__(self) -> None:
        self.published = 0
        self.receptions = 0
        self.transmissions = 0
        self.deliveries_valid = 0
        self.deliveries_late = 0
        self.pruned = 0
        self.duplicate_deliveries = 0
        # Message interning and per-message tallies (dense mid-indexed).
        self._mid_of: dict[int, int] = {}
        self._msg_ids: list[int] = []
        self._interested = GrowableArray(np.int64)
        self._delivered = GrowableArray(np.int64)
        #: Per message: sorted array of settled subscriber ids (valid and
        #: late alike — settlement is first-arrival-wins either way).
        self._settled: list[np.ndarray] = []
        # Subscriber interning and per-subscriber tallies.
        self._sid_of: dict[str, int] = {}
        self._sub_names: list[str] = []
        self._sub_valid = GrowableArray(np.int64)
        # Float contribution logs (arrival order, folded on read).
        self._earn = _FoldedSum()
        self._lat = _FoldedSum()
        self._total_interested = 0

    # ------------------------------------------------------------------ #
    # Interning.
    # ------------------------------------------------------------------ #
    def _mid(self, msg_id: int) -> int:
        mid = self._mid_of.get(msg_id)
        if mid is None:
            mid = self._mid_of[msg_id] = len(self._msg_ids)
            self._msg_ids.append(msg_id)
            self._interested.at_least(mid + 1)
            self._delivered.at_least(mid + 1)
            self._settled.append(_EMPTY_SETTLED)
        return mid

    def _sid(self, subscriber: str) -> int:
        sid = self._sid_of.get(subscriber)
        if sid is None:
            sid = self._sid_of[subscriber] = len(self._sub_names)
            self._sub_names.append(subscriber)
        return sid

    # ------------------------------------------------------------------ #
    # Recording.
    # ------------------------------------------------------------------ #
    def on_publish(self, msg_id: int, interested_subscribers: int) -> None:
        self.published += 1
        mid = self._mid(msg_id)
        col = self._interested.view()
        self._total_interested += interested_subscribers - int(col[mid])
        col[mid] = interested_subscribers

    def on_reception(self) -> None:
        self.receptions += 1

    def on_transmission(self) -> None:
        self.transmissions += 1

    def on_prune(self, count: int = 1) -> None:
        self.pruned += count

    def intern_subscribers(self, names: list[str]) -> np.ndarray:
        """Dense ledger ids for a name column, in order.

        Brokers call this once per growth of their table's interned name
        list and cache the result, so batched settlement maps table-local
        subscriber ids to ledger ids with one fancy index — no per-row
        dict lookups on the delivery path.
        """
        return np.fromiter(map(self._sid, names), dtype=np.int64, count=len(names))

    def _settle_one(self, mid: int, sid: int, latency_ms: float, price: float, valid: bool) -> None:
        settled = self._settled[mid]
        pos = int(np.searchsorted(settled, sid))
        if pos < settled.size and settled[pos] == sid:
            self.duplicate_deliveries += 1
            return
        self._settled[mid] = np.insert(settled, pos, sid)
        if valid:
            self.deliveries_valid += 1
            self._delivered.view()[mid] += 1
            self._sub_valid.at_least(sid + 1)[sid] += 1
            self._earn.append(price)
            self._lat.append(latency_ms)
        else:
            self.deliveries_late += 1

    def on_delivery(self, msg_id: int, subscriber: str, latency_ms: float, price: float, valid: bool) -> None:
        """Scalar entry point (API parity with the oracle collector)."""
        self._settle_one(self._mid(msg_id), self._sid(subscriber), latency_ms, price, valid)

    def on_delivery_batch(
        self,
        msg_id: int,
        subscribers: list[str],
        latency_ms: float,
        prices: np.ndarray,
        valid: np.ndarray,
    ) -> None:
        """Settle one message's local deliveries at one broker in bulk."""
        if subscribers:
            self.on_delivery_batch_ids(
                msg_id, self.intern_subscribers(subscribers), latency_ms, prices, valid
            )

    def on_delivery_batch_ids(
        self,
        msg_id: int,
        sids: np.ndarray,
        latency_ms: float,
        prices: np.ndarray,
        valid: np.ndarray,
        assume_unique: bool = False,
    ) -> None:
        """Batched settlement with pre-interned ledger subscriber ids
        (see :meth:`intern_subscribers`).

        Rows are expected unique per subscriber within a batch (the
        broker's ``match_grouped`` dedups per group and passes
        ``assume_unique=True`` to skip the check); when the check runs and
        fails, the batch falls back to the order-exact scalar path.
        """
        n = sids.shape[0]
        if n == 0:
            return
        mid = self._mid(msg_id)
        settled = self._settled[mid]
        pos = np.searchsorted(settled, sids)
        dup = np.zeros(n, dtype=bool)
        in_range = pos < settled.size
        dup[in_range] = settled[pos[in_range]] == sids[in_range]
        fresh = ~dup
        fresh_ids = sids[fresh]
        if not assume_unique and np.unique(fresh_ids).size != fresh_ids.size:
            # Intra-batch duplicate subscribers: replay row by row so the
            # first-arrival-wins order is exact.
            for sid, price, ok in zip(sids.tolist(), prices.tolist(), valid.tolist()):
                self._settle_one(mid, sid, latency_ms, price, ok)
            return
        ndup = int(dup.sum())
        self.duplicate_deliveries += ndup
        if ndup == n:
            return
        valid_new = valid & fresh
        nv = int(np.count_nonzero(valid_new))
        self.deliveries_valid += nv
        self.deliveries_late += (n - ndup) - nv
        if nv:
            self._delivered.view()[mid] += nv
            vids = sids[valid_new]
            tallies = self._sub_valid.at_least(int(vids.max()) + 1)
            # ``vids`` are unique (intra-batch repeats took the scalar path
            # above), so a buffered fancy-index add counts each once.
            tallies[vids] += 1
            self._earn.extend(prices[valid_new])
            self._lat.extend(np.full(nv, latency_ms))
        # Settled and fresh are disjoint sorted-unique sets, so their
        # concatenation sorted in place is exactly the merged set.
        merged = np.concatenate((settled, fresh_ids))
        merged.sort()
        self._settled[mid] = merged

    # ------------------------------------------------------------------ #
    # Derived metrics.
    # ------------------------------------------------------------------ #
    @property
    def earning(self) -> float:
        return self._earn.value()

    @property
    def latency_sum_ms(self) -> float:
        return self._lat.value()

    @property
    def total_interested(self) -> int:
        return self._total_interested

    @property
    def delivery_rate(self) -> float:
        denom = self._total_interested
        return self.deliveries_valid / denom if denom else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_sum_ms / self.deliveries_valid if self.deliveries_valid else 0.0

    @property
    def interested(self) -> dict[int, int]:
        """Materialised ``msg_id -> ts_i`` view (oracle-dict parity)."""
        col = self._interested.view()
        return {m: int(col[i]) for i, m in enumerate(self._msg_ids)}

    @property
    def delivered(self) -> dict[int, int]:
        """Materialised ``msg_id -> ds_i`` view, messages with ds_i > 0."""
        col = self._delivered.view()
        return {m: int(col[i]) for i, m in enumerate(self._msg_ids) if col[i]}

    @property
    def per_subscriber_valid(self) -> dict[str, int]:
        """Materialised ``subscriber -> valid count`` view (counts > 0)."""
        col = self._sub_valid.view()
        n = col.shape[0]
        return {
            s: int(col[i])
            for i, s in enumerate(self._sub_names)
            if i < n and col[i]
        }

    def check_invariants(self) -> None:
        """Accounting sanity over the ledger arrays (real raises)."""
        delivered = self._delivered.view()
        interested = self._interested.view()
        if self.deliveries_valid != int(delivered.sum()):
            raise MetricsError(
                f"valid-delivery total {self.deliveries_valid} != per-message "
                f"sum {int(delivered.sum())}"
            )
        if self.deliveries_valid > self._total_interested:
            raise MetricsError("delivered more than the interested population")
        over = np.flatnonzero(delivered > interested)
        if over.size:
            raise MetricsError(f"over-delivery of msg {self._msg_ids[int(over[0])]}")
        if self.receptions < 0 or self.pruned < 0:
            raise MetricsError("negative traffic counters")
        if self.earning < 0.0:
            raise MetricsError("negative earning")
