"""Evaluation counters (Section 4.1 and 6.1).

* **Delivery rate** (PSD): ``Σ ds_i / Σ ts_i`` over published messages,
  where ``ts_i`` is how many subscribers are interested in message ``i``
  and ``ds_i`` how many received it before its deadline.
* **Total earning** (SSD): ``Σ price(s) · msg(s)`` over subscribers.
* **Message number**: total messages received by all brokers — the
  network-traffic proxy the paper plots in Figs. 5(b)/6(b).

Both delivery-side metrics are pure functions of the delivery record.
Two collectors implement the accounting:

* :class:`LedgerMetricsCollector` (the production stack's) — a cursor
  reduction over the system's :class:`~repro.pubsub.client.DeliveryLog`.
  Brokers append each local fan-out to the log once; nothing else
  records it, each row marked with whether it is the first arrival of
  its ``(msg_id, endpoint)`` pair.  Reading a delivery-side counter
  reduces the rows appended since the last read: counts of the marked
  rows, per-message and per-endpoint tallies, and the float sums as left
  folds in log order.
* :class:`MetricsCollector` (the reference stack's, see
  :mod:`repro.reference`) — the original per-delivery dict/set collector,
  fed row by row by its brokers.

Both produce byte-identical derived metrics: the log's append order is
the order the scalar collector settles in, and both fold prices and
latencies left to right in that order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.folds import fold_sum_array
from repro.pubsub.client import DeliveryLog


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

    @classmethod
    def for_log(cls, log: DeliveryLog) -> "MetricsCollector":
        """A collector for a system whose deliveries ``log`` records; this
        one is fed per delivery by its brokers and never reads the log."""
        return cls()

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
        in batch order — it *is* the oracle for the ledger's reduction
        of the delivery log.
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


def _tally(counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``counts`` plus one per id, grown to cover the largest id."""
    add = np.bincount(ids)
    if add.shape[0] > counts.shape[0]:
        counts = np.concatenate((counts, np.zeros(add.shape[0] - counts.shape[0], np.int64)))
    counts[: add.shape[0]] += add
    return counts


class LedgerMetricsCollector:
    """The production collector: a cursor reduction over the delivery log.

    Publication-side counters (published, interested, receptions,
    transmissions, pruned) are fed per event, as in the scalar collector.
    The delivery side is never fed: the ledger keeps a row cursor into
    the :class:`~repro.pubsub.client.DeliveryLog` and, on every read of a
    delivery-side counter, reduces only the rows appended since the last
    read.  The log's ``first`` column already settles each ``(msg_id,
    endpoint)`` pair (:mod:`repro.core.settlement`, at append time), so
    the reduction keeps no set of settled pairs: valid and late counts of
    the marked rows, ``np.bincount`` tallies per message and per
    endpoint, and ``earning`` / ``latency_sum_ms`` as left folds in log
    order.  The log's append order is the order the scalar collector
    settles in, so both floats are byte-identical to its running sums.  A spilling log also runs the
    reduction just before each chunk goes to disk, so no row is ever read
    back from the spill ring.

    A ledger built without a log owns a private one, fed through the
    standalone entry points :meth:`on_delivery`, :meth:`on_delivery_batch`
    and :meth:`on_delivery_batch_ids` (subscribers become endpoints on
    first sight, at their first price); the log settles those rows by
    message id as they are appended, the first occurrence of a pair in a
    batch winning.  A system's ledger reduces the system's log, which its
    brokers append to; nothing else writes it.
    """

    def __init__(self, log: DeliveryLog | None = None) -> None:
        self.published = 0
        self.receptions = 0
        self.transmissions = 0
        self.pruned = 0
        self._interested: dict[int, int] = {}
        self._total_interested = 0
        self._log = log if log is not None else DeliveryLog()
        #: Standalone ledgers only: subscriber name -> endpoint id.
        self._endpoint_of: dict[str, int] | None = {} if log is None else None
        # The reduction: a row cursor, every row it has reduced (each row
        # exactly once) and the accumulators.
        self._cursor = 0
        self.rows_reduced = 0
        self._valid = 0
        self._late = 0
        self._earning = 0.0
        self._latency_sum = 0.0
        self._delivered = np.zeros(0, dtype=np.int64)  # per msg_id
        self._endpoint_valid = np.zeros(0, dtype=np.int64)  # per endpoint id
        if self._log.spills:
            self._log.before_spill(self._reduce)

    @classmethod
    def for_log(cls, log: DeliveryLog) -> "LedgerMetricsCollector":
        """The ledger of a system whose deliveries ``log`` records."""
        return cls(log)

    # ------------------------------------------------------------------ #
    # Recording.
    # ------------------------------------------------------------------ #
    def on_publish(self, msg_id: int, interested_subscribers: int) -> None:
        self.published += 1
        self._total_interested += interested_subscribers - self._interested.get(msg_id, 0)
        self._interested[msg_id] = interested_subscribers

    def on_reception(self) -> None:
        self.receptions += 1

    def on_transmission(self) -> None:
        self.transmissions += 1

    def on_prune(self, count: int = 1) -> None:
        self.pruned += count

    def on_delivery(self, msg_id: int, subscriber: str, latency_ms: float, price: float, valid: bool) -> None:
        """Standalone entry: one delivery attempt."""
        self.on_delivery_batch(
            msg_id, [subscriber], latency_ms, np.array([price]), np.array([valid])
        )

    def on_delivery_batch(
        self,
        msg_id: int,
        subscribers: list[str],
        latency_ms: float,
        prices: np.ndarray,
        valid: np.ndarray,
    ) -> None:
        """Standalone entry: one message's deliveries, by subscriber name."""
        if self._endpoint_of is None:
            raise MetricsError("a system's ledger reduces the system's delivery log")
        endpoints = np.empty(len(subscribers), dtype=np.int64)
        for i, (name, price) in enumerate(zip(subscribers, prices.tolist())):
            eid = self._endpoint_of.get(name)
            if eid is None:
                eid = self._endpoint_of[name] = self._log.register(name, price)
            elif self._log.endpoint_prices()[eid] != price:
                raise MetricsError(
                    f"{name!r} billed at {price}, subscribed at "
                    f"{self._log.endpoint_prices()[eid]}"
                )
            endpoints[i] = eid
        self.on_delivery_batch_ids(msg_id, endpoints, latency_ms, valid)

    def on_delivery_batch_ids(
        self, msg_id: int, endpoints: np.ndarray, latency_ms: float, valid: np.ndarray
    ) -> None:
        """Standalone entry: one message's deliveries, by endpoint id of
        the ledger's own log (arrival times are not known here); the log
        settles the rows against the message's earlier ones."""
        if self._endpoint_of is None:
            raise MetricsError("a system's ledger reduces the system's delivery log")
        self._log.append_batch(endpoints, msg_id, np.nan, latency_ms, valid)

    # ------------------------------------------------------------------ #
    # The reduction.
    # ------------------------------------------------------------------ #
    def _reduce(self) -> None:
        """Fold the log rows appended since the last read into the state."""
        log = self._log
        end = len(log)
        if self._cursor == end:
            return
        prices = log.endpoint_prices()
        for sub, msg, latency, valid, first in log.iter_chunks(
            ("sub_id", "msg_id", "latency", "valid", "first"), start=self._cursor
        ):
            self.rows_reduced += sub.shape[0]
            # Valid settlements in log order: the order they were earned in.
            counted = np.flatnonzero(first & valid)
            self._valid += counted.shape[0]
            self._late += int(np.count_nonzero(first)) - counted.shape[0]
            if counted.shape[0]:
                endpoints = sub[counted]
                # The documented left folds (repro.core.folds), seeded
                # with the running sums: the scalar collector's chain.
                self._earning = fold_sum_array(prices[endpoints], start=self._earning)
                self._latency_sum = fold_sum_array(latency[counted], start=self._latency_sum)
                self._delivered = _tally(self._delivered, msg[counted])
                self._endpoint_valid = _tally(self._endpoint_valid, endpoints)
        self._cursor = end

    # ------------------------------------------------------------------ #
    # Derived metrics.
    # ------------------------------------------------------------------ #
    @property
    def deliveries_valid(self) -> int:
        self._reduce()
        return self._valid

    @property
    def deliveries_late(self) -> int:
        self._reduce()
        return self._late

    @property
    def duplicate_deliveries(self) -> int:
        self._reduce()
        return self.rows_reduced - self._valid - self._late

    @property
    def earning(self) -> float:
        self._reduce()
        return self._earning

    @property
    def latency_sum_ms(self) -> float:
        self._reduce()
        return self._latency_sum

    @property
    def total_interested(self) -> int:
        return self._total_interested

    @property
    def delivery_rate(self) -> float:
        denom = self._total_interested
        return self.deliveries_valid / denom if denom else 0.0

    @property
    def mean_latency_ms(self) -> float:
        valid = self.deliveries_valid
        return self._latency_sum / valid if valid else 0.0

    @property
    def interested(self) -> dict[int, int]:
        """``msg_id -> ts_i`` (a copy)."""
        return dict(self._interested)

    @property
    def delivered(self) -> dict[int, int]:
        """``msg_id -> ds_i``, messages with ds_i > 0."""
        self._reduce()
        ids = np.flatnonzero(self._delivered)
        return dict(zip(ids.tolist(), self._delivered[ids].tolist()))

    @property
    def per_subscriber_valid(self) -> dict[str, int]:
        """``subscriber -> valid count`` (counts > 0); a name's endpoints
        (one per subscription it held) fold into one count."""
        self._reduce()
        names = self._log.endpoint_names
        ids = np.flatnonzero(self._endpoint_valid)
        out: dict[str, int] = {}
        for eid, count in zip(ids.tolist(), self._endpoint_valid[ids].tolist()):
            out[names[eid]] = out.get(names[eid], 0) + count
        return out

    def check_invariants(self) -> None:
        """Accounting sanity over the reduced state (real raises)."""
        self._reduce()
        if self.rows_reduced != self._cursor:
            raise MetricsError(f"reduced {self.rows_reduced} rows of the log's first {self._cursor}")
        per_msg, per_endpoint = int(self._delivered.sum()), int(self._endpoint_valid.sum())
        if self._valid != per_msg or self._valid != per_endpoint:
            raise MetricsError(
                f"valid-delivery total {self._valid} != per-message sum {per_msg} "
                f"/ per-endpoint sum {per_endpoint}"
            )
        if self._valid > self._total_interested:
            raise MetricsError("delivered more than the interested population")
        ids = np.flatnonzero(self._delivered)
        interested = np.fromiter(
            (self._interested.get(m, 0) for m in ids.tolist()), dtype=np.int64, count=ids.shape[0]
        )
        over = ids[self._delivered[ids] > interested]
        if over.shape[0]:
            raise MetricsError(f"over-delivery of msg {int(over[0])}")
        if self.receptions < 0 or self.pruned < 0:
            raise MetricsError("negative traffic counters")
        if self._earning < 0.0:
            raise MetricsError("negative earning")
