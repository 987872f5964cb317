"""Client endpoints: publishers and subscribers.

Clients talk to their edge broker locally (no access link is modelled,
matching the paper), so these classes are thin: a publisher stamps and
injects messages, a subscriber records what arrives.

Delivery records are column-oriented **and chunked**: all endpoints of
one system share a :class:`DeliveryLog` (msg_id/time/latency/valid/sub_id
columns in a :class:`~repro.core.chunked.ChunkedColumnStore`) that the
system appends to per batch, one broadcast write per (message, edge
broker).  Sealed chunks are immutable and — with ``log_spill`` enabled —
live on disk, so a run's delivery history no longer has to fit in RAM;
every inspection path below is a streaming reduction over chunks.  A
:class:`SubscriberHandle` is a view over its slice of the log;
``records`` materialises :class:`DeliveryRecord` objects lazily for the
analysis/tests surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.chunked import DEFAULT_CHUNK_ROWS, ChunkedColumnStore
from repro.core.growable import GrowableArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pubsub.message import Message
    from repro.pubsub.system import PubSubSystem


@dataclass
class PublisherHandle:
    """Named publisher bound to a system; counts what it published."""

    name: str
    system: "PubSubSystem"
    published: int = 0

    def publish(
        self,
        attributes: Mapping[str, float],
        size_kb: float | None = None,
        deadline_ms: float | None = None,
    ) -> "Message":
        message = self.system.publish(
            self.name, attributes, size_kb=size_kb, deadline_ms=deadline_ms
        )
        self.published += 1
        return message


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """One message arrival at a subscriber endpoint."""

    msg_id: int
    time: float
    latency_ms: float
    valid: bool


#: Column schema of the shared delivery log (chunk storage order): 25
#: bytes a row.  The ids are stored as int32 and widened to int64 by the
#: whole-column reads (:meth:`DeliveryLog.columns`, ``columns_for``).
_LOG_SCHEMA = (
    ("sub_id", np.int32),
    ("msg_id", np.int32),
    ("time", np.float64),
    ("latency", np.float64),
    ("valid", np.bool_),
)

#: Largest endpoint or message id the log stores.  Assigning a larger
#: int64 into an int32 column would wrap silently, so registration and
#: appends check against this bound first.
MAX_LOG_ID = int(np.iinfo(np.int32).max)


class LogIdOverflow(OverflowError):
    """An endpoint or message id does not fit the log's int32 id columns."""


class DeliveryLog:
    """Chunked columnar append-only store of local delivery attempts.

    One instance is shared by every endpoint of a system; a batch of
    deliveries (one message fanning out to many local subscribers) lands
    as a single slice write per column.  Endpoint ids are dense ints
    handed out by :meth:`register`, which also fixes the endpoint's name
    and price: a re-subscription is a new endpoint.  The log is the
    system's one delivery record — the metrics ledger is a reduction
    over it — so a row without a live endpoint is an error, never
    dropped.

    Rows live in fixed-size immutable chunks (``chunk_rows`` each); with
    ``spill=True`` sealed chunks are written to a private temp ``.npz``
    ring and only the active chunk stays hot — the memory high-water
    mark of the log becomes O(chunk), independent of run length.
    Chunking never reorders rows, so every chunk-streaming reduction
    below returns exactly what the old whole-array pass returned.
    """

    __slots__ = (
        "_store", "_names", "_prices", "_counts_len", "_valid_counts", "_total_counts",
    )

    def __init__(self, chunk_rows: int = DEFAULT_CHUNK_ROWS, spill: bool = False) -> None:
        self._store = ChunkedColumnStore(
            _LOG_SCHEMA, chunk_rows=chunk_rows, spill=spill,
            spill_prefix="repro-delivery-log",
        )
        #: Name and price per endpoint id, fixed at registration.
        self._names: list[str] = []
        self._prices = GrowableArray(np.float64)
        # One-pass per-endpoint tallies, cached against the log length:
        # post-run analysis (revenue tiers, per-subscriber counts) asks
        # for every endpoint, and a single chunk stream beats one full
        # scan per endpoint by a factor of the population size.
        self._counts_len = -1
        self._valid_counts: np.ndarray | None = None
        self._total_counts: np.ndarray | None = None

    def register(self, name: str, price: float = 1.0) -> int:
        """Hand out the next endpoint id, billed at ``price`` per valid
        delivery (re-subscribing yields a fresh id, so a returned handle
        keeps its own history)."""
        return self.register_many([name], [price])

    def register_many(self, names: list[str], prices: list[float]) -> int:
        """Bulk :meth:`register`: ids ``first .. first + len(names) - 1``
        in order; returns ``first``.  Raises :class:`LogIdOverflow`, and
        registers nothing, if the last id would pass :data:`MAX_LOG_ID`."""
        first = len(self._names)
        if first + len(names) - 1 > MAX_LOG_ID:
            raise LogIdOverflow(
                f"registering {len(names)} endpoints after {first} would pass "
                f"the log's largest endpoint id {MAX_LOG_ID}"
            )
        self._names.extend(names)
        self._prices.extend(np.asarray(prices, dtype=np.float64))
        return first

    @property
    def endpoint_count(self) -> int:
        """Endpoints registered so far (dense ids ``0..count-1``)."""
        return len(self._names)

    @property
    def endpoint_names(self) -> list[str]:
        """Subscriber name per endpoint id (read, do not write)."""
        return self._names

    def endpoint_prices(self) -> np.ndarray:
        """Price per endpoint id: a live view, read, do not write."""
        return self._prices.view()

    @property
    def chunk_rows(self) -> int:
        return self._store.chunk_rows

    @property
    def spilled_chunks(self) -> int:
        """Sealed chunks currently resident on disk rather than in RAM."""
        return self._store.spilled_chunks

    @property
    def spills(self) -> bool:
        return self._store.spills

    def __len__(self) -> int:
        return len(self._store)

    def before_spill(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` before each full chunk of a spilling log is
        written to disk (see :meth:`ChunkedColumnStore.before_spill`)."""
        self._store.before_spill(hook)

    # ------------------------------------------------------------------ #
    # Appending.
    # ------------------------------------------------------------------ #
    def append(self, sub_id: int, msg_id: int, time: float, latency_ms: float, valid: bool) -> None:
        _check_msg_id(msg_id)
        self._store.append_row(sub_id, msg_id, time, latency_ms, valid)

    def append_batch(
        self,
        sub_ids: np.ndarray,
        msg_id: int,
        time: float,
        latency_ms: float,
        valid: np.ndarray,
    ) -> None:
        """One message's local fan-out: shared msg/time/latency scalars
        (broadcast, no temporaries), per-row endpoint id and validity.
        A row with ``sub_id < 0`` (no live endpoint) raises
        :class:`~repro.pubsub.metrics.MetricsError`: it would be a billed
        delivery lost without a trace; a ``msg_id`` the int32 column
        cannot hold raises :class:`LogIdOverflow`."""
        n = sub_ids.shape[0]
        if n == 0:
            return
        _check_msg_id(msg_id)
        if sub_ids.min() < 0:
            from repro.pubsub.metrics import MetricsError  # metrics imports this module

            lost = int(np.count_nonzero(sub_ids < 0))
            raise MetricsError(
                f"{lost} of {n} deliveries of msg {msg_id} have no live endpoint"
            )
        self._store.append_batch(n, sub_ids, msg_id, time, latency_ms, valid)

    # ------------------------------------------------------------------ #
    # Streaming reads.
    # ------------------------------------------------------------------ #
    def iter_chunks(
        self, names: Sequence[str] | None = None, start: int = 0
    ) -> Iterator[tuple[np.ndarray, ...]]:
        """Stream ``(col, ...)`` tuples per chunk in append (= simulated
        time) order, from row ``start`` on — the input of every analysis
        reduction and of the metrics ledger.  Spilled chunks load only the
        requested columns.  Ids come as stored (int32).  Do not mutate
        yields; consume before appending again."""
        return self._store.iter_chunks(names, start)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Whole-log ``(sub_id, msg_id, time, latency, valid)`` columns in
        append order, as **snapshot copies** — safe to hold across later
        appends (unlike the pre-chunking zero-copy views), but the whole
        log is materialised: prefer :meth:`iter_chunks` at scale.  The ids
        are widened to int64."""
        sub, msg, time, latency, valid = self._store.gather()
        return sub.astype(np.int64), msg.astype(np.int64), time, latency, valid

    def endpoint_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(total, valid) delivery tallies indexed by endpoint id, one
        streaming pass over (sub_id, valid), cached against the log
        length.  The arrays are the cache itself: read, do not write."""
        n = len(self._store)
        if n != self._counts_len:
            total = np.zeros(max(self.endpoint_count, 1), dtype=np.int64)
            valid_c = np.zeros(max(self.endpoint_count, 1), dtype=np.int64)
            for sub, valid in self._store.iter_chunks(("sub_id", "valid")):
                total += np.bincount(sub, minlength=total.shape[0])
                valid_c += np.bincount(sub[valid], minlength=valid_c.shape[0])
            self._total_counts, self._valid_counts = total, valid_c
            self._counts_len = n
        elif self._total_counts is not None and self._total_counts.shape[0] < self.endpoint_count:
            # Endpoints registered since the cache was built have no rows
            # by construction (ids are handed out before first use): pad
            # with zeros instead of re-streaming the (possibly spilled) log.
            pad = self.endpoint_count - self._total_counts.shape[0]
            self._total_counts = np.concatenate(
                (self._total_counts, np.zeros(pad, dtype=np.int64))
            )
            self._valid_counts = np.concatenate(
                (self._valid_counts, np.zeros(pad, dtype=np.int64))
            )
        return self._total_counts, self._valid_counts  # type: ignore[return-value]

    def counts_for(self, sub_id: int) -> tuple[int, int]:
        """(total, valid) deliveries recorded for one endpoint."""
        total, valid = self.endpoint_counts()
        if sub_id >= total.shape[0]:
            return 0, 0
        return int(total[sub_id]), int(valid[sub_id])

    def columns_for(self, sub_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(msg_id, time, latency, valid) columns of one endpoint, in
        arrival order (copies — safe to hold across later appends; the
        message ids widened to int64).

        A per-call streaming filter: each call scans every chunk (from
        disk, under spill), gathering only the matching rows.  That is
        the deliberate bounded-memory trade for dropping the old
        whole-log grouped index; code inspecting *many* endpoints must
        not loop over this — the mass consumers in :mod:`repro.analysis`
        (pooled latency samples, received sets, per-endpoint tallies)
        each group one shared streaming pass instead."""
        parts: list[tuple[np.ndarray, ...]] = []
        for sub, msg, time, lat, valid in self._store.iter_chunks():
            hit = sub == sub_id
            if hit.any():
                parts.append((msg[hit].astype(np.int64), time[hit], lat[hit], valid[hit]))
        if not parts:
            return (
                np.empty(0, dtype=np.int64), np.empty(0), np.empty(0),
                np.empty(0, dtype=bool),
            )
        if len(parts) == 1:
            return parts[0]  # fancy-index results are already copies
        return tuple(np.concatenate([p[i] for p in parts]) for i in range(4))  # type: ignore[return-value]


def _check_msg_id(msg_id: int) -> None:
    if not -MAX_LOG_ID - 1 <= msg_id <= MAX_LOG_ID:
        raise LogIdOverflow(
            f"msg_id {msg_id} does not fit the log's int32 message ids "
            f"(largest {MAX_LOG_ID})"
        )


def endpoints_by_log(
    handles: Iterable["SubscriberHandle"],
) -> list[tuple[DeliveryLog, np.ndarray]]:
    """``(log, endpoint ids)`` per distinct backing log, first-seen order
    (ids in handle order, a handle listed twice appears twice).

    The one per-handle step of the pooled reducers in
    :mod:`repro.analysis`: two slot reads, no Python call per handle."""
    by_log: dict[DeliveryLog, list[int]] = {}
    for handle in handles:
        by_log.setdefault(handle._log, []).append(handle._sub_id)
    return [(log, np.array(ids, dtype=np.int64)) for log, ids in by_log.items()]


class SubscriberHandle:
    """Named subscriber endpoint: a view over the shared delivery log.

    Constructed standalone (tests, ad-hoc use) it owns a private log;
    inside a system all handles share the system's log so deliveries
    append in bulk.  A ``log_id`` the log already registered (in bulk,
    with its price) is taken as is; otherwise the handle registers
    itself at the log's default price.
    """

    __slots__ = ("name", "_log", "_sub_id", "_cache_len", "_cache")

    def __init__(
        self,
        name: str,
        log: DeliveryLog | None = None,
        log_id: int | None = None,
    ) -> None:
        self.name = name
        self._log = log if log is not None else DeliveryLog()
        self._sub_id = self._log.register(name) if log_id is None else log_id
        self._cache_len = -1
        self._cache: list[DeliveryRecord] = []

    @property
    def log_id(self) -> int:
        """This endpoint's dense id in the shared delivery log."""
        return self._sub_id

    @property
    def log(self) -> DeliveryLog:
        """The (possibly shared) delivery log backing this endpoint."""
        return self._log

    # ------------------------------------------------------------------ #
    # Recording.
    # ------------------------------------------------------------------ #
    def on_delivery(self, message: "Message", latency_ms: float, valid: bool, now: float) -> None:
        self._log.append(self._sub_id, message.msg_id, now, latency_ms, valid)

    def record(self, msg_id: int, time: float, latency_ms: float, valid: bool) -> None:
        """Append one raw record (test/analysis convenience)."""
        self._log.append(self._sub_id, msg_id, time, latency_ms, valid)

    # ------------------------------------------------------------------ #
    # Inspection.
    # ------------------------------------------------------------------ #
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(msg_id, time, latency_ms, valid) arrays, arrival order."""
        return self._log.columns_for(self._sub_id)

    @property
    def records(self) -> list[DeliveryRecord]:
        """Lazy materialisation of the endpoint's delivery records.

        Cached against the shared log's length; treat the list as
        read-only (use :meth:`record` / :meth:`on_delivery` to add)."""
        n = len(self._log)
        if n != self._cache_len:
            msg, time, lat, valid = self.columns()
            self._cache = [
                DeliveryRecord(m, t, l, v)
                for m, t, l, v in zip(
                    msg.tolist(), time.tolist(), lat.tolist(), valid.tolist()
                )
            ]
            self._cache_len = n
        return self._cache

    @property
    def valid_count(self) -> int:
        _, valid = self._log.counts_for(self._sub_id)
        return valid

    @property
    def late_count(self) -> int:
        total, valid = self._log.counts_for(self._sub_id)
        return total - valid

    def received_ids(self) -> set[int]:
        out: set[int] = set()
        for sub, msg in self._log.iter_chunks(("sub_id", "msg_id")):
            out.update(msg[sub == self._sub_id].tolist())
        return out
