"""Subscriptions and the per-broker subscription table (Section 4.2).

The paper's table row is ``(subscriber, filter, dl, pr, nb, NN_p, μ_p,
σ_p²)``.  :class:`TableRow` carries exactly that, plus the set of source
(publisher-hosting) brokers for which this broker lies on the routing path —
the provenance check that makes single-path routing duplicate-free on a
mesh (see :mod:`repro.pubsub.system`).

The table is columnar in storage: every installed row gets a dense integer
row id, its attributes live in one growable record array beside a per-row
reference to the shared :class:`Subscription`, and matching produces
row-id arrays — provenance filtering, duplicate settlement and per-hop
grouping are numpy operations, a :class:`RowGroup`'s :class:`RowArrays` a
fancy-index gather.  :class:`TableRow` is the public value type, built
from the columns only when a caller asks for rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.growable import GrowableArray
from repro.pubsub.filters import Filter
from repro.pubsub.matching import PredicateColumns, VectorCountingMatcher
from repro.pubsub.message import Message
from repro.stats.normal import Normal


@dataclass(frozen=True, slots=True)
class Subscription:
    """A subscriber's standing interest.

    ``deadline_ms`` / ``price`` are the SSD scenario's ``dl`` / ``pr``;
    both are ``None`` in the pure PSD scenario (the paper then treats the
    price as 1, which :mod:`repro.core.metrics` does).
    """

    subscriber: str
    filter: Filter
    deadline_ms: float | None = None
    price: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and not self.deadline_ms > 0.0:  # NaN too
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.price is not None and not self.price >= 0.0:
            raise ValueError(f"price must be non-negative, got {self.price}")


@dataclass(frozen=True, slots=True)
class TableRow:
    """One subscription-table entry at one broker.

    ``next_hop is None`` means the subscriber is local to this broker.
    ``nn``, ``rate`` describe the remaining path (``NN_p``, ``TR_p``).
    ``sources`` is the set of publisher-hosting brokers whose routed path
    to this subscriber passes through this broker; a message is forwarded
    on this row only if its source broker is in the set.

    ``path_id`` distinguishes rows when the multi-path routing extension
    installs several routes for the same subscriber (single-path routing
    always uses 0).

    ``min_msg_id`` is the subscription's epoch: the row only matches
    messages whose id is at least this value.  Message ids are assigned in
    publish-execution order, so a watermark taken at subscribe time makes
    a mid-run subscriber (churn wave, flash crowd) see exactly the
    messages published after it joined — the same set its membership in
    the interested-population count covers — and never an in-flight older
    message (which would over-deliver against Eq. 1's ``ts_i``).  0 (all
    rows installed before t=0) matches everything.
    """

    subscription: Subscription
    next_hop: str | None
    nn: int
    rate: Normal
    sources: frozenset[str]
    path_id: int = 0
    min_msg_id: int = 0

    @property
    def is_local(self) -> bool:
        return self.next_hop is None

    @property
    def subscriber(self) -> str:
        return self.subscription.subscriber

    @property
    def deadline_ms(self) -> float | None:
        return self.subscription.deadline_ms

    @property
    def price(self) -> float | None:
        return self.subscription.price


class Route(NamedTuple):
    """A :class:`TableRow` minus its subscription: what every subscriber
    sharing one routed path through a broker has in common."""

    next_hop: str | None
    nn: int
    rate: Normal
    sources: frozenset[str]
    path_id: int = 0
    min_msg_id: int = 0


@dataclass(frozen=True, slots=True)
class RowBlock:
    """Columnar argument of :meth:`SubscriptionTable.install_many`: row
    ``i`` is ``TableRow(subscriptions[i], *routes[route[i]])``; ``preds``
    optionally carries the rows' filters as
    :class:`~repro.pubsub.matching.PredicateColumns`, computed once per
    batch however many brokers install it."""

    subscriptions: list[Subscription]
    preds: PredicateColumns | None
    route: np.ndarray
    routes: list[Route]

    def __len__(self) -> int:
        return len(self.subscriptions)


class StaleRowGroupError(RuntimeError):
    """:attr:`RowGroup.rows` was first read after the table mutated: the
    row ids may by now name another subscriber's rows (free-id reuse)."""


class RowGroup:
    """A matched set of rows of one table, addressed by row-id array.

    ``arrays`` gathers the table's column arrays by fancy index — no
    per-row attribute access — and ``sub_ids``/``subscribers`` expose the
    table's interned subscriber column for the batched delivery spine.
    ``rows`` materialises the :class:`TableRow` objects lazily (the
    per-row scoring paths and queue entries need them; batched local
    delivery never does).  Groups are snapshots taken at match time: the
    compiled column copies are captured immediately, so a later table
    mutation cannot skew a group already handed out.  ``rows`` reads the
    live storage, so it must be materialised before the table mutates
    again (the broker does so at enqueue time, in the same processing
    step as the match); a first read later raises :class:`StaleRowGroupError`.
    """

    __slots__ = ("row_ids", "_table", "_version", "_cols", "_arrays", "_rows",
                 "_subscribers", "_deadline", "_price")

    def __init__(self, table: "SubscriptionTable", row_ids: np.ndarray) -> None:
        self.row_ids = row_ids
        self._table = table
        self._version = table._version
        self._cols = (table._c_cols5, table._c_sub, table._sub_names)
        self._arrays: RowArrays | None = None
        self._rows: list[TableRow] | None = None
        self._subscribers: list[str] | None = None
        self._deadline: np.ndarray | None = None
        self._price: np.ndarray | None = None

    @property
    def rows(self) -> list[TableRow]:
        if self._rows is None:
            if self._table._version != self._version:
                raise StaleRowGroupError(
                    f"table version {self._version} -> {self._table._version} before rows were read"
                )
            self._rows = self._table._materialise(self.row_ids)
        return self._rows

    @property
    def arrays(self) -> "RowArrays":
        if self._arrays is None:
            # Five 1-D gathers over the stacked matrix's contiguous row
            # views (the generic 2-D advanced-indexing path is slower).
            cols5 = self._cols[0]
            ids = self.row_ids
            self._arrays = RowArrays(
                nn=cols5[0][ids], mean=cols5[1][ids], std=cols5[2][ids],
                deadline=cols5[3][ids], price=cols5[4][ids],
            )
        return self._arrays

    @property
    def deadline(self) -> np.ndarray:
        """The group's deadline column alone (``inf`` = unspecified); the
        local-delivery path needs just this and ``price``, not the full
        five-column :attr:`arrays` gather."""
        if self._deadline is None:
            self._deadline = self._cols[0][3][self.row_ids]
        return self._deadline

    @property
    def price(self) -> np.ndarray:
        """The group's price column alone (1.0 = unspecified)."""
        if self._price is None:
            self._price = self._cols[0][4][self.row_ids]
        return self._price

    @property
    def sub_ids(self) -> np.ndarray:
        """Table-interned subscriber ids, one per row (dense, stable)."""
        return self._cols[1][self.row_ids]

    @property
    def sub_names(self) -> list[str]:
        """The owning table's full interned-name column (append-only):
        ``sub_names[sub_ids[i]]`` is row ``i``'s subscriber.  Callers key
        translation caches on ``len(sub_names)``."""
        return self._cols[2]

    @property
    def subscribers(self) -> list[str]:
        """Subscriber names, one per row, via the table's interning
        (``_sub_names`` is append-only, so the capture is a snapshot)."""
        if self._subscribers is None:
            names = self._cols[2]
            self._subscribers = [names[i] for i in self.sub_ids]
        return self._subscribers

    def __len__(self) -> int:
        return int(self.row_ids.shape[0])

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i: int) -> TableRow:
        return self.rows[i]


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_NO_NAMES = np.empty(0, dtype="U1")

#: One record per row id (dead rows keep stale values; the matcher never
#: returns their ids).  ``deadline``/``price`` hold the scoring defaults
#: (``inf``/1.0) for unspecified values — the subscription keeps the
#: ``None``s; ``hop`` is −1 for local rows; ``hop``/``sub``/``src_set``
#: are table-interned ids.
_ROW_DTYPE = np.dtype([
    ("mean", np.float64), ("variance", np.float64), ("deadline", np.float64),
    ("price", np.float64), ("min_msg", np.int64), ("nn", np.int32), ("hop", np.int32),
    ("sub", np.int32), ("path", np.int32), ("src_set", np.int32),
], align=True)


def _intern(key, id_of: dict, by_id: list) -> int:
    i = id_of.get(key)
    if i is None:
        i = id_of[key] = len(by_id)
        by_id.append(key)
    return i


def _intern_many(keys: list, id_of: dict, by_id: list) -> list[int]:
    """:func:`_intern` per key in order, as three C-level passes."""
    fresh = [key for key in dict.fromkeys(keys) if key not in id_of]
    id_of.update(zip(fresh, range(len(by_id), len(by_id) + len(fresh))))
    by_id.extend(fresh)
    return [id_of[key] for key in keys]


class SubscriptionTable:
    """All rows installed at one broker, with an index for matching.

    Rows are keyed by ``(subscriber, path_id)``: single-path routing keeps
    one row per subscriber (path 0), the multi-path extension several.
    Internally each row is interned to a dense integer id; the matcher is
    keyed by those ids and the row attributes live in table-level
    columns (snapshotted into compiled views lazily after mutations), so
    the match path works on int arrays end to end.
    """

    #: The matching engine behind the table, keyed by row id.
    matcher_type: type = VectorCountingMatcher

    def __init__(self) -> None:
        self._matcher = self.matcher_type()
        #: The storage: one record per row id, and the row's shared
        #: subscription (``None`` once uninstalled).
        self._cols = GrowableArray(_ROW_DTYPE)
        self._subs: list[Subscription | None] = []
        #: subscriber -> its row id, or (multi-path) row ids in install
        #: order, so uninstall/__contains__ are O(own rows) — and no
        #: per-row container for the GC to walk or the pickler to write.
        self._ids_of_subscriber: dict[str, int | list[int]] = {}
        #: Row ids freed by uninstall, reused by the next install so the
        #: columns scale with peak live rows, not cumulative churn.
        self._free_ids: list[int] = []
        #: Source sets interned to dense ids: rows overwhelmingly share a
        #: handful of distinct sets (one per routed subtree), so the
        #: per-source provenance mask is a membership probe over the
        #: distinct sets fancy-indexed through the ``src_set`` column —
        #: O(distinct) instead of a Python frozenset probe per row.
        self._src_set_by_id: list[frozenset[str]] = []
        self._src_set_id_of: dict[frozenset[str], int] = {}
        self._hop_names: list[str] = []
        self._hop_id_of: dict[str, int] = {}
        self._sub_names: list[str] = []
        self._sub_id_of: dict[str, int] = {}
        #: Mutation counter: bumped on every install/uninstall.  The fused
        #: engine keys its speculative match memo on this, so a result
        #: computed ahead of time is only consumed if the table has not
        #: changed since (churn between lookahead and execution recomputes).
        self._version = 0
        # Compiled views: snapshots rebuilt lazily after install/uninstall.
        self._c_dirty = True
        self._c_names = _NO_NAMES

    # ------------------------------------------------------------------ #
    # Mutation.
    # ------------------------------------------------------------------ #
    def _own(self, subscriber: str) -> list[int]:
        own = self._ids_of_subscriber.get(subscriber, [])
        return [own] if type(own) is int else own

    def _has_row(self, subscriber: str, path_id: int) -> bool:
        own = self._own(subscriber)
        return bool(own) and path_id in self._cols.view()["path"][own]

    def _link(self, subscriber: str, row_id: int) -> None:
        own = self._own(subscriber)
        self._ids_of_subscriber[subscriber] = [*own, row_id] if own else row_id

    def install(self, row: TableRow) -> None:
        """Install one row."""
        subscription = row.subscription
        name = subscription.subscriber
        if self._has_row(name, row.path_id):
            raise KeyError(f"row {(name, row.path_id)!r} already installed")
        hop = -1 if row.next_hop is None else _intern(
            row.next_hop, self._hop_id_of, self._hop_names)
        sub = _intern(name, self._sub_id_of, self._sub_names)
        src_set = _intern(row.sources, self._src_set_id_of, self._src_set_by_id)
        row_id = self._free_ids.pop() if self._free_ids else len(self._subs)
        self._subs[row_id:row_id + 1] = [subscription]  # replaces, or appends at the end
        self._cols.at_least(row_id + 1)[row_id] = (
            row.rate.mean, row.rate.variance,
            np.inf if subscription.deadline_ms is None else subscription.deadline_ms,
            1.0 if subscription.price is None else subscription.price,
            row.min_msg_id, row.nn, hop, sub, row.path_id, src_set,
        )
        self._link(name, row_id)
        self._matcher.add(row_id, subscription.filter)
        self._c_dirty = True
        self._version += 1

    def install_many(self, block: RowBlock) -> None:
        """Bulk install: end state identical to :meth:`install` per row of
        the block in order — same row and interned ids, same version
        count — but written as whole columns, with one matcher ``add_many``
        (the 100k-subscriber build's hot path)."""
        n = len(block)
        if not n:
            return
        subs, route = block.subscriptions, block.route
        names = [s.subscriber for s in subs]
        all_new = len(set(names)) == n and self._ids_of_subscriber.keys().isdisjoint(names)
        if not all_new:
            # A subscriber repeats: legal on distinct paths only.
            seen: set[tuple[str, int]] = set()
            for key in zip(names, np.array([r.path_id for r in block.routes])[route].tolist()):
                if key in seen or self._has_row(*key):
                    raise KeyError(f"row {key!r} already installed")
                seen.add(key)
        # Per route, in first-use order of the rows (the order per-row
        # installs would intern next hops and source sets in).
        used, first = np.unique(route, return_index=True)
        routes = np.zeros(len(block.routes), dtype=_ROW_DTYPE)
        for r in used[np.argsort(first)].tolist():
            next_hop, nn, rate, sources, path_id, min_msg_id = block.routes[r]
            routes[r] = (
                rate.mean, rate.variance, 0.0, 0.0, min_msg_id, nn,
                -1 if next_hop is None else _intern(
                    next_hop, self._hop_id_of, self._hop_names),
                0, path_id,
                _intern(sources, self._src_set_id_of, self._src_set_by_id),
            )
        rows = routes[route]
        rows["sub"] = _intern_many(names, self._sub_id_of, self._sub_names)
        rows["deadline"] = [np.inf if s.deadline_ms is None else s.deadline_ms for s in subs]
        rows["price"] = [1.0 if s.price is None else s.price for s in subs]
        # Freed ids are reused newest-first, then the columns grow.
        free = self._free_ids
        keep = len(free) - min(n, len(free))
        reused = free[keep:][::-1]
        del free[keep:]
        for row_id, subscription in zip(reused, subs):
            self._subs[row_id] = subscription
        row_ids = reused + list(range(len(self._subs), len(self._subs) + n - len(reused)))
        self._subs.extend(subs[len(reused):])
        self._cols.at_least(len(self._subs))[row_ids] = rows
        if all_new:
            self._ids_of_subscriber.update(zip(names, row_ids))
        else:
            for name, row_id in zip(names, row_ids):
                self._link(name, row_id)
        self._matcher.add_many(
            list(zip(row_ids, [s.filter for s in subs])), block.preds
        )
        self._c_dirty = True
        self._version += n

    def uninstall(self, subscriber: str) -> None:
        """Remove every row (any path) of a subscriber."""
        self.uninstall_many([subscriber])

    def uninstall_many(self, subscribers: list[str]) -> None:
        """Remove every row of each subscriber: end state identical to
        :meth:`uninstall` per name in order — same freed-id order, same
        version count — with one matcher ``remove_many``.  A name that
        repeats or holds no row here raises before anything is removed."""
        subscribers = list(subscribers)
        if not subscribers:
            return
        ids_of = self._ids_of_subscriber
        if len(set(subscribers)) != len(subscribers):
            raise KeyError("a subscriber repeats in the batch")
        for name in subscribers:
            if name not in ids_of:
                raise KeyError(name)
        row_ids: list[int] = []
        for own in map(ids_of.pop, subscribers):
            if type(own) is int:
                row_ids.append(own)
            else:
                row_ids.extend(own)
        for row_id in row_ids:
            self._subs[row_id] = None
        self._matcher.remove_many(row_ids)
        self._free_ids.extend(row_ids)
        self._c_dirty = True
        self._version += len(subscribers)

    # ------------------------------------------------------------------ #
    # Serialization.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """The columns, the subscription references and the interning
        order; compiled views (``_c_*``) and the interning dicts
        (``*_id_of``) are derivable and rebuilt on load."""
        return {
            k: v for k, v in self.__dict__.items()
            if not k.startswith("_c_") and not k.endswith("_id_of")
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._hop_id_of = {name: i for i, name in enumerate(self._hop_names)}
        self._sub_id_of = {name: i for i, name in enumerate(self._sub_names)}
        self._src_set_id_of = {s: i for i, s in enumerate(self._src_set_by_id)}
        self._c_dirty = True
        self._c_names = _NO_NAMES

    # ------------------------------------------------------------------ #
    # Lookup.
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotone mutation counter (install/uninstall each bump it)."""
        return self._version

    def __len__(self) -> int:
        return len(self._subs) - len(self._free_ids)

    def __contains__(self, subscriber: str) -> bool:
        return subscriber in self._ids_of_subscriber

    def held(self, subscribers: list[str]) -> list[str]:
        """Those of ``subscribers`` that have a row here, in order."""
        ids_of = self._ids_of_subscriber
        return [name for name in subscribers if name in ids_of]

    def _materialise(self, ids) -> list[TableRow]:
        """Build the :class:`TableRow` values of live row ids from storage."""
        ids = np.asarray(ids, dtype=np.int64)
        subs, hops, sources = self._subs, self._hop_names, self._src_set_by_id
        return [
            TableRow(subs[i], None if hop < 0 else hops[hop], nn,
                     Normal(mean, variance), sources[src_set], path, min_msg)
            for i, (mean, variance, _, _, min_msg, nn, hop, _, path, src_set)
            in zip(ids.tolist(), self._cols.view()[ids].tolist())
        ]

    def row(self, subscriber: str, path_id: int = 0) -> TableRow:
        for row in self._materialise(self._own(subscriber)):
            if row.path_id == path_id:
                return row
        raise KeyError((subscriber, path_id))

    def rows(self) -> list[TableRow]:
        ids = [i for name in self._ids_of_subscriber for i in self._own(name)]
        return sorted(self._materialise(ids), key=lambda row: (row.subscriber, row.path_id))

    # ------------------------------------------------------------------ #
    # Matching.
    # ------------------------------------------------------------------ #
    def warm(self) -> None:
        """Build the compiled column views and the matcher's indexes now
        instead of on the first match.  Purely a latency move: the state
        reached is exactly what the first match would have built."""
        self._compile()
        self._matcher.warm()

    def _compile(self) -> None:
        if not self._c_dirty:
            return
        # Snapshot copies, one per column: groups handed out keep the
        # views they captured while the storage is written in place.  The
        # five scoring columns live as rows of one (5, n) matrix.
        cols = self._cols.view()
        n = len(cols)
        cols5 = np.empty((5, n))
        cols5[0] = cols["nn"]
        cols5[1] = cols["mean"]
        np.sqrt(cols["variance"], out=cols5[2])
        cols5[3] = cols["deadline"]
        cols5[4] = cols["price"]
        self._c_cols5 = cols5
        self._c_hop = cols["hop"].astype(np.int64)
        self._c_sub = cols["sub"].astype(np.int64)
        self._c_min_msg = cols["min_msg"].copy()
        self._c_src_set = cols["src_set"].astype(np.int64)
        # Only multi-path rows can duplicate a (hop, subscriber) pair, only
        # subscribe-time epochs (> 0) can hide a message: else skip both.
        self._c_multipath = bool(cols["path"].any())
        self._c_epochs = bool(self._c_min_msg.any())
        # Rank = position in sorted (subscriber, path_id) order, the
        # canonical match order (dead ids keep rank 0; the matcher never
        # returns them).  np.lexsort over (path_id, name) gives exactly
        # sorted-tuple order — numpy compares unicode by code point, same
        # as Python str — without a Python loop over the rows.
        rank = np.zeros(n, dtype=np.int64)
        live = len(self)
        if live:
            alive = np.ones(n, dtype=bool)
            alive[self._free_ids] = False
            ids = np.flatnonzero(alive)
            if len(self._c_names) < len(self._sub_names):
                self._c_names = np.concatenate(
                    (self._c_names, np.asarray(self._sub_names[len(self._c_names):]))
                )
            order = np.lexsort((cols["path"][ids], self._c_names[self._c_sub[ids]]))
            rank[ids[order]] = np.arange(live, dtype=np.int64)
        self._c_rank = rank
        # Frozen worlds install in sorted order, making the rank the
        # identity — then canonical ordering is a plain sort of the
        # matched ids, no rank gather or argsort.
        self._c_rank_identity = live == n and bool(
            np.array_equal(rank, np.arange(n, dtype=np.int64))
        )
        # Neighbor-name rank per hop id, offset by one so slot 0 holds the
        # local pseudo-hop −1 (which ranks below every name): grouping
        # emits neighbor groups already name-sorted — the broker's
        # deterministic enqueue order without a per-message sort.
        hop_rank = np.zeros(len(self._hop_names) + 1, dtype=np.int64)
        hop_rank[0] = -1
        order = sorted(range(len(self._hop_names)), key=self._hop_names.__getitem__)
        for r, h in enumerate(order):
            hop_rank[h + 1] = r
        self._c_hop_rank = hop_rank
        self._c_hop_by_rank = order
        self._c_source_masks = {}
        self._c_dirty = False

    def _source_mask(self, source_broker: str) -> np.ndarray:
        mask = self._c_source_masks.get(source_broker)
        if mask is None:
            # Membership over the distinct interned source sets, spread to
            # rows through the set-id column — O(distinct sets) Python
            # work however many rows share them.
            sets = self._src_set_by_id
            hit = np.fromiter(
                (source_broker in s for s in sets), dtype=bool, count=len(sets)
            )
            mask = hit[self._c_src_set] if len(sets) else np.empty(0, dtype=bool)
            self._c_source_masks[source_broker] = mask
        return mask

    def _matched_ids(self, message: Message) -> np.ndarray:
        """Row ids matching filter + provenance, in (subscriber, path_id)
        order — exactly the legacy ``sorted(keys)`` order."""
        self._compile()
        ids, ascending = self._filter_matches(message)
        if ids.size == 0:
            return ids
        ids = ids[self._source_mask(message.source_broker)[ids]]
        if self._c_epochs and ids.size:
            # Mid-run subscriptions only see messages published after they
            # joined (ids are publish-ordered); frozen tables skip this.
            ids = ids[self._c_min_msg[ids] <= message.msg_id]
        if ids.size:
            if self._c_rank_identity:
                # Boolean filters above preserve order, so ids that came
                # out of the matcher ascending are still ascending here.
                if not ascending:
                    ids = np.sort(ids)
            else:
                ids = ids[np.argsort(self._c_rank[ids], kind="stable")]
        return ids

    def _filter_matches(self, message: Message) -> tuple[np.ndarray, bool]:
        """Row ids whose filter matches, and whether they come out ascending."""
        matcher = self._matcher
        return matcher.match_array(message.attributes), matcher.array_results_sorted

    def match(self, message: Message) -> list[TableRow]:
        """Rows whose filter matches *and* whose sources include the
        message's origin broker (provenance check)."""
        return self._materialise(self._matched_ids(message))

    def match_grouped(self, message: Message) -> tuple[RowGroup, dict[str, RowGroup]]:
        """Split matches into (local rows, remote rows grouped by next hop).

        Within each group, rows are deduplicated by subscriber (multi-path
        can route the same subscriber through one broker via several paths
        sharing a next hop — the queue copy must count the subscriber's
        benefit once).  Local rows are likewise unique per subscriber.
        Groups come back as :class:`RowGroup` views whose ``arrays`` are
        column gathers.  The ``remote`` dict's insertion order is sorted
        neighbor-name order — the broker's deterministic enqueue order —
        so callers iterate it directly instead of re-sorting per message.
        """
        ids = self._matched_ids(message)
        if ids.size == 0:
            return RowGroup(self, _EMPTY_IDS), {}
        hop = self._c_hop[ids]
        if self._c_multipath:
            # Deduplicate (next hop, subscriber) keeping the first row in
            # match order — the legacy setdefault semantics.  Single-path
            # tables hold one row per subscriber, so only multi-path
            # installs can collide and the pass is skipped otherwise.
            combo = (hop + 1) * len(self._sub_names) + self._c_sub[ids]
            _, first = np.unique(combo, return_index=True)
            if len(first) != len(ids):
                first.sort()
                ids, hop = ids[first], hop[first]
        # Group by neighbor-name rank (local −1 first): the stable sort
        # keeps match order inside each group and emits groups in sorted
        # neighbor order.
        hop_rank = self._c_hop_rank[hop + 1]
        order = np.argsort(hop_rank, kind="stable")
        ids, hop_rank = ids[order], hop_rank[order]
        boundaries = np.flatnonzero(hop_rank[1:] != hop_rank[:-1]) + 1
        local = RowGroup(self, _EMPTY_IDS)
        remote: dict[str, RowGroup] = {}
        start = 0
        for stop in list(boundaries) + [len(ids)]:
            group = RowGroup(self, ids[start:stop])
            r = int(hop_rank[start])
            if r < 0:
                local = group
            else:
                remote[self._hop_names[self._c_hop_by_rank[r]]] = group
            start = stop
        return local, remote

    def match_grouped_many(
        self, messages: list[Message]
    ) -> list[tuple[RowGroup, dict[str, RowGroup]]]:
        """Batch form of :meth:`match_grouped` for the fused engine's
        window lookahead: compile once, then match the window's messages
        against the same compiled columns (per-source provenance masks are
        built once and shared across the batch).  Matching itself is a
        pure per-message reduction — each message's result is exactly
        ``match_grouped(message)``, which the differential suite asserts.
        """
        self._compile()
        return [self.match_grouped(m) for m in messages]


@dataclass(frozen=True)
class RowArrays:
    """Vectorised view of a set of rows for the metric kernels.

    ``deadline``/``price`` use ``inf``/1.0 for unspecified values, matching
    the paper's PSD convention (price 1, deadline supplied by the message).
    """

    nn: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    deadline: np.ndarray
    price: np.ndarray

    @staticmethod
    def from_rows(rows: list[TableRow]) -> "RowArrays":
        n = len(rows)
        nn = np.empty(n)
        mean = np.empty(n)
        std = np.empty(n)
        deadline = np.empty(n)
        price = np.empty(n)
        for i, row in enumerate(rows):
            nn[i] = row.nn
            mean[i] = row.rate.mean
            std[i] = row.rate.std
            deadline[i] = row.deadline_ms if row.deadline_ms is not None else np.inf
            price[i] = row.price if row.price is not None else 1.0
        return RowArrays(nn=nn, mean=mean, std=std, deadline=deadline, price=price)

    def __len__(self) -> int:
        return int(self.nn.shape[0])
