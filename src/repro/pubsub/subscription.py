"""Subscriptions and the per-broker subscription table (Section 4.2).

The paper's table row is ``(subscriber, filter, dl, pr, nb, NN_p, μ_p,
σ_p²)``.  :class:`TableRow` carries exactly that, plus the set of source
(publisher-hosting) brokers for which this broker lies on the routing path —
the provenance check that makes single-path routing duplicate-free on a
mesh (see :mod:`repro.pubsub.system`).

Storage splits that row in two.  The subscriber half is interned once per
system in a :class:`SubscriberIndex`, under the id that is also the
subscriber's delivery-log endpoint id; the path half is a :class:`Route`,
interned per table, shared by every subscriber behind one routed path.  A
table row is then just (subscription id, route id) under a dense row id,
and matching produces row-id arrays.  A subscription's filter is a *fid*
into the system-wide :class:`~repro.pubsub.matching.FilterIndex`, which
evaluates each publication once; provenance, duplicate settlement and
per-hop grouping are compiled into one route plan per source broker, so a
match is a verdict gather, a boolean take and a split at static group
bounds.  A :class:`RowGroup`'s :class:`RowArrays` are fancy-index gathers.
:class:`TableRow` is the public value type, built from the two halves only
when a caller asks for rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.growable import GrowableArray
from repro.pubsub.filters import Filter
from repro.pubsub.matching import FilterIndex
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

    def __reduce__(self):
        # Pickled as a constructor call (validated again at load): the
        # slots dataclass default calls ``fields()`` per object.
        return type(self), (self.subscriber, self.filter, self.deadline_ms, self.price)


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


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_ONE_ROUTE = np.zeros(1, dtype=np.int64)


def _intern(key, id_of: dict, by_id: list) -> int:
    i = id_of.get(key)
    if i is None:
        i = id_of[key] = len(by_id)
        by_id.append(key)
    return i


class SubscriberIndex:
    """Every subscription of a system, interned once.

    Each registration gets the next dense id, and the system's delivery
    log hands out the same id as the subscriber's endpoint, so a matched
    row's subscription id *is* the id its delivery is logged under.  Ids
    are never reused: a subscriber who leaves and joins again gets a fresh
    one, as the log does.  Per id the index keeps the subscription, its
    fid in :attr:`filters` (counted live until :meth:`discard`) and its
    scoring tier, the interned ``(deadline, price)`` pair with ``inf`` /
    1.0 for unspecified (the paper's SSD population has three tiers, PSD
    one); per live name, its id.
    """

    def __init__(self, filters: FilterIndex | None = None) -> None:
        self.filters = FilterIndex() if filters is None else filters
        #: id -> subscription (append-only).
        self.subscriptions: list[Subscription] = []
        #: subscriber name -> its live id.
        self.live: dict[str, int] = {}
        self._fid = GrowableArray(np.int64)
        #: id -> tier id; a tier's ``(deadline, price)`` bytes -> tier id
        #: (interned by bits, so a tier's floats come back exactly).
        self._tier = GrowableArray(np.int32)
        self._tier_of: dict[bytes, int] = {}
        #: Rank of each id's name in sorted name order (lazily recomputed
        #: after :meth:`add`).
        self._rank = _EMPTY_IDS

    def __len__(self) -> int:
        return len(self.subscriptions)

    def add(self, subscriptions: list[Subscription]) -> np.ndarray:
        """Register subscriptions whose names are not live; returns their ids."""
        first, n = len(self.subscriptions), len(subscriptions)
        self._fid.extend(self.filters.add([s.filter for s in subscriptions]))
        deadline = np.array(
            [np.inf if s.deadline_ms is None else s.deadline_ms for s in subscriptions],
            dtype=np.float64,
        )
        price = np.array(
            [1.0 if s.price is None else s.price for s in subscriptions], dtype=np.float64
        )
        # Each (deadline, price) pair's 16-byte pattern is its tier key;
        # one dict pass interns the batch's new ones in order of first
        # appearance (a tier id is its key's position in ``_tier_of``).
        keys = np.stack((deadline, price), axis=1).view(np.dtype((np.void, 16))).ravel().tolist()
        tier_of = self._tier_of
        for key in dict.fromkeys(keys):
            tier_of.setdefault(key, len(tier_of))
        self._tier.extend(np.fromiter(map(tier_of.__getitem__, keys), dtype=np.int32, count=n))
        self.subscriptions.extend(subscriptions)
        self.live.update(zip((s.subscriber for s in subscriptions), range(first, first + n)))
        return np.arange(first, first + n)

    def tiers(self) -> np.ndarray:
        """``(2, tiers)``: each tier's deadline and price."""
        return np.frombuffer(b"".join(self._tier_of), dtype=np.float64).reshape(-1, 2).T

    def discard(self, names: list[str]) -> None:
        """Unregister live names (their ids stay, their filters are uncounted)."""
        ids = np.fromiter(map(self.live.pop, names), dtype=np.int64, count=len(names))
        self.filters.discard(self._fid.view()[ids])

    def rank(self) -> np.ndarray:
        """``rank[id]``: the position of the id's name in a stable sort of
        every id's name, so ranks order live subscribers by name."""
        subs = self.subscriptions
        if len(self._rank) != len(subs):
            names = [s.subscriber for s in subs]
            self._rank = np.empty(len(subs), dtype=np.int64)
            self._rank[sorted(range(len(subs)), key=names.__getitem__)] = np.arange(len(subs))
        return self._rank


@dataclass(frozen=True, slots=True)
class RowBlock:
    """Columnar argument of :meth:`SubscriptionTable.install_many`: row
    ``i`` is ``TableRow(index.subscriptions[sids[i]], *routes[route[i]])``
    for the installing table's :class:`SubscriberIndex`."""

    sids: np.ndarray
    route: np.ndarray
    routes: list[Route]

    def __len__(self) -> int:
        return len(self.sids)


class StaleRowGroupError(RuntimeError):
    """:attr:`RowGroup.rows` was first read after the table mutated: the
    row ids may by now name another subscriber's rows (free-id reuse)."""


class RowGroup:
    """A matched set of rows of one table, addressed by row-id array.

    ``arrays`` gathers the rows' scoring operands by fancy index through
    their operand classes — no per-row attribute access — :meth:`classes`
    hands out the distinct ones alone, and ``sub_ids`` are the rows'
    subscription ids, which are the subscribers' delivery-log endpoint ids.
    ``rows`` materialises the :class:`TableRow` objects lazily (the
    per-row scoring paths and queue entries need them; batched local
    delivery never does).  Groups are snapshots taken at match time: the
    compiled column copies are captured immediately, so a later table
    mutation cannot skew a group already handed out.  ``rows`` reads the
    live storage, so it must be materialised before the table mutates
    again (the broker does so at enqueue time, in the same processing
    step as the match); a first read later raises :class:`StaleRowGroupError`.
    """

    __slots__ = ("row_ids", "_table", "_version", "_cols", "_cls", "_arrays", "_rows",
                 "_subscribers", "_deadline", "_price")

    def __init__(self, table: "SubscriptionTable", row_ids: np.ndarray) -> None:
        self.row_ids = row_ids
        self._table = table
        self._version = table._version
        self._cols = table._c_cols
        self._cls: np.ndarray | None = None
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
    def class_ids(self) -> np.ndarray:
        """The rows' operand classes (columns of the captured operand
        matrix), gathered once for every read below."""
        if self._cls is None:
            self._cls = self._cols[1].take(self.row_ids)
        return self._cls

    @property
    def arrays(self) -> "RowArrays":
        if self._arrays is None:
            # One take through the class ids for the operands the kernels
            # read elementwise (rows of one matrix); the price column is a
            # fresh array of its own, as ``np.dot`` reads it and BLAS
            # ``ddot`` bits can move with a row view's alignment.
            ops, cls = self._cols[0], self.class_ids
            nn, mean, std, deadline = ops[:4].take(cls, axis=1)
            self._arrays = RowArrays(
                nn=nn, mean=mean, std=std, deadline=deadline, price=ops[4].take(cls)
            )
        return self._arrays

    def classes(self, limit: int) -> OperandClasses | None:
        """The group's operands for a scorer that evaluates each column
        once: its rows' own, in one take, when there are at most
        ``limit`` rows; else its distinct operand classes, or ``None``
        when there are more than ``limit`` of those too.  A bool mask over
        the table's classes finds them, so no per-entry sort."""
        ops, cls = self._cols[0], self.class_ids
        if len(cls) <= limit:
            return OperandClasses(ops.take(cls, axis=1), None, self.price)
        seen = np.zeros(ops.shape[1], dtype=bool)
        seen[cls] = True
        (present,) = seen.nonzero()
        if len(present) > limit:
            return None
        local = np.empty(len(seen), dtype=np.intp)
        local[present] = np.arange(len(present))
        return OperandClasses(ops.take(present, axis=1), local.take(cls), self.price)

    def first_row(self) -> list[float]:
        """The first row's five operands ``[nn, mean, std, deadline,
        price]`` as Python floats, without the :attr:`arrays` gather."""
        return self._cols[0][:, self._cols[1][self.row_ids[0]]].tolist()

    @property
    def deadline(self) -> np.ndarray:
        """The group's deadline column alone (``inf`` = unspecified); the
        local-delivery path and the expiry rule need just this (and
        ``price``), not the full five-column :attr:`arrays` gather."""
        if self._deadline is None:
            self._deadline = self._cols[0][3].take(self.class_ids)
        return self._deadline

    @property
    def price(self) -> np.ndarray:
        """The group's price column alone (1.0 = unspecified)."""
        if self._price is None:
            self._price = self._cols[0][4].take(self.class_ids)
        return self._price

    @property
    def sub_ids(self) -> np.ndarray:
        """Subscription (= delivery-log endpoint) ids, one per row."""
        return self._cols[2][self.row_ids]

    @property
    def subscribers(self) -> list[str]:
        """Subscriber names, one per row (the index is append-only, so
        the capture is a snapshot)."""
        if self._subscribers is None:
            subs = self._cols[3]
            self._subscribers = [subs[i].subscriber for i in self.sub_ids.tolist()]
        return self._subscribers

    def __len__(self) -> int:
        return int(self.row_ids.shape[0])

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i: int) -> TableRow:
        return self.rows[i]


class _RoutePlan(NamedTuple):
    """The rows of one table a message from one source broker can take.

    ``ids`` are the live rows whose source set holds the source, in output
    order — next-hop name rank (local first), then canonical
    ``(subscriber, path_id)`` rank — with a later row of a
    ``(next hop, subscriber)`` pair dropped whenever an earlier one has the
    same filter and no later epoch (then it always matches first).
    ``fid`` / ``min_msg`` are their filter ids and epochs (``min_msg`` is
    ``None`` when every epoch is 0), ``run`` numbers the pairs when some
    pair still keeps two rows (``None`` otherwise), and group ``g`` ends at
    plan position ``last[g]`` and goes to next hop ``hops[g]`` (``None`` =
    local delivery).
    """

    ids: np.ndarray
    fid: np.ndarray
    min_msg: np.ndarray | None
    run: np.ndarray | None
    last: np.ndarray
    hops: list[str | None]


class SubscriptionTable:
    """All rows installed at one broker, with per-source route plans.

    Rows are keyed by ``(subscriber, path_id)``: single-path routing keeps
    one row per subscriber (path 0), the multi-path extension several.
    A row is stored as two ints under a dense row id: its subscription's
    id in a :class:`SubscriberIndex` — the system's shared one, which the
    system keeps, or (``index=None``) a private one this table registers
    and unregisters subscribers in — and the id of its :class:`Route`,
    interned per table (every subscriber behind one routed path shares
    it).  A match gathers the message's filter verdicts through a lazily
    compiled route plan for its source broker, so the match path works on
    int arrays end to end.
    """

    def __init__(self, index: SubscriberIndex | None = None) -> None:
        self._owns_index = index is None
        self.index = SubscriberIndex() if index is None else index
        self._filters = self.index.filters  # the match path's one lookup
        #: The storage, per row id: subscription id, route id, live flag
        #: (freed rows keep stale ids; no route plan holds them).
        self._sid = GrowableArray(np.int32)
        self._route = GrowableArray(np.int32)
        self._alive = GrowableArray(np.bool_)
        #: Row ids freed by uninstall, largest first: the next install
        #: reuses the smallest, so the columns scale with peak live rows,
        #: not cumulative churn, whatever order rows were freed in.
        self._free_ids: list[int] = []
        self._routes: list[Route] = []
        self._route_id_of: dict[Route, int] = {}
        #: Mutation counter: bumped on every install/uninstall.
        self._version = 0
        self._reset_compiled()

    def _reset_compiled(self) -> None:
        """Compiled views: snapshots rebuilt lazily after install/uninstall.
        Routes are append-only, so their interned operands (route id ->
        operand id, and each operand's ``(nn, mean, variance)`` bits) are
        only extended."""
        self._c_dirty = True
        self._c_route_op = GrowableArray(np.int64)
        self._c_op_of: dict[tuple[int, int, int], int] = {}
        self._c_op_bits: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------------ #
    # Mutation.
    # ------------------------------------------------------------------ #
    def _rows_of(self, flagged: np.ndarray) -> np.ndarray:
        """The live rows whose subscription id is flagged (bool per id)."""
        return np.flatnonzero(self._alive.view() & flagged[self._sid.view()])

    def _flags(self, sids) -> np.ndarray:
        flagged = np.zeros(len(self.index), dtype=bool)
        flagged[sids] = True
        return flagged

    def install(self, row: TableRow) -> None:
        """Install one row (a private index registers its subscriber)."""
        subscription = row.subscription
        sid = self.index.live.get(subscription.subscriber)
        if sid is None:
            if not self._owns_index:
                raise KeyError(f"subscriber {subscription.subscriber!r} is not registered")
            sid = int(self.index.add([subscription])[0])
        elif self.index.subscriptions[sid] != subscription:
            raise ValueError(f"row of {subscription.subscriber!r} carries another subscription")
        self.install_many(RowBlock(
            np.array([sid]), _ONE_ROUTE,
            [Route(row.next_hop, row.nn, row.rate, row.sources, row.path_id, row.min_msg_id)],
        ))

    def install_many(self, block: RowBlock) -> None:
        """Bulk install: end state identical to :meth:`install` per row of
        the block in order — same row ids, same version count — written
        as whole columns (the 100k-subscriber build's hot path)."""
        n = len(block)
        if not n:
            return
        sids = np.asarray(block.sids, dtype=np.int64)
        flagged = self._flags(sids)
        mine = self._rows_of(flagged)
        if mine.size or np.count_nonzero(flagged) != n:
            # A subscriber repeats: legal on distinct paths only.
            path_of = [r.path_id for r in self._routes]
            seen = set(zip(self._sid.view()[mine].tolist(),
                           [path_of[r] for r in self._route.view()[mine].tolist()]))
            for key in zip(sids.tolist(), [block.routes[r].path_id for r in block.route.tolist()]):
                if key in seen:
                    name = self.index.subscriptions[key[0]].subscriber
                    raise KeyError(f"row {(name, key[1])!r} already installed")
                seen.add(key)
        route = np.array(
            [_intern(r, self._route_id_of, self._routes) for r in block.routes],
            dtype=np.int32,
        )[block.route]
        # The smallest freed ids are reused first, then the columns grow.
        free = self._free_ids
        reused = free[len(free) - min(n, len(free)):][::-1]
        del free[len(free) - len(reused):]
        top = len(self._sid)
        size = top + n - len(reused)
        row_ids = np.concatenate((np.array(reused, dtype=np.int64), np.arange(top, size)))
        self._sid.at_least(size)[row_ids] = sids
        self._route.at_least(size)[row_ids] = route
        self._alive.at_least(size)[row_ids] = True
        self._c_dirty = True
        self._version += n

    def uninstall(self, subscriber: str) -> None:
        """Remove every row (any path) of a subscriber."""
        self.uninstall_many([subscriber])

    def uninstall_many(self, subscribers: list[str]) -> None:
        """Remove every row of each subscriber: end state identical to
        :meth:`uninstall` per name in order — same free ids, same version
        count.  A name that repeats or holds no row here raises before
        anything is removed."""
        names = list(subscribers)
        if not names:
            return
        if len(set(names)) != len(names):
            raise KeyError("a subscriber repeats in the batch")
        sids = [self.index.live[name] for name in names]  # KeyError: not subscribed
        leaving = self._flags(sids)
        held = self._flags(self._sid.view()[self._rows_of(leaving)])[sids]
        if not held.all():
            raise KeyError(names[int(np.argmin(held))])
        self.drop(leaving)
        if self._owns_index:
            self.index.discard(names)

    def drop(self, leaving: np.ndarray) -> None:
        """Remove every row of the subscriptions flagged in ``leaving``
        (bool per index id; the system's unsubscribe path).  The version
        advances once per subscriber that held a row here."""
        rows = self._rows_of(leaving)
        if not rows.size:
            return
        self._version += int(np.count_nonzero(self._flags(self._sid.view()[rows])))
        self._alive.view()[rows] = False
        self._free_ids = sorted(self._free_ids + rows.tolist(), reverse=True)
        self._c_dirty = True

    # ------------------------------------------------------------------ #
    # Serialization.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Everything but the compiled views and route plans (``_c_*``),
        which are derivable and rebuilt on first use after a load."""
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_c_")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_compiled()

    # ------------------------------------------------------------------ #
    # Lookup.
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotone mutation counter (install/uninstall each bump it)."""
        return self._version

    def __len__(self) -> int:
        return len(self._sid) - len(self._free_ids)

    def _rows_named(self, subscriber: str) -> np.ndarray:
        sid = self.index.live.get(subscriber)
        if sid is None:
            return _EMPTY_IDS
        return np.flatnonzero(self._alive.view() & (self._sid.view() == sid))

    def __contains__(self, subscriber: str) -> bool:
        return bool(self._rows_named(subscriber).size)

    def _materialise(self, ids) -> list[TableRow]:
        """Build the :class:`TableRow` values of live row ids from storage."""
        ids = np.asarray(ids, dtype=np.int64)
        subs, routes = self.index.subscriptions, self._routes
        return [
            TableRow(subs[sid], *routes[route])
            for sid, route in zip(self._sid.view()[ids].tolist(), self._route.view()[ids].tolist())
        ]

    def row(self, subscriber: str, path_id: int = 0) -> TableRow:
        for row in self._materialise(self._rows_named(subscriber)):
            if row.path_id == path_id:
                return row
        raise KeyError((subscriber, path_id))

    def rows(self) -> list[TableRow]:
        rows = self._materialise(np.flatnonzero(self._alive.view()))
        return sorted(rows, key=lambda row: (row.subscriber, row.path_id))

    # ------------------------------------------------------------------ #
    # Matching.
    # ------------------------------------------------------------------ #
    def warm(self) -> None:
        """Build the compiled column views and every source's route plan
        now instead of on the first match.  Purely a latency move: the
        state reached is exactly what the first matches would have built."""
        self._compile()
        for source in sorted(set().union(*(route.sources for route in self._routes))):
            self._plan(source)

    def _compile(self) -> None:
        if not self._c_dirty:
            return
        routes, index = self._routes, self.index
        sid, route = self._sid.view(), self._route.view()
        path = np.array([r.path_id for r in routes], dtype=np.int64)
        min_msg = np.array([r.min_msg_id for r in routes], dtype=np.int64)
        # Neighbor names by rank; local rows rank −1, below every name.
        by_rank = sorted({r.next_hop for r in routes} - {None})
        rank_of = {hop: i for i, hop in enumerate(by_rank)}
        hop = np.array([rank_of.get(r.next_hop, -1) for r in routes], dtype=np.int64)
        # Snapshot copies, one per column: groups handed out keep the
        # views they captured while the storage is written in place —
        # the operand matrix, each row id's class and subscription id, and
        # the (append-only) subscriptions.
        self._c_cols = (
            *self._operand_classes(routes, route, sid), sid.astype(np.int64), index.subscriptions
        )
        self._c_hop_by_rank = by_rank
        # The live rows in output order: next-hop name rank (local first),
        # then canonical (subscriber, path_id) — one integer lexsort.
        ids = np.flatnonzero(self._alive.view())
        row_sid, row_route = sid[ids], route[ids]
        order = np.lexsort((path[row_route], index.rank()[row_sid], hop[row_route]))
        self._c_order = ids[order]
        self._c_route = row_route[order]
        self._c_hop = hop[self._c_route]
        self._c_row_sub = row_sid[order]
        self._c_fid = index._fid.view()[self._c_row_sub]
        self._c_min_msg = min_msg[self._c_route]
        self._c_plans: dict[str, _RoutePlan] = {}
        self._c_dirty = False

    def _operand_classes(
        self, routes: list[Route], route: np.ndarray, sid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(ops, cls)``: the distinct scoring operands ``(nn, mean, std,
        deadline, price)`` as the columns of one ``(5, classes)`` matrix,
        and each row id's class (``intp``, the index type the group takes
        read without a cast).

        A row's operands are its route's ``(NN_p, μ_p, σ_p²)``, interned by
        bit pattern (each route is read once, at the first compile after
        its install), and its subscription's tier.  The key ``route
        operands · tiers + tier`` is compacted by a bool mask and a running
        count, not a sort, so classes are numbered in key order and their
        floats are the routes' and tiers' own.
        """
        fresh = routes[len(self._c_route_op):]
        if fresh:
            bits = np.array(
                [(r.nn, r.rate.mean, r.rate.variance) for r in fresh], dtype=np.float64
            ).view(np.int64).tolist()
            op_of, op_bits = self._c_op_of, self._c_op_bits
            self._c_route_op.extend(np.array(
                [_intern(tuple(key), op_of, op_bits) for key in bits], dtype=np.int64
            ))
        path_ops = np.array(self._c_op_bits, dtype=np.int64).reshape(-1, 3).view(np.float64)
        tiers = self.index.tiers()
        n_tiers = tiers.shape[1]
        key = self._c_route_op.view().take(route)
        key *= n_tiers
        key += self.index._tier.view().take(sid)
        seen = np.zeros(len(path_ops) * n_tiers, dtype=bool)
        seen[key] = True
        keys = np.flatnonzero(seen)
        cls = np.cumsum(seen, dtype=np.intp).take(key)
        cls -= 1
        op, tier = np.divmod(keys, n_tiers)
        ops = np.empty((5, len(keys)))
        ops[0] = path_ops[op, 0]
        ops[1] = path_ops[op, 1]
        ops[2] = np.sqrt(path_ops[op, 2])
        ops[3] = tiers[0][tier]
        ops[4] = tiers[1][tier]
        return ops, cls

    def _holding(self, source_broker: str) -> np.ndarray:
        """Mask over the live rows (output order) whose source set holds
        the source: O(distinct routes) Python work however many rows
        share them."""
        routes = self._routes
        hit = np.fromiter((source_broker in r.sources for r in routes), dtype=bool,
                          count=len(routes))
        return hit[self._c_route]

    def _plan(self, source_broker: str) -> _RoutePlan:
        """Compile the route plan of one source broker (see :class:`_RoutePlan`)."""
        keep = self._holding(source_broker)
        ids, hop, sub = self._c_order[keep], self._c_hop[keep], self._c_row_sub[keep]
        fid, min_msg = self._c_fid[keep], self._c_min_msg[keep]
        run: np.ndarray | None = None
        # Only multi-path rows can repeat a (next hop, subscriber) pair;
        # pairs are adjacent, in path order.
        same = (hop[1:] == hop[:-1]) & (sub[1:] == sub[:-1])
        if same.any():
            run = np.concatenate(([0], np.cumsum(~same)))
            first = np.ones(len(ids), dtype=bool)
            kept: dict[int, list[tuple[int, int]]] = {}
            for j, (r, f, m) in enumerate(zip(run.tolist(), fid.tolist(), min_msg.tolist())):
                earlier = kept.setdefault(r, [])
                if any(f == f0 and m0 <= m for f0, m0 in earlier):
                    first[j] = False
                else:
                    earlier.append((f, m))
            ids, hop, sub, fid, min_msg, run = (
                column[first] for column in (ids, hop, sub, fid, min_msg, run)
            )
            if all(len(earlier) == 1 for earlier in kept.values()):
                run = None
        last = _EMPTY_IDS
        if len(hop):
            last = np.append(np.flatnonzero(hop[1:] != hop[:-1]), len(hop) - 1)
        hops = [None if r < 0 else self._c_hop_by_rank[r] for r in hop[last].tolist()]
        plan = self._c_plans[source_broker] = _RoutePlan(
            ids, fid, min_msg if min_msg.any() else None, run, last, hops,
        )
        return plan

    def match(self, message: Message) -> list[TableRow]:
        """Every row whose filter matches, whose sources include the
        message's origin broker (provenance check) and whose epoch admits
        it — multi-path duplicates included — in ``(subscriber, path_id)``
        order.  Not on the delivery path (analysis and tests read it)."""
        self._compile()
        take = self._filters.verdicts(message)[self._c_fid]
        take &= self._c_min_msg <= message.msg_id
        take &= self._holding(message.source_broker)
        rows = self._materialise(self._c_order[take])
        return sorted(rows, key=lambda row: (row.subscriber, row.path_id))

    def match_grouped(self, message: Message) -> tuple[RowGroup, dict[str, RowGroup]]:
        """Split matches into (local rows, remote rows grouped by next hop).

        Within each group, rows are deduplicated by subscriber (multi-path
        can route the same subscriber through one broker via several paths
        sharing a next hop — the queue copy must count the subscriber's
        benefit once; the first in ``(subscriber, path_id)`` order wins).
        Groups come back as :class:`RowGroup` views whose ``arrays`` are
        column gathers.  The ``remote`` dict's insertion order is sorted
        neighbor-name order — the broker's deterministic enqueue order —
        so callers iterate it directly instead of re-sorting per message.
        """
        self._compile()
        plan = self._c_plans.get(message.source_broker)
        if plan is None:
            plan = self._plan(message.source_broker)
        take = self._filters.verdicts(message)[plan.fid]
        if plan.min_msg is not None:
            # Mid-run subscriptions only see messages published after they
            # joined (ids are publish-ordered); frozen tables skip this.
            take &= plan.min_msg <= message.msg_id
        (at,) = take.nonzero()
        if plan.run is not None and at.size:
            # A pair that kept two rows: only its first taken row goes.
            runs = plan.run[at]
            at = at[np.concatenate(([True], runs[1:] != runs[:-1]))]
        local: RowGroup | None = None
        remote: dict[str, RowGroup] = {}
        if at.size:
            ids = plan.ids[at]
            hops = plan.hops
            if len(hops) == 1:
                stops = [len(ids)]
            else:
                stops = at.searchsorted(plan.last, side="right").tolist()
            start = 0
            for hop, stop in zip(hops, stops):
                if stop > start:
                    group = RowGroup(self, ids[start:stop])
                    if hop is None:
                        local = group
                    else:
                        remote[hop] = group
                    start = stop
        if local is None:
            local = RowGroup(self, _EMPTY_IDS)
        return local, remote

    def match_grouped_many(
        self, messages: list[Message]
    ) -> list[tuple[RowGroup, dict[str, RowGroup]]]:
        """:meth:`match_grouped` per message, in order (the batch entry
        point the benchmark's layer tracer names)."""
        return [self.match_grouped(m) for m in messages]


class OperandClasses(NamedTuple):
    """A row set's scoring operands by column: row ``i``'s ``(nn, mean,
    std, deadline, price)`` is ``ops[:, inv[i]]`` — one column per
    distinct value — or ``ops[:, i]`` when ``inv`` is ``None``.  Every
    column is some row's, so a max over the columns is the max over the
    rows.  ``price`` is the rows' own price column."""

    ops: np.ndarray
    inv: np.ndarray | None
    price: np.ndarray

    def expand(self) -> "RowArrays":
        """The per-row :class:`RowArrays` (the same floats)."""
        ops, inv = self.ops, self.inv
        if inv is not None:
            ops = ops[:4].take(inv, axis=1)
        return RowArrays(nn=ops[0], mean=ops[1], std=ops[2], deadline=ops[3], price=self.price)


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
