"""The reference stack: the production system assembled from its oracles.

Both stacks run one event kernel, :meth:`~repro.des.simulator.Simulator.run`.
Every other fast layer of the production stack
(:class:`~repro.pubsub.system.PubSubSystem`) has a straightforward
counterpart kept in ``src/``: every live row's and every live
subscription's own filter predicate tested at match time, rows filtered,
sorted and grouped one by one, instead of the system-wide filter index and
the per-source route plans; the per-delivery
:class:`~repro.pubsub.metrics.MetricsCollector`, fed by the brokers,
instead of the ledger that reduces the delivery log; a full rescan of each output queue (``Strategy.select``) instead
of the incremental heaps (a lone entry scored too) and a full scan of
``should_prune`` instead of the prune index; and every score plan
in numpy array form, over operands read row by row from the subscriptions
and routes, instead of the small entries' Python-float form and the large
entries' operand classes.
:class:`ReferenceSystem` is the production system with all four swapped
in — by subclassing, overriding the component class attributes and the
few methods per layer where the oracle's interface differs.

The two stacks produce byte-identical results, delivery logs and series
(``tests/integration/test_reference_identity.py``); select this one with
``build_system(..., reference=True)``, ``run_simulation(...,
reference=True)`` or ``python -m repro run --reference``.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import SchedulingContext
from repro.core.pruning import should_prune
from repro.core.queueing import ScheduledQueue, _ScanBackend
from repro.core.strategies import QueueEntry
from repro.pubsub.broker import Broker
from repro.pubsub.message import Message
from repro.pubsub.metrics import MetricsCollector
from repro.pubsub.subscription import (
    OperandClasses,
    RowArrays,
    RowGroup,
    SubscriptionTable,
    TableRow,
)
from repro.pubsub.system import PubSubSystem


class ReferenceEntry(QueueEntry):
    """Scores and expiry checks always take the numpy array form."""

    __slots__ = ()

    small_rows = 0


class ReferenceQueue(ScheduledQueue):
    """Every selection is a full rescan of the waiting entries — a lone
    entry is scored too — and every prune a full scan of the exact
    predicate, with no side index."""

    def _pick_backend(self) -> _ScanBackend:
        return _ScanBackend(self.strategy, self._live)

    def _pick_prune_index(self) -> None:
        return None

    def prune(self, now: float) -> list[QueueEntry]:
        live = self._live
        pruned = [
            entry
            for entry in live.values()
            if should_prune(entry, now, self.planning_delay_ms, self.pruning, self.epsilon)
        ]
        for entry in pruned:
            del live[entry.seq]
        return pruned

    def pop_best(self, ctx: SchedulingContext) -> QueueEntry:
        return self._backend.pop_best(ctx)


class ReferenceRowGroup(RowGroup):
    """A matched group whose scoring operands are read row by row from
    its subscriptions and routes at match time, not through the table's
    compiled operand classes, so the identity suite checks that compile
    (route and tier interning across installs, the class remap) too."""

    __slots__ = ()

    def __init__(self, table: SubscriptionTable, row_ids: np.ndarray) -> None:
        super().__init__(table, row_ids)
        arrays = self._arrays = RowArrays.from_rows(table._materialise(row_ids))
        self._deadline, self._price = arrays.deadline, arrays.price

    def classes(self, limit: int) -> OperandClasses | None:
        return None

    def first_row(self) -> list[float]:
        arrays = self.arrays
        return [
            float(column[0])
            for column in (arrays.nn, arrays.mean, arrays.std, arrays.deadline, arrays.price)
        ]


class ReferenceTable(SubscriptionTable):
    """Rows matched by testing each live row's filter predicate, and
    filtered, ordered, deduplicated and grouped row by row."""

    def _matched(self, message: Message) -> list[tuple[str, int, int, str | None]]:
        """``(subscriber, path_id, row id, next hop)`` of every live row
        whose filter the message satisfies, whose sources hold the origin
        broker and whose epoch admits the message, sorted."""
        ids = np.flatnonzero(self._alive.view())
        subs, routes, attributes = self.index.subscriptions, self._routes, message.attributes
        rows = zip(ids.tolist(), self._sid.view()[ids].tolist(), self._route.view()[ids].tolist())
        return sorted(
            (subs[sid].subscriber, routes[r].path_id, i, routes[r].next_hop)
            for i, sid, r in rows
            if routes[r].min_msg_id <= message.msg_id
            and message.source_broker in routes[r].sources
            and subs[sid].filter.matches(attributes)
        )

    def match(self, message: Message) -> list[TableRow]:
        return self._materialise([i for _, _, i, _ in self._matched(message)])

    def match_grouped(self, message: Message) -> tuple[RowGroup, dict[str, RowGroup]]:
        self._compile()
        groups: dict[str | None, list[int]] = {}
        seen: set[tuple[str | None, str]] = set()
        for name, _, i, hop in self._matched(message):
            if (hop, name) not in seen:
                seen.add((hop, name))
                groups.setdefault(hop, []).append(i)
        group = ReferenceRowGroup
        local = group(self, np.array(groups.pop(None, []), dtype=np.int64))
        return local, {
            hop: group(self, np.array(ids, dtype=np.int64)) for hop, ids in sorted(groups.items())
        }


class ReferenceBroker(Broker):
    """Settles local deliveries with the scalar collector by subscriber
    name, row by row (the production ledger reads the delivery log)."""

    table_type = ReferenceTable
    queue_type = ReferenceQueue
    entry_type = ReferenceEntry

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delivery_batch_callbacks.append(self._settle)

    def _settle(self, _broker: Broker, local, message: Message, latency: float, valid) -> None:
        self.metrics.on_delivery_batch(
            message.msg_id, local.subscribers, latency, local.price, valid
        )


class ReferenceSystem(PubSubSystem):
    """The production system on the oracles, with the interested
    population counted by testing each live subscription's filter."""

    broker_type = ReferenceBroker
    metrics_type = MetricsCollector

    def _interested(self, message: Message) -> int:
        index, attributes = self.subscriber_index, message.attributes
        subs = index.subscriptions
        return sum(1 for sid in index.live.values() if subs[sid].filter.matches(attributes))
