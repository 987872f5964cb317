"""The reference stack: the production system assembled from its oracles.

Both stacks run one event kernel, :meth:`~repro.des.simulator.Simulator.run`.
Every other fast layer of the production stack
(:class:`~repro.pubsub.system.PubSubSystem`) has a straightforward
counterpart kept in ``src/``: per-table dict-based
:class:`~repro.pubsub.matching.CountingIndexMatcher` indexes keyed by row
id, rows filtered, sorted and grouped one by one, and a population count
of their own, instead of the system-wide filter index and the per-source
route plans; the per-delivery
:class:`~repro.pubsub.metrics.MetricsCollector` instead of the columnar
ledger; a full rescan of each output queue (``Strategy.select``) instead
of the incremental heaps (a lone entry scored too); and every score plan
in numpy array form instead of the small entries' Python-float form.
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
from repro.core.queueing import ScheduledQueue, _ScanBackend
from repro.core.strategies import QueueEntry
from repro.pubsub.broker import Broker
from repro.pubsub.client import SubscriberHandle
from repro.pubsub.filters import Filter
from repro.pubsub.matching import CountingIndexMatcher, FilterIndex
from repro.pubsub.message import Message
from repro.pubsub.metrics import MetricsCollector
from repro.pubsub.subscription import RowGroup, Subscription, SubscriptionTable, TableRow
from repro.pubsub.system import PubSubSystem


class ReferenceEntry(QueueEntry):
    """Scores and expiry checks always take the numpy array form."""

    __slots__ = ()

    small_rows = 0


class ReferenceQueue(ScheduledQueue):
    """Every selection is a full rescan of the waiting entries — a lone
    entry is scored too."""

    def _pick_backend(self) -> _ScanBackend:
        return _ScanBackend(self.strategy, self._live)

    def pop_best(self, ctx: SchedulingContext) -> QueueEntry:
        return self._backend.pop_best(ctx)


class ReferenceTable(SubscriptionTable):
    """Rows matched by the dict counting matcher, keyed by row id, and
    filtered, ordered, deduplicated and grouped row by row."""

    matcher_type = CountingIndexMatcher

    def __init__(self, filters: FilterIndex | None = None) -> None:
        super().__init__(filters)
        self._matcher = self.matcher_type()

    def _rows_added(self, row_ids: list[int], filters: list[Filter]) -> None:
        self._matcher.add_many(zip(row_ids, filters))

    def _rows_removed(self, row_ids: list[int]) -> None:
        self._matcher.remove_many(row_ids)

    def _matched(self, message: Message) -> list[tuple[str, int, int, int]]:
        """``(subscriber, path_id, row id, hop id)`` of every row whose
        filter matches, whose sources hold the origin broker and whose
        epoch admits the message, sorted."""
        ids = sorted(self._matcher.match(message.attributes))
        names, sets = self._sub_names, self._src_set_by_id
        return sorted(
            (names[sub], path, i, hop)
            for i, (_, _, _, _, min_msg, _, hop, sub, path, src_set, _)
            in zip(ids, self._cols.view()[ids].tolist())
            if min_msg <= message.msg_id and message.source_broker in sets[src_set]
        )

    def match(self, message: Message) -> list[TableRow]:
        return self._materialise([i for _, _, i, _ in self._matched(message)])

    def match_grouped(self, message: Message) -> tuple[RowGroup, dict[str, RowGroup]]:
        self._compile()
        groups: dict[int, list[int]] = {}
        seen: set[tuple[int, str]] = set()
        for name, _, i, hop in self._matched(message):
            if (hop, name) not in seen:
                seen.add((hop, name))
                groups.setdefault(hop, []).append(i)
        local = RowGroup(self, np.array(groups.pop(-1, []), dtype=np.int64))
        by_name = sorted((self._hop_names[hop], ids) for hop, ids in groups.items())
        return local, {
            name: RowGroup(self, np.array(ids, dtype=np.int64)) for name, ids in by_name
        }


class ReferenceBroker(Broker):
    """Settles local deliveries by subscriber name, row by row."""

    table_type = ReferenceTable
    queue_type = ReferenceQueue
    entry_type = ReferenceEntry

    def _settle(self, message: Message, local, latency: float, valid) -> None:
        self.metrics.on_delivery_batch(
            message.msg_id, local.subscribers, latency, local.price, valid
        )


class ReferenceSystem(PubSubSystem):
    """The production system on the oracles, with the interested
    population counted by its own matcher, keyed by subscriber."""

    broker_type = ReferenceBroker
    matcher_type = CountingIndexMatcher
    metrics_type = MetricsCollector

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._population = self.matcher_type()

    def _register(self, subscriptions: list[Subscription], fids: np.ndarray) -> None:
        super()._register(subscriptions, fids)
        self._population.add_many([(s.subscriber, s.filter) for s in subscriptions])

    def unsubscribe_all(self, subscribers: list[str]) -> list[SubscriberHandle]:
        handles = super().unsubscribe_all(subscribers)
        self._population.remove_many([h.name for h in handles])
        return handles

    def _interested(self, message: Message) -> int:
        return self._population.count(message.attributes)
