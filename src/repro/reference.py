"""The reference stack: the production system assembled from its oracles.

Every fast layer of the production stack (:class:`~repro.pubsub.system.
PubSubSystem`) has a straightforward counterpart kept in ``src/``: the
per-event kernel :meth:`~repro.des.simulator.Simulator.run` instead of
the fused window drain, the dict-based
:class:`~repro.pubsub.matching.CountingIndexMatcher` instead of the numpy
counting index, the per-delivery
:class:`~repro.pubsub.metrics.MetricsCollector` instead of the columnar
ledger, and a full rescan of each output queue (``Strategy.select``)
instead of the incremental heaps (a lone entry scored too), and every
score plan in numpy array form instead of the small entries' Python-float
form.  :class:`ReferenceSystem` is the
production system with all five swapped in — by subclassing, overriding
the component class attributes and the one method per layer where the
oracle's interface differs.

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
from repro.pubsub.matching import CountingIndexMatcher
from repro.pubsub.message import Message
from repro.pubsub.metrics import MetricsCollector
from repro.pubsub.subscription import SubscriptionTable
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
    """Rows matched by the dict counting matcher."""

    matcher_type = CountingIndexMatcher

    def _filter_matches(self, message: Message) -> tuple[np.ndarray, bool]:
        keys = self._matcher.match(message.attributes)
        return np.fromiter(keys, dtype=np.int64, count=len(keys)), False


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
    """The production system on the per-event kernel and the oracles."""

    broker_type = ReferenceBroker
    matcher_type = CountingIndexMatcher
    metrics_type = MetricsCollector

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        return self.sim.run(until=until, max_events=max_events)
