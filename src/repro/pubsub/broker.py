"""The message broker (Section 3.2, Fig. 2).

A broker has three modules: message receiving, message processing and
message forwarding.  Incoming messages incur a fixed processing delay
``PD``; processed messages are matched against the subscription table and
either delivered locally or placed, one copy per downstream neighbour, in
that neighbour's **output queue**.  Each output queue is drained over a
serialised link; when the link frees, the queue's
:class:`~repro.core.queueing.ScheduledQueue` deletes invalid messages
(Section 5.4) and picks the next entry under the configured
:class:`~repro.core.strategies.Strategy` — incrementally, not by
rescanning (the broker itself is just wiring).

Input-queue waiting is ignored, as in the paper (processing is never the
bottleneck), so processing completes exactly ``PD`` after reception.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from repro.core import profiling
from repro.core.context import SchedulingContext
from repro.core.pruning import PruningPolicy
from repro.core.queueing import ScheduledQueue
from repro.core.strategies import QueueEntry, Strategy
from repro.core.success import effective_deadline_array
from repro.des.simulator import Simulator
from repro.des.trace import TraceRecorder
from repro.network.link import DirectedLink
from repro.network.measurement import LinkMonitor
from repro.pubsub.faults import (
    DEAD_LETTER_TIMEOUT_MS,
    RETRY_BACKOFF_MS,
    RETRY_MAX_BACKOFF_MS,
    DeadLetterRecord,
    FaultLedger,
)
from repro.pubsub.message import Message
from repro.pubsub.metrics import LedgerMetricsCollector, MetricsCollector
from repro.pubsub.subscription import RowBlock, SubscriberIndex, SubscriptionTable, TableRow

if TYPE_CHECKING:  # the system module imports this one
    from repro.pubsub.system import SystemConfig


@dataclass
class OutputQueue:
    """The outbound channel to one downstream neighbour.

    ``sched`` owns the waiting entries, their pruning and the
    next-to-send selection; this record just ties it to the link.
    """

    neighbor: str
    link: DirectedLink
    monitor: LinkMonitor
    deliver: Callable[[Message], None]
    sched: ScheduledQueue

    def __len__(self) -> int:
        return len(self.sched)

    @property
    def entries(self) -> list[QueueEntry]:
        """Snapshot of the waiting entries (queue order), for inspection."""
        return self.sched.entries()


DeliveryCallback = Callable[[str, Message, float, bool], None]

#: Batched local-delivery hook: (broker, local row group, message,
#: latency_ms, valid flags).  One call per (message, local group); all
#: rows of a group share the arrival latency, ``valid`` is a per-row
#: boolean array, and the group's ``sub_ids`` are the subscribers'
#: delivery-log endpoint ids.
BatchDeliveryCallback = Callable[["Broker", "object", Message, float, "object"], None]


class Broker:
    """One overlay broker."""

    #: The subscription table, output-queue and queue-entry structures it
    #: is built from.
    table_type: type = SubscriptionTable
    queue_type: type = ScheduledQueue
    entry_type: type = QueueEntry

    def __init__(
        self,
        name: str,
        sim: Simulator,
        strategy: Strategy,
        metrics: LedgerMetricsCollector | MetricsCollector,
        config: SystemConfig,
        *,
        trace: TraceRecorder | None = None,
        faults: FaultLedger | None = None,
        index: SubscriberIndex | None = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.strategy = strategy
        self.metrics = metrics
        self.processing_delay_ms = config.processing_delay_ms
        # The paper assumes downstream scheduling delay is 0 inside fdl;
        # this slack relaxes that, billing every remaining hop an extra
        # planning allowance inside success() without changing the real
        # per-hop delay.  0 reproduces the paper.
        self.planning_delay_ms = (
            config.processing_delay_ms + config.scheduling_slack_per_hop_ms
        )
        self.epsilon = config.epsilon
        self.pruning = (
            config.pruning_override
            if config.pruning_override is not None
            else PruningPolicy.for_strategy(strategy.probabilistic_pruning)
        )
        #: ``index`` is the system's shared subscriber index (``None``:
        #: the table keeps a private one).
        self.table = self.table_type(index)
        self.queues: dict[str, OutputQueue] = {}
        self.trace = trace
        # Fault layer: shared conservation ledger plus per-neighbour retry
        # state.  With every link up none of this schedules anything — the
        # no-faults run stays byte-identical.
        self.faults = faults if faults is not None else FaultLedger()
        self._retry_pending: set[str] = set()
        self._retry_backoff: dict[str, float] = {}
        self._seq = 0
        self._size_sum = 0.0
        self._size_count = 0
        self._message_size_kb = config.message_size_kb
        #: Called per local delivery attempt: (subscriber, message, latency,
        #: valid).  Legacy scalar hook — kept for tests/diagnostics; the
        #: per-row loop only runs when a callback is registered.
        self.delivery_callbacks: list[DeliveryCallback] = []
        #: Called once per (message, local group) with the whole batch; the
        #: system's delivery log subscribes here — the one record of a
        #: local delivery, which the metrics ledger reduces.
        self.delivery_batch_callbacks: list[BatchDeliveryCallback] = []

    # ------------------------------------------------------------------ #
    # Wiring.
    # ------------------------------------------------------------------ #
    def add_neighbor(
        self,
        neighbor: str,
        link: DirectedLink,
        monitor: LinkMonitor,
        deliver: Callable[[Message], None],
    ) -> None:
        """Register the outbound channel to ``neighbor``.

        ``deliver`` is invoked (at transmission-completion time) with the
        message so the system can hand it to the neighbour broker.
        """
        if neighbor in self.queues:
            raise ValueError(f"{self.name}: neighbor {neighbor!r} already wired")
        sched = self.queue_type(
            strategy=self.strategy,
            pruning=self.pruning,
            epsilon=self.epsilon,
            planning_delay_ms=self.planning_delay_ms,
        )
        self.queues[neighbor] = OutputQueue(neighbor, link, monitor, deliver, sched)

    def _check_wired(self, next_hop: str | None) -> None:
        if next_hop is not None and next_hop not in self.queues:
            raise ValueError(f"{self.name}: row routes via unwired neighbor {next_hop!r}")

    def install(self, row: TableRow) -> None:
        self._check_wired(row.next_hop)
        self.table.install(row)

    def install_many(self, block: RowBlock) -> None:
        """Bulk :meth:`install`: wiring validated per route, not per row."""
        for route in block.routes:
            self._check_wired(route.next_hop)
        self.table.install_many(block)

    # ------------------------------------------------------------------ #
    # Message path.
    # ------------------------------------------------------------------ #
    def receive(self, message: Message) -> None:
        """Message arrives from upstream (or from a local publisher)."""
        self.metrics.on_reception()
        if self.trace is not None:
            self.trace.record(self.sim.now, "receive", self.name, msg=message.msg_id)
        self.sim.schedule(
            self.processing_delay_ms,
            # A partial of the bound method (not a lambda) so the pending
            # event pickles by reference inside a checkpoint's object graph.
            partial(self._process, message),
            # Label construction is skipped when tracing is off: labels
            # exist for trace/debug inspection only, and the f-string per
            # event is measurable at ingest rates.
            label=f"{self.name}:process:{message.msg_id}" if self.trace is not None else "",
            # Typed metadata: lets the sentinel count the pairs a pending
            # processing step will resolve by scanning the heap.
            kind="process",
            payload=(self, message),
        )

    def _process(self, message: Message) -> None:
        self._size_sum += message.size_kb
        self._size_count += 1
        prof = profiling.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        local, remote = self.table.match_grouped(message)
        if prof is not None:
            prof.add("match", perf_counter() - t0)
        now = self.sim.now
        if len(local):
            # Columnar local delivery: one vectorised validity comparison
            # over the group's deadline column, one batched hand-off to the
            # delivery log.  All rows share the arrival latency ``hdl(now)``.
            latency = message.hdl(now)
            valid = latency <= effective_deadline_array(local.deadline, message)
            if prof is not None:
                t0 = perf_counter()
            for batch_callback in self.delivery_batch_callbacks:
                batch_callback(self, local, message, latency, valid)
            if prof is not None:
                prof.add("append", perf_counter() - t0)
            if self.delivery_callbacks or self.trace is not None:
                valid_list = valid.tolist()
                for i, subscriber in enumerate(local.subscribers):
                    for callback in self.delivery_callbacks:
                        callback(subscriber, message, latency, valid_list[i])
                    if self.trace is not None:
                        self.trace.record(
                            now, "deliver", self.name,
                            msg=message.msg_id, subscriber=subscriber,
                            valid=valid_list[i],
                        )
        # ``remote`` iterates in sorted neighbor-name order (match_grouped's
        # insertion order) — the deterministic enqueue order, no per-message
        # re-sort.
        for neighbor, group in remote.items():
            # The group goes in as-is: TableRow objects materialise only
            # if this queue's strategy actually reads ``entry.rows``.
            if prof is not None:
                t0 = perf_counter()
            entry = self.entry_type(message, group, enqueue_time=now, seq=self._seq)
            self._seq += 1
            self.queues[neighbor].sched.push(entry)
            self.faults.on_enqueue(len(entry))
            if prof is not None:
                prof.add("enqueue", perf_counter() - t0)
            if self.trace is not None:
                self.trace.record(
                    now, "enqueue", self.name,
                    msg=message.msg_id, neighbor=neighbor, fanout=len(group),
                )
            self._try_send(neighbor)

    # ------------------------------------------------------------------ #
    # Output-queue service.
    # ------------------------------------------------------------------ #
    def average_size_kb(self) -> float:
        """Running average of processed message sizes (the ``FT`` input)."""
        if self._size_count == 0:
            return self._message_size_kb
        return self._size_sum / self._size_count

    def _context_for(self, queue: OutputQueue) -> SchedulingContext:
        rate = queue.monitor.rate()
        return SchedulingContext(
            now=self.sim.now,
            processing_delay_ms=self.planning_delay_ms,
            ft_ms=self.average_size_kb() * rate.mean,
            link_rate=rate,
        )

    def _prune(self, queue: OutputQueue) -> None:
        pruned = queue.sched.prune(self.sim.now)
        if pruned:
            if self.trace is not None:
                for entry in pruned:
                    self.trace.record(
                        self.sim.now, "prune", self.name,
                        msg=entry.message.msg_id, neighbor=queue.neighbor,
                    )
            self.metrics.on_prune(len(pruned))
            self.faults.on_prune(
                len(pruned), sum(len(e) for e in pruned)
            )

    def _try_send(self, neighbor: str) -> None:
        prof = profiling.ACTIVE
        if prof is not None:
            t0 = perf_counter()
            self._service(neighbor)
            prof.add("drain", perf_counter() - t0)
        else:
            self._service(neighbor)

    def _service(self, neighbor: str) -> None:
        queue = self.queues[neighbor]
        if queue.link.busy:
            return
        if not queue.link.up:
            # Hard-down link: keep the queue, retry with bounded backoff,
            # dead-letter entries that age past the tolerance window.
            if queue.sched:
                self._schedule_retry(neighbor)
            return
        self._prune(queue)
        if not queue.sched:
            return
        ctx = self._context_for(queue)
        entry = queue.sched.pop_best(ctx)
        self.faults.on_send(len(entry))
        duration = queue.link.draw_transmission_time(entry.message.size_kb)
        queue.link.acquire()
        self.metrics.on_transmission()
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "send", self.name,
                msg=entry.message.msg_id, neighbor=neighbor, duration=duration,
            )
        self.sim.schedule(
            duration,
            partial(self._complete_send, neighbor, entry),
            label=f"{self.name}->{neighbor}:{entry.message.msg_id}" if self.trace is not None else "",
            # Typed metadata: lets the sentinel count in-flight pairs by
            # scanning the heap (decision-neutral).
            kind="transmit",
            payload=(self, neighbor, entry),
        )

    def _complete_send(self, neighbor: str, entry: QueueEntry) -> None:
        queue = self.queues[neighbor]
        queue.link.release()
        queue.deliver(entry.message)
        self._try_send(neighbor)

    # ------------------------------------------------------------------ #
    # Fault handling: retry + dead-letter for hard-down links.
    # ------------------------------------------------------------------ #
    def _schedule_retry(self, neighbor: str) -> None:
        """Arm (at most) one pending retry event for a down link."""
        if neighbor in self._retry_pending:
            return
        backoff = self._retry_backoff.get(neighbor, RETRY_BACKOFF_MS)
        self._retry_backoff[neighbor] = min(backoff * 2.0, RETRY_MAX_BACKOFF_MS)
        self._retry_pending.add(neighbor)
        self.sim.schedule(
            backoff,
            partial(self._retry_link, neighbor),
            label=f"{self.name}->{neighbor}:retry" if self.trace is not None else "",
            kind="retry",
        )

    def _retry_link(self, neighbor: str) -> None:
        """Retry event: send if the link recovered, otherwise dead-letter
        aged entries and re-arm with doubled (capped) backoff."""
        self._retry_pending.discard(neighbor)
        queue = self.queues[neighbor]
        self.faults.on_retry()
        if queue.link.up:
            self._retry_backoff.pop(neighbor, None)
            self._try_send(neighbor)
            return
        now = self.sim.now
        for entry in queue.sched.drain_aged(now, DEAD_LETTER_TIMEOUT_MS):
            self.faults.on_dead_letter(DeadLetterRecord(
                broker=self.name,
                neighbor=neighbor,
                msg_id=entry.message.msg_id,
                pairs=len(entry),
                enqueue_ms=entry.enqueue_time,
                dead_ms=now,
                reason="link_down",
            ))
            if self.trace is not None:
                self.trace.record(
                    now, "dead_letter", self.name,
                    msg=entry.message.msg_id, neighbor=neighbor,
                )
        if queue.sched:
            self._schedule_retry(neighbor)

    def on_link_up(self, neighbor: str) -> None:
        """System hook fired when this direction transitions down → up."""
        self._retry_backoff.pop(neighbor, None)
        self._try_send(neighbor)

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    def queued_entries(self) -> int:
        """Total entries currently waiting across all output queues."""
        return sum(len(q) for q in self.queues.values())
