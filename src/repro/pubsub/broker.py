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
from typing import Callable

import numpy as np

from repro.core import profiling
from repro.core.context import SchedulingContext
from repro.core.pruning import DEFAULT_EPSILON, PruningPolicy
from repro.core.queueing import ScheduledQueue
from repro.core.strategies import QueueEntry, Strategy
from repro.core.success import effective_deadline_array
from repro.des.simulator import Simulator
from repro.des.trace import TraceRecorder
from repro.network.link import DirectedLink
from repro.network.measurement import LinkMonitor
from repro.pubsub.faults import DeadLetterRecord, FaultLedger
from repro.pubsub.message import Message
from repro.pubsub.metrics import MetricsCollector
from repro.pubsub.subscription import RowBlock, SubscriptionTable, TableRow

_EMPTY_SIDS = np.empty(0, dtype=np.int64)


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
#: boolean array, and the group exposes the table's interned subscriber
#: ids so receivers can translate with a cached gather.
BatchDeliveryCallback = Callable[["Broker", "object", Message, float, "object"], None]


class Broker:
    """One overlay broker."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        strategy: Strategy,
        metrics: MetricsCollector,
        processing_delay_ms: float = 2.0,
        epsilon: float = DEFAULT_EPSILON,
        pruning_override: PruningPolicy | None = None,
        default_size_kb: float = 50.0,
        scheduling_slack_per_hop_ms: float = 0.0,
        trace: TraceRecorder | None = None,
        queue_backend: str = "auto",
        queue_validate: bool = False,
        matcher_backend: str = "vector",
        faults: FaultLedger | None = None,
        fault_retry_backoff_ms: float = 1_000.0,
        fault_retry_max_backoff_ms: float = 8_000.0,
        dead_letter_timeout_ms: float = 30_000.0,
    ) -> None:
        if processing_delay_ms < 0.0:
            raise ValueError("processing_delay_ms must be non-negative")
        if scheduling_slack_per_hop_ms < 0.0:
            raise ValueError("scheduling_slack_per_hop_ms must be non-negative")
        if fault_retry_backoff_ms <= 0.0 or fault_retry_max_backoff_ms < fault_retry_backoff_ms:
            raise ValueError("retry backoff must be positive and <= its cap")
        if dead_letter_timeout_ms <= 0.0:
            raise ValueError("dead_letter_timeout_ms must be positive")
        self.name = name
        self.sim = sim
        self.strategy = strategy
        self.metrics = metrics
        self.processing_delay_ms = processing_delay_ms
        # The paper assumes downstream scheduling delay is 0 inside fdl;
        # this slack relaxes that, billing every remaining hop an extra
        # planning allowance inside success() without changing the real
        # per-hop delay.  0 reproduces the paper.
        self.planning_delay_ms = processing_delay_ms + scheduling_slack_per_hop_ms
        self.epsilon = epsilon
        self.pruning = (
            pruning_override
            if pruning_override is not None
            else PruningPolicy.for_strategy(strategy.probabilistic_pruning)
        )
        self.queue_backend = queue_backend
        self.queue_validate = queue_validate
        self.table = SubscriptionTable(matcher_backend=matcher_backend)
        self.queues: dict[str, OutputQueue] = {}
        self.trace = trace
        # Fault layer: shared conservation ledger plus per-neighbour retry
        # state.  With every link up none of this schedules anything — the
        # no-faults run stays byte-identical.
        self.faults = faults if faults is not None else FaultLedger()
        self.fault_retry_backoff_ms = fault_retry_backoff_ms
        self.fault_retry_max_backoff_ms = fault_retry_max_backoff_ms
        self.dead_letter_timeout_ms = dead_letter_timeout_ms
        self._retry_pending: set[str] = set()
        self._retry_backoff: dict[str, float] = {}
        self._seq = 0
        self._size_sum = 0.0
        self._size_count = 0
        self._default_size_kb = default_size_kb
        #: Called per local delivery attempt: (subscriber, message, latency,
        #: valid).  Legacy scalar hook — kept for tests/diagnostics; the
        #: per-row loop only runs when a callback is registered.
        self.delivery_callbacks: list[DeliveryCallback] = []
        #: Called once per (message, local group) with the whole batch; the
        #: system's endpoint log subscribes here.
        self.delivery_batch_callbacks: list[BatchDeliveryCallback] = []
        # Table-local subscriber id -> ledger id translation, extended
        # whenever the table interns new names; lets batched settlement
        # skip per-row name lookups when the collector supports ids.
        self._metrics_sids = _EMPTY_SIDS if hasattr(metrics, "on_delivery_batch_ids") else None
        #: msg_id -> (table version, match_grouped result), filled by the
        #: fused engine's window lookahead and consumed by :meth:`_process`
        #: (stale versions are recomputed, so churn can never skew a match).
        self._match_memo: dict[int, tuple[int, tuple]] = {}

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
        sched = ScheduledQueue(
            strategy=self.strategy,
            pruning=self.pruning,
            epsilon=self.epsilon,
            planning_delay_ms=self.planning_delay_ms,
            backend=self.queue_backend,
            validate=self.queue_validate,
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
            # Typed metadata so the fused engine's window lookahead can
            # batch-match pending processing steps ahead of execution.
            kind="process",
            payload=(self, message),
        )

    def _process(self, message: Message) -> None:
        self._size_sum += message.size_kb
        self._size_count += 1
        prof = profiling.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        memo = self._match_memo.pop(message.msg_id, None)
        if memo is not None and memo[0] == self.table.version:
            # Precomputed by the fused engine's window lookahead; the
            # version check discards results staled by churn in between.
            local, remote = memo[1]
        else:
            local, remote = self.table.match_grouped(message)
        if prof is not None:
            prof.add("match", perf_counter() - t0)
        now = self.sim.now
        if len(local):
            # Columnar local delivery: one vectorised validity comparison
            # over the group's deadline column, one batched hand-off to the
            # metrics ledger and the endpoint log.  All rows share the
            # arrival latency ``hdl(now)``.
            prices = local.price
            latency = message.hdl(now)
            valid = latency <= effective_deadline_array(local.deadline, message)
            if prof is not None:
                t0 = perf_counter()
            if self._metrics_sids is not None:
                sids = self._metrics_sids
                names = local.sub_names
                if sids.shape[0] < len(names):
                    # Interning is append-only on both sides: extend the
                    # translation with the new tail only.
                    sids = self._metrics_sids = np.concatenate((
                        sids, self.metrics.intern_subscribers(names[sids.shape[0]:])
                    ))
                # match_grouped guarantees one row per subscriber in the
                # local group, so the ledger can skip its uniqueness check.
                self.metrics.on_delivery_batch_ids(
                    message.msg_id, sids[local.sub_ids], latency, prices, valid,
                    assume_unique=True,
                )
            else:
                self.metrics.on_delivery_batch(
                    message.msg_id, local.subscribers, latency, prices, valid
                )
            if prof is not None:
                t1 = perf_counter()
                prof.add("metrics", t1 - t0)
            for batch_callback in self.delivery_batch_callbacks:
                batch_callback(self, local, message, latency, valid)
            if prof is not None:
                prof.add("append", perf_counter() - t1)
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
            entry = QueueEntry(
                message, group, enqueue_time=now, seq=self._seq,
                arrays=group.arrays,
            )
            self._seq += 1
            self.queues[neighbor].sched.push(entry)
            self.faults.on_enqueue(len(entry.arrays))
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
            return self._default_size_kb
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
                len(pruned), sum(len(e.arrays) for e in pruned)
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
        self.faults.on_send(len(entry.arrays))
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
            # scanning the heap (the fused engine executes non-"process"
            # kinds opaquely, so this is decision-neutral).
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
        backoff = self._retry_backoff.get(neighbor, self.fault_retry_backoff_ms)
        self._retry_backoff[neighbor] = min(
            backoff * 2.0, self.fault_retry_max_backoff_ms
        )
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
        for entry in queue.sched.drain_aged(now, self.dead_letter_timeout_ms):
            self.faults.on_dead_letter(DeadLetterRecord(
                broker=self.name,
                neighbor=neighbor,
                msg_id=entry.message.msg_id,
                pairs=len(entry.arrays),
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
    # Serialization.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Checkpoint support: the match memo is a pure cache (recomputed
        by the fused engine's lookahead, version-checked by
        :meth:`_process`), so snapshots drop its contents instead of
        serializing speculative results."""
        state = self.__dict__.copy()
        state["_match_memo"] = {}
        return state

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    def queued_entries(self) -> int:
        """Total entries currently waiting across all output queues."""
        return sum(len(q) for q in self.queues.values())
