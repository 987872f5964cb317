"""The fused micro-batched event pipeline driver behind
:meth:`repro.pubsub.system.PubSubSystem.run`.

The per-event kernel (:meth:`repro.des.simulator.Simulator.run`, what the
reference stack in :mod:`repro.reference` runs) takes one full Python
round-trip per event: heap pop
→ handler → match → enqueue → send scheduling.  The fused driver drains
the same heap in **event-time windows**: before executing a window's
events it walks the simulator's side list of pending typed ``"process"``
events (a message reaching a broker's processing stage; see
:meth:`~repro.des.simulator.Simulator.watch`), batch-matches them per
broker in one pass over the columnar
:class:`~repro.pubsub.subscription.SubscriptionTable`
(:meth:`~repro.pubsub.subscription.SubscriptionTable.match_grouped_many`)
and stashes the results in each broker's match memo; the window's events
then run through a tight specialised inner loop that consumes the
precomputed matches.

Correctness discipline (the house standard, same as the queue / matcher
/ metrics layers):

* **Execution order is untouched.**  The engine pops events in exactly
  the heap's ``(time, priority, seq)`` order and runs every action —
  all side effects (metric folds, log appends, queue pushes, RNG draws)
  happen in per-event order, so delivery-log bytes and ledger float
  folds are byte-identical to the oracle.  Only the *match* — a pure
  function of (table state, message) — is computed speculatively.
* **Churn cannot skew a match.**  Memoised results carry the table's
  mutation counter; ``Broker._process`` discards a stale memo and
  recomputes.  If the lookahead meets a pending process event whose memo
  is missing or stale, it looks ahead again before executing it.
* **Opaque events are barriers.**  Dynamics interventions, workload
  lambdas and test callbacks carry no ``kind``; the lookahead never
  inspects them and the inner loop just executes them in order.

Windows are an execution micro-batching device only — simulated time is
continuous and event timestamps are untouched, so an event exactly on a
window boundary behaves identically under any window size.
"""

from __future__ import annotations

import heapq
from time import perf_counter

from repro.core import profiling
from repro.des.simulator import SimulationError, Simulator

#: Default event-time window (ms).  Wide enough to gather a message's
#: receive→process burst across brokers (processing delay is 2 ms, hop
#: transmissions tens of ms), narrow against scheduling horizons.
DEFAULT_WINDOW_MS = 50.0


class FusedEngine:
    """Window-drain driver over a :class:`Simulator` heap.

    ``system`` supplies the brokers whose match memos the lookahead
    fills; pass ``None`` for a bare event-throughput drain (used by the
    dispatch microbenchmark), which skips the lookahead entirely.  The
    simulator's side list of pending process events is kept from the
    first lookahead on, so an engine that never drives watches nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        system: object | None = None,
        window_ms: float = DEFAULT_WINDOW_MS,
    ) -> None:
        if window_ms <= 0.0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        self.sim = sim
        self.system = system
        self.window_ms = window_ms

    # ------------------------------------------------------------------ #
    # Lookahead.
    # ------------------------------------------------------------------ #
    @staticmethod
    def _unmatched(ev) -> bool:
        """True when a process event has no fresh match memo (scheduled
        after the last lookahead, or staled by churn)."""
        broker, message = ev.payload
        memo = broker._match_memo.get(message.msg_id)
        return memo is None or memo[0] != broker.table.version

    def _due_unmatched(self, wend: float) -> list:
        """Pending ``"process"`` events due by ``wend`` that still need a
        match, from the simulator's side list (order is irrelevant for a
        pure computation)."""
        self.sim.watch("process")
        unmatched = self._unmatched
        return [
            ev for ev in self.sim.pending("process")
            if ev.time <= wend and unmatched(ev)
        ]

    def _precompute(self, wend: float) -> None:
        """Batch-match every pending ``"process"`` event due by ``wend``,
        grouped per broker so each table compiles once and per-source
        masks are shared across the window's messages."""
        pending: dict[object, list] = {}
        for ev in self._due_unmatched(wend):
            broker, message = ev.payload
            pending.setdefault(broker, []).append(message)
        if not pending:
            return
        prof = profiling.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        for broker, messages in pending.items():
            table = broker.table
            version = table.version
            results = table.match_grouped_many(messages)
            memo = broker._match_memo
            for message, result in zip(messages, results):
                memo[message.msg_id] = (version, result)
        if prof is not None:
            prof.add("match", perf_counter() - t0)

    def _needs_rescan(self, head) -> bool:
        """True when the next event is a process step without a fresh memo."""
        return head.kind == "process" and self._unmatched(head)

    # ------------------------------------------------------------------ #
    # Drive.
    # ------------------------------------------------------------------ #
    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drive the simulation exactly like :meth:`Simulator.run`.

        Same closed-interval ``until`` semantics, same drained-early
        clock advance, same executed-event count — the differential
        tests assert all of it.
        """
        sim = self.sim
        if sim._running:
            raise SimulationError("run() is not reentrant")
        sim._running = True
        executed = 0
        window = self.window_ms
        lookahead = self.system is not None
        if lookahead:
            sim.watch("process")
        heap = sim._heap
        heappop = heapq.heappop
        prof = profiling.ACTIVE
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                head = heap[0]
                if head.cancelled:
                    heappop(heap)
                    continue
                if until is not None and head.time > until:
                    break
                # One event-time window, re-entered after every lookahead.
                wend = head.time + window
                if until is not None and wend > until:
                    wend = until
                if lookahead:
                    self._precompute(wend)
                # The tight inner loop: pop/dispatch without per-event
                # window arithmetic; leaves the loop at a window boundary,
                # a lookahead miss, or the event budget.
                while heap:
                    if max_events is not None and executed >= max_events:
                        break
                    head = heap[0]
                    if head.cancelled:
                        heappop(heap)
                        continue
                    if head.time > wend:
                        break
                    if lookahead and self._needs_rescan(head):
                        self._precompute(wend)
                    t0 = perf_counter() if prof is not None else 0.0
                    heappop(heap)
                    sim._now = head.time
                    sim._executed += 1
                    executed += 1
                    sim._live -= 1
                    head.done = True
                    if prof is not None:
                        prof.add("pop", perf_counter() - t0)
                    head.action()
            if until is not None and sim._now < until and sim._live == 0:
                sim._now = until
        finally:
            sim._running = False
            if lookahead:
                # Events executed since the last lookahead leave the side
                # list here, not in the next run or a snapshot in between.
                sim.pending("process")
        return executed

