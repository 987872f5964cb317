"""The event-heap simulator."""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Callable

from repro.core import profiling
from repro.des.event import Event, EventHandle


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling into the past, etc.)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Time is a float in **milliseconds** throughout this project (the paper
    quotes link rates in ms/KB and processing delay in ms).  The kernel
    itself is unit-agnostic.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[Event] = []
        self._seq = 0
        self._executed = 0
        self._running = False
        #: Non-cancelled events still in the heap.  Maintained at schedule /
        #: cancel / execute time so the drained-early check in :meth:`run`
        #: is O(1) instead of a rescan of the heap per return.
        self._live = 0
        #: kind -> events of that kind scheduled since :meth:`watch` and not
        #: yet seen done or cancelled by :meth:`pending`, in scheduling order.
        self._watched: dict[str, list[Event]] = {}

    # ------------------------------------------------------------------ #
    # Serialization.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Checkpoints snapshot the kernel *between* events — capturing a
        heap mid-``run()`` would freeze a half-executed action."""
        if self._running:
            raise SimulationError("cannot snapshot a running simulator")
        return self.__dict__.copy()

    # ------------------------------------------------------------------ #
    # Clock.
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (cancelled pops excluded)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Events still in the heap, including lazily cancelled ones."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Events still in the heap that have not been cancelled."""
        return self._live

    # ------------------------------------------------------------------ #
    # Scheduling.
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
        kind: str = "",
        payload: object = None,
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0.0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(
            self._now + delay, action,
            priority=priority, label=label, kind=kind, payload=payload,
        )

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
        kind: str = "",
        payload: object = None,
    ) -> EventHandle:
        """Schedule ``action`` at absolute simulated time ``time``.

        ``kind``/``payload`` are optional typed-event metadata (see
        :class:`~repro.des.event.Event`): they let the fused engine's
        lookahead inspect pending work without executing it.  The action
        remains the sole executable either way.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        event = Event(float(time), priority, self._seq, action, label, kind=kind, payload=payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        if kind:
            watched = self._watched.get(kind)
            if watched is not None:
                watched.append(event)
        return EventHandle(event, self._note_cancelled)

    def watch(self, kind: str) -> None:
        """Keep a side list of the pending events of ``kind`` for
        :meth:`pending`, so a lookahead costs O(pending of that kind)
        instead of a scan of the whole heap.  Nothing is tracked (and
        nothing grows) for kinds nobody watches.  Idempotent."""
        if kind not in self._watched:
            self._watched[kind] = [
                ev for ev in self._heap if ev.kind == kind and not ev.cancelled
            ]

    def pending(self, kind: str) -> list[Event]:
        """The not-yet-executed, non-cancelled events of a watched kind,
        in scheduling order.  Each call drops the events that ran or were
        cancelled since the last one, so the list stays O(pending)."""
        live = self._watched[kind] = [
            ev for ev in self._watched[kind] if not (ev.done or ev.cancelled)
        ]
        return live

    def _note_cancelled(self, event: Event) -> None:
        """Handle-cancel hook: keep the live counter exact.

        Cancelling an event that already ran leaves the counter alone —
        its live slot was consumed at execution time.
        """
        if not event.done:
            self._live -= 1

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute the next non-cancelled event.  Returns False when idle."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            self._executed += 1
            self._live -= 1
            event.done = True
            event.action()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        Events scheduled *exactly at* ``until`` are executed (closed
        interval), matching the "test period of length T" semantics of the
        experiments.  Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        prof = profiling.ACTIVE
        try:
            while self._heap:
                if max_events is not None and executed >= max_events:
                    break
                t0 = perf_counter() if prof is not None else 0.0
                head = self._heap[0]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and head.time > until:
                    break
                heapq.heappop(self._heap)
                self._now = head.time
                self._executed += 1
                executed += 1
                self._live -= 1
                head.done = True
                if prof is not None:
                    prof.add("pop", perf_counter() - t0)
                head.action()
            if until is not None and self._now < until and self._live == 0:
                # Drained early: advance the clock to the horizon so that
                # time-based metrics (rates per period) stay well-defined.
                self._now = until
        finally:
            self._running = False
        return executed
