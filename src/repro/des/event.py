"""Event records for the simulation kernel."""

from __future__ import annotations

from typing import Callable


class Event:
    """A scheduled callback.

    Ordering is ``(time, priority, seq)``: earlier simulated time first,
    then lower ``priority`` value, then insertion order — which makes event
    execution fully deterministic for a fixed schedule, a prerequisite for
    seed-reproducible experiments.

    A ``__slots__`` record: the kernel allocates one per scheduled
    callback, so dataclass machinery (generated ``__init__`` with
    defaults-processing, an instance ``__dict__``) is measurable overhead
    at paper-scale event counts.  The kernel's heap orders
    ``(time, priority, seq, event)`` tuples, so its comparisons never call
    :meth:`__lt__`; the methods give the same order to code that sorts
    events.
    """

    __slots__ = (
        "time", "priority", "seq", "action", "label", "cancelled", "done",
        "kind", "payload",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
        kind: str = "",
        payload: object = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled
        self.done = False  # set by the kernel once the action has run
        # Typed-event metadata: ``kind`` names the pipeline stage the
        # action performs ("" = opaque) and ``payload`` carries its
        # operands.  The action stays the executable — kind/payload exist
        # so an inspector can read pending events without executing them:
        # the invariant sentinel counts the pairs a pending "process" or
        # "transmit" event owns.  The kernel itself never reads them.
        self.kind = kind
        self.payload = payload

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (other.time, other.priority, other.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.priority, self.seq) == (other.time, other.priority, other.seq)

    __hash__ = None  # mutable record ordered by key; keep it unhashable

    def __getstate__(self) -> tuple:
        """Compact tuple state: ``__slots__`` classes get no free pickle
        support, and checkpoints serialize one Event per pending callback."""
        return (
            self.time, self.priority, self.seq, self.action, self.label,
            self.cancelled, self.done, self.kind, self.payload,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.time, self.priority, self.seq, self.action, self.label,
            self.cancelled, self.done, self.kind, self.payload,
        ) = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} p={self.priority} #{self.seq}{flag} {self.label!r}>"


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Cancellation is lazy: the event stays in the heap but is skipped when
    popped, so cancel is O(1) and the heap never needs re-sifting.  The
    optional ``on_cancel`` callback lets the owning simulator keep its
    live-event counter exact without scanning the heap.
    """

    __slots__ = ("_event", "_on_cancel")

    def __init__(
        self, event: Event, on_cancel: Callable[[Event], None] | None = None
    ) -> None:
        self._event = event
        self._on_cancel = on_cancel

    def __getstate__(self) -> tuple:
        return (self._event, self._on_cancel)

    def __setstate__(self, state: tuple) -> None:
        self._event, self._on_cancel = state

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def label(self) -> str:
        return self._event.label

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def done(self) -> bool:
        """Whether the event's action has already executed."""
        return self._event.done

    def cancel(self) -> bool:
        """Cancel the event; returns False if it was already cancelled
        **or already executed**.

        A stale handle (the action ran before the caller got around to
        cancelling) must not report success — callers use the return
        value to decide whether they prevented the action, and marking a
        done event cancelled would also misstate its state to later
        inspectors.  The event is left untouched in that case.
        """
        if self._event.cancelled or self._event.done:
            return False
        self._event.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel(self._event)
        return True
