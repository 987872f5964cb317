"""The driver behind :meth:`repro.pubsub.system.PubSubSystem.run`.

Both stacks run one kernel, :meth:`repro.des.simulator.Simulator.run`:
heap pop → handler → match → enqueue → send scheduling, one event at a
time, in the heap's ``(time, priority, seq)`` order.  Nothing is computed
ahead of its event.  A match is cheap without lookahead because the filter
verdicts of a publication are computed once, when it is published, and
cached on the message (:class:`~repro.pubsub.matching.FilterIndex`); each
broker only gathers them through its route plan
(:meth:`~repro.pubsub.subscription.SubscriptionTable.match_grouped`).

:class:`FusedEngine` is that kernel behind a named entry point, which the
benchmark's layer tracer wraps to attribute the run phase.
"""

from __future__ import annotations

from repro.des.simulator import Simulator


class FusedEngine:
    """Drives a :class:`Simulator` heap; see :meth:`run`."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Exactly :meth:`Simulator.run`: closed-interval ``until``,
        drained-early clock advance, executed-event count."""
        return self.sim.run(until=until, max_events=max_events)
