"""Runtime invariant sentinel: cheap streaming checks *during* the run.

Every accounting invariant the test suite proves post-hoc is worthless in
a long production run that silently corrupted itself at minute three.
:class:`InvariantSentinel` runs the checks while the simulation is live,
at window boundaries, raising a typed :class:`InvariantViolation` with
full context the moment an identity breaks:

* **clock/heap monotonicity** — simulated time never runs backwards and
  no pending event is scheduled in the past;
* **counter monotonicity** — published/receptions/transmissions/
  deliveries/pruned/ledger counters never decrease between boundaries;
* **metrics accounting** — the collector's own ``check_invariants``
  (``ds_i <= ts_i`` per message, valid-total consistency, non-negative
  counters), surfaced as a sentinel violation;
* **entry conservation** — every queue entry ever created is sent,
  pruned, dead-lettered, or still queued: exact at any instant;
* **monitor-rate sanity** — every link monitor exposes a finite,
  positive mean rate (a zero/NaN rate would silently poison scheduling
  scores downstream).

The **pair conservation** identity — published = delivered + expired +
dead-lettered + in-flight, at the (message, subscriber) granularity — is
exact under single-path routing with no mid-run unsubscribes (a leave
orphans in-flight pairs by design; joins are watermarked and safe).  It
needs a heap scan plus a pure re-match per pending processing step, so it
runs at :meth:`final` by default and at every boundary under ``deep``.

The sentinel is *decision-neutral*: it only reads.  It never schedules
events, never touches an RNG stream, and never mutates broker state, so
a sentinel-on run is byte-identical to a sentinel-off run (the
checkpoint-identity suite's ``executed_events`` comparison would catch
any slip).  It is wired as ``--sentinel`` on ``run``/``scale``/
``dynamics`` and forced on in the test suite via ``REPRO_SENTINEL``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pubsub.system import PubSubSystem

#: Counters that must never decrease between boundary checks, read off
#: the metrics collector (attribute name -> human label).
_MONOTONE_METRICS = (
    "published", "receptions", "transmissions",
    "deliveries_valid", "deliveries_late", "pruned", "total_interested",
)

#: Same discipline for the fault ledger's counters.
_MONOTONE_FAULTS = (
    "enqueued_entries", "enqueued_pairs", "sent_entries", "sent_pairs",
    "pruned_entries", "pruned_pairs", "dead_entries", "dead_pairs",
    "publish_drops", "publish_drop_pairs", "retries",
)


class InvariantViolation(AssertionError):
    """A runtime invariant does not hold.

    Carries the failed check's name, the simulated time, and a context
    dict with every quantity that entered the comparison, so a violation
    in a long run is diagnosable from the exception alone.
    """

    def __init__(self, check: str, time_ms: float, context: dict, message: str) -> None:
        self.check = check
        self.time_ms = time_ms
        self.context = dict(context)
        super().__init__(
            f"[sentinel:{check}] t={time_ms:.3f} ms: {message} | context={self.context}"
        )


class InvariantSentinel:
    """Streaming invariant checks over one live :class:`PubSubSystem`.

    ``deep=True`` additionally runs the pair-conservation scan at every
    boundary (heap walk + pure re-match of pending processing steps);
    otherwise that identity is checked once, at :meth:`final`.
    """

    def __init__(self, system: "PubSubSystem", deep: bool = False) -> None:
        self.system = system
        self.deep = deep
        self.checks_run = 0
        self._last_now = -math.inf
        self._last_metrics: dict[str, int] = {}
        self._last_faults: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Individual checks.
    # ------------------------------------------------------------------ #
    def _fail(self, check: str, context: dict, message: str) -> None:
        raise InvariantViolation(check, self.system.sim.now, context, message)

    def _check_clock(self) -> None:
        now = self.system.sim.now
        if now < self._last_now:
            self._fail(
                "clock-monotonic",
                {"now": now, "last": self._last_now},
                "simulated clock ran backwards",
            )
        self._last_now = now
        head = next(self.system.sim.pending(), None)
        if head is not None and not head.cancelled and head.time < now:
            self._fail(
                "heap-monotonic",
                {"now": now, "head_time": head.time, "head_label": head.label},
                "pending event scheduled in the past",
            )

    def _check_metrics(self) -> None:
        m = self.system.metrics
        try:
            m.check_invariants()
        except AssertionError as err:
            self._fail("metrics-accounting", {"collector": type(m).__name__}, str(err))
        current = {name: int(getattr(m, name)) for name in _MONOTONE_METRICS}
        for name, value in current.items():
            if value < self._last_metrics.get(name, 0):
                self._fail(
                    "counter-monotonic",
                    {"counter": name, "value": value, "previous": self._last_metrics[name]},
                    "metrics counter decreased",
                )
        self._last_metrics = current

    def _check_fault_ledger(self) -> None:
        f = self.system.faults
        current = {name: int(getattr(f, name)) for name in _MONOTONE_FAULTS}
        for name, value in current.items():
            if value < self._last_faults.get(name, 0):
                self._fail(
                    "counter-monotonic",
                    {"counter": name, "value": value, "previous": self._last_faults[name]},
                    "fault-ledger counter decreased",
                )
        self._last_faults = current
        if f.sent_pairs > f.enqueued_pairs or f.sent_entries > f.enqueued_entries:
            self._fail(
                "entry-conservation", f.summary(), "sent more entries than enqueued"
            )

    def _check_entry_conservation(self) -> None:
        f = self.system.faults
        queued = self.system.total_queued()
        accounted = f.sent_entries + f.pruned_entries + f.dead_entries + queued
        if f.enqueued_entries != accounted:
            self._fail(
                "entry-conservation",
                {**f.summary(), "live_queued": queued},
                f"enqueued {f.enqueued_entries} != sent+pruned+dead+queued {accounted}",
            )

    def _check_monitor_rates(self) -> None:
        for (src, dst), monitor in self.system.monitors.items():
            rate = monitor.rate()
            if (
                not math.isfinite(rate.mean)
                or rate.mean <= 0.0
                or not math.isfinite(rate.variance)
                or rate.variance < 0.0
            ):
                self._fail(
                    "monitor-rate",
                    {"link": f"{src}->{dst}", "mean": rate.mean, "variance": rate.variance},
                    "monitor exposes a non-positive or non-finite rate",
                )

    # ------------------------------------------------------------------ #
    # Pair conservation (the deep check).
    # ------------------------------------------------------------------ #
    @property
    def pair_conservation_applicable(self) -> bool:
        """Exact only under single-path routing with no mid-run leaves:
        a multi-path copy or an unsubscribe can orphan in-flight pairs."""
        return (
            self.system.config.routing_paths == 1
            and self.system.unsubscribe_count == 0
        )

    def _pending_pairs(self) -> tuple[int, int]:
        """(processing, in-transit) pairs owned by pending heap events.

        A pending ``process`` event owns every pair its broker's table
        will resolve when it fires (re-matched here: a match is pure, and
        the filter verdicts it may cache on the message are a pure
        function of the message); a pending ``transmit`` event
        owns the pairs of its in-flight entry.
        """
        process_pairs = 0
        transit_pairs = 0
        for ev in self.system.sim.pending():
            if ev.cancelled:
                continue
            if ev.kind == "process":
                broker, message = ev.payload
                local, remote = broker.table.match_grouped(message)
                process_pairs += len(local)
                for group in remote.values():
                    process_pairs += len(group)
            elif ev.kind == "transmit":
                _broker, _neighbor, entry = ev.payload
                transit_pairs += len(entry)
        return process_pairs, transit_pairs

    def _check_pair_conservation(self) -> None:
        if not self.pair_conservation_applicable:
            return
        m = self.system.metrics
        f = self.system.faults
        queued_pairs = sum(  # repro-lint: ignore[RL006] -- exact integer tally
            len(entry)
            for broker in self.system.brokers.values()
            for queue in broker.queues.values()
            for entry in queue.sched.entries()
        )
        process_pairs, transit_pairs = self._pending_pairs()
        settled = m.deliveries_valid + m.deliveries_late
        dropped = f.pruned_pairs + f.dead_pairs + f.publish_drop_pairs
        in_flight = queued_pairs + transit_pairs + process_pairs
        accounted = settled + dropped + in_flight
        if m.total_interested != accounted:
            self._fail(
                "pair-conservation",
                {
                    "total_interested": m.total_interested,
                    "deliveries_valid": m.deliveries_valid,
                    "deliveries_late": m.deliveries_late,
                    "pruned_pairs": f.pruned_pairs,
                    "dead_pairs": f.dead_pairs,
                    "publish_drop_pairs": f.publish_drop_pairs,
                    "queued_pairs": queued_pairs,
                    "transit_pairs": transit_pairs,
                    "process_pairs": process_pairs,
                },
                f"published pairs {m.total_interested} != delivered+expired+"
                f"dead-lettered+in-flight {accounted}",
            )

    # ------------------------------------------------------------------ #
    # Entry points.
    # ------------------------------------------------------------------ #
    def check(self) -> None:
        """Run the cheap boundary checks (plus the deep scan if enabled)."""
        self._check_clock()
        self._check_metrics()
        self._check_fault_ledger()
        self._check_entry_conservation()
        self._check_monitor_rates()
        if self.deep:
            self._check_pair_conservation()
        self.checks_run += 1

    def final(self) -> None:
        """End-of-run check: everything, including pair conservation."""
        self.check()
        if not self.deep:
            self._check_pair_conservation()
