"""Fault accounting: the queue-entry conservation ledger.

One :class:`FaultLedger` is shared by the system and every broker.  It
counts queue *entries* (one message bound for one remote neighbour) and
the (message, subscriber) *pairs* riding inside them, at each point of
the entry life cycle:

* ``enqueued``   — entry pushed onto a neighbour queue,
* ``sent``       — entry popped and its transmission started,
* ``pruned``     — entry deleted by deadline/feasibility pruning,
* ``dead``       — entry dead-lettered after aging out on a down link.

At any instant ``enqueued == sent + pruned + dead + still-queued`` holds
exactly (the sentinel checks it at every window boundary), and because
``sent`` entries either complete or are still in flight, the pair-level
identity *published = delivered + expired + dead-lettered + in-flight*
closes at end of run.  All updates are cheap integer adds on paths that
already do far more work per entry, and with no faults in the script the
fault counters stay zero — the run is byte-identical either way because
the ledger only observes, never decides.

Dead-letter semantics (graceful degradation): a broker whose link is
hard-down keeps the queued entries and retries with bounded exponential
backoff (:data:`RETRY_BACKOFF_MS` doubling up to
:data:`RETRY_MAX_BACKOFF_MS`); entries older than
:data:`DEAD_LETTER_TIMEOUT_MS` are removed and recorded here.  Nothing
is silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: First retry delay after a send finds its link hard-down; each failed
#: retry doubles it, up to :data:`RETRY_MAX_BACKOFF_MS`.
RETRY_BACKOFF_MS = 1_000.0
RETRY_MAX_BACKOFF_MS = 8_000.0
#: Age past which an entry queued for a hard-down link is dead-lettered.
DEAD_LETTER_TIMEOUT_MS = 30_000.0


@dataclass(frozen=True, slots=True)
class DeadLetterRecord:
    """One dead-lettered queue entry (a message × one down neighbour)."""

    broker: str
    neighbor: str
    msg_id: int
    pairs: int
    enqueue_ms: float
    dead_ms: float
    reason: str


@dataclass
class FaultLedger:
    """Shared entry/pair life-cycle counters plus fault-specific drops."""

    # -- entry life cycle (always active, faults or not) ----------------- #
    enqueued_entries: int = 0
    enqueued_pairs: int = 0
    sent_entries: int = 0
    sent_pairs: int = 0
    pruned_entries: int = 0
    pruned_pairs: int = 0

    # -- fault-layer drops (zero unless a fault script bites) ------------ #
    dead_entries: int = 0
    dead_pairs: int = 0
    #: Publications dropped whole because their source broker was down.
    publish_drops: int = 0
    #: Interested pairs of those dropped publications.
    publish_drop_pairs: int = 0
    #: Retry events fired against down links (diagnostics only).
    retries: int = 0
    #: Bounded tail of individual dead-letter records for inspection.
    records: list[DeadLetterRecord] = field(default_factory=list)
    #: Cap on ``records`` length (counters above are always exact).
    max_records: int = 4096

    # ------------------------------------------------------------------ #
    # Recording (all O(1) integer adds).
    # ------------------------------------------------------------------ #
    def on_enqueue(self, pairs: int) -> None:
        self.enqueued_entries += 1
        self.enqueued_pairs += pairs

    def on_send(self, pairs: int) -> None:
        self.sent_entries += 1
        self.sent_pairs += pairs

    def on_prune(self, entries: int, pairs: int) -> None:
        self.pruned_entries += entries
        self.pruned_pairs += pairs

    def on_dead_letter(self, record: DeadLetterRecord) -> None:
        self.dead_entries += 1
        self.dead_pairs += record.pairs
        if len(self.records) < self.max_records:
            self.records.append(record)

    def on_publish_drop(self, pairs: int) -> None:
        self.publish_drops += 1
        self.publish_drop_pairs += pairs

    def on_retry(self) -> None:
        self.retries += 1

    # ------------------------------------------------------------------ #
    # Views.
    # ------------------------------------------------------------------ #
    @property
    def clean(self) -> bool:
        """True iff no fault ever bit (the no-faults byte-identity case)."""
        return (
            self.dead_entries == 0
            and self.publish_drops == 0
            and self.retries == 0
        )

    def summary(self) -> dict[str, int]:
        return {
            "enqueued_entries": self.enqueued_entries,
            "enqueued_pairs": self.enqueued_pairs,
            "sent_entries": self.sent_entries,
            "sent_pairs": self.sent_pairs,
            "pruned_entries": self.pruned_entries,
            "pruned_pairs": self.pruned_pairs,
            "dead_entries": self.dead_entries,
            "dead_pairs": self.dead_pairs,
            "publish_drops": self.publish_drops,
            "publish_drop_pairs": self.publish_drop_pairs,
            "retries": self.retries,
        }
