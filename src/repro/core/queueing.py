"""The ScheduledQueue subsystem: incremental output-queue servicing.

The broker's legacy hot path rescored **every** waiting entry on every
send (``Strategy.select``) and rescanned the whole queue on every prune
(``should_prune`` over all entries), making one queue drain O(n²) — worst
exactly where the paper's Figures 5/6 live (saturated links, deep
queues).  :class:`ScheduledQueue` owns the waiting entries of one output
queue and makes both operations incremental while reproducing the legacy
decisions *exactly* (max score, FIFO tie-break on seq):

* **Selection** is delegated to a backend chosen from the strategy's
  :attr:`~repro.core.strategies.Strategy.score_kind` capability:

  - ``static`` / ``age_monotone`` → :class:`_KeyedHeapBackend`, an exact
    lazy heap on the strategy's time-invariant ``static_key`` (FIFO's
    ``−seq``; RL's scores all decay at 1 ms/ms, so its ordering never
    changes either).
  - ``dynamic`` with a score bound → :class:`_BoundedHeapBackend`, an
    amortised re-validation heap: entries carry the upper bound from
    ``score_and_bound`` (for EB/PC/EBPC the current EB, which shrinks as
    messages age); a selection pops and freshly rescores only the top
    candidates until the next stale bound cannot beat the best fresh
    score.  Everything examined is reinserted with its tightened bound.
  - ``dynamic`` without a bound → :class:`_ScanBackend`, the legacy full
    rescan — the fallback for strategies that advertise no capability,
    and the only selection the reference stack (:mod:`repro.reference`)
    uses.

* **A lone live entry** is sent without being scored (it wins whatever
  it scores), and the heap and prune index are cleared with it: every
  record left in them is stale.

* **Pruning** drains an expiry-ordered side index instead of scanning:
  entries are keyed by their analytic :func:`~repro.core.pruning.
  prune_horizon` (minus a safety margin); only entries whose horizon has
  arrived are re-checked with the exact :func:`~repro.core.pruning.
  should_prune` predicate, so the analytic inversion can never flip a
  decision.

``tests/core/test_queueing.py`` checks every decision against a full-scan
queue kept beside the tests.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator

from repro.core.context import SchedulingContext
from repro.core.pruning import (
    DEFAULT_EPSILON,
    PruningPolicy,
    prune_horizon,
    should_prune,
)
from repro.core.strategies import QueueEntry, Strategy

#: Drain entries this long (simulated ms) before their analytic prune
#: horizon: absorbs any float disagreement between the analytic inversion
#: and the forward predicate.  Entries drained early are simply re-checked
#: and reinserted, so the margin trades a handful of re-evaluations for
#: certainty that no horizon is reached late.
PRUNE_HORIZON_MARGIN_MS = 1e-6

#: Relative/absolute slack added to stored score bounds so that sub-ulp
#: non-monotonicity in the vectorised kernels (float dot products are not
#: perfectly monotone) can never hide a candidate from re-examination.
_BOUND_SLACK_ABS = 1e-9
_BOUND_SLACK_REL = 1e-12

#: Keyed-heap tie window: an age_monotone score is ``static_key + f(now)``
#: only up to summation rounding, so two keys this close can swap (or tie)
#: when the legacy score computes them at a given instant.  Candidates
#: inside the window are re-scored with the real score so the selection
#: matches the full-scan oracle exactly; outside it the key order is
#: provably the score order.
_KEY_TIE_SLACK_ABS = 1e-6
_KEY_TIE_SLACK_REL = 1e-9

def _compact_heap(heap: list[tuple[float, int]], live: dict[int, QueueEntry]) -> None:
    """Drop stale records once they outnumber the live entries.

    Lazy deletion only discards a dead record when it reaches the heap
    top; pruned entries with low keys/bounds would otherwise accumulate
    for the life of the queue in a long saturated run.  Rebuilding when
    more than half the heap is dead keeps the heap O(live) with amortised
    O(1) cost per discarded record.
    """
    if len(heap) > 2 * len(live) + 16:
        heap[:] = [record for record in heap if record[1] in live]
        heapq.heapify(heap)


class _ScanBackend:
    """Legacy full rescan over the live entries (``Strategy.select``)."""

    name = "scan"

    def __init__(self, strategy: Strategy, live: dict[int, QueueEntry]) -> None:
        self._strategy = strategy
        self._live = live

    def push(self, entry: QueueEntry) -> None:
        pass  # the live dict is the only state

    def compact(self) -> None:
        pass

    def clear(self) -> None:
        pass

    def pop_best(self, ctx: SchedulingContext) -> QueueEntry:
        if not self._live:
            raise IndexError("pop from an empty scheduled queue")
        entries = list(self._live.values())
        entry = entries[self._strategy.select(entries, ctx)]
        del self._live[entry.seq]
        return entry


class _KeyedHeapBackend:
    """Exact heap for time-invariant orderings (static / age_monotone).

    Records are ``(−static_key, seq)`` so the heap top is the max-score,
    min-seq entry.  Pruned entries are deleted lazily: their records stay
    in the heap and are skipped once their seq is no longer live.

    Keys align with scores only up to float rounding (an RL score is
    ``static_key + now`` in exact arithmetic, but the legacy score sums
    per-row lifetimes independently), so candidates whose key lies within
    a small slack of the top key are popped and re-ranked with the *real*
    score — any entry further down provably scores strictly below the
    best and cannot win or tie.  For FIFO keys are exact integers spaced
    ≥ 1 apart, so the window never admits a second candidate.
    """

    name = "heap"

    def __init__(self, strategy: Strategy, live: dict[int, QueueEntry]) -> None:
        self._strategy = strategy
        self._live = live
        self._heap: list[tuple[float, int]] = []

    def push(self, entry: QueueEntry) -> None:
        heapq.heappush(self._heap, (-self._strategy.static_key(entry), entry.seq))

    def compact(self) -> None:
        _compact_heap(self._heap, self._live)

    def clear(self) -> None:
        self._heap.clear()

    def pop_best(self, ctx: SchedulingContext) -> QueueEntry:
        heap = self._heap
        strategy = self._strategy
        best_key: tuple[float, float] | None = None
        best_entry: QueueEntry | None = None
        floor: float | None = None  # keys below this cannot beat or tie the best
        examined: list[tuple[float, int]] = []
        while heap:
            neg_key, seq = heap[0]
            entry = self._live.get(seq)
            if entry is None:
                heapq.heappop(heap)  # pruned earlier; drop the stale record
                continue
            if floor is not None and -neg_key < floor:
                break
            heapq.heappop(heap)
            examined.append((neg_key, seq))
            key = (strategy.score(entry, ctx), -seq)
            if best_key is None or key > best_key:
                best_key, best_entry = key, entry
            if floor is None and math.isfinite(-neg_key):
                # Anchor the window at the maximum key (the first record
                # popped): anything below max_key − slack provably scores
                # strictly under the max-key entry, hence under the best.
                # A queue whose keys are all −inf never anchors and
                # examines everything — those entries are genuinely tied.
                slack = _KEY_TIE_SLACK_ABS + _KEY_TIE_SLACK_REL * abs(neg_key)
                floor = -neg_key - slack
        if best_entry is None:
            raise IndexError("pop from an empty scheduled queue")
        for neg_key, seq in examined:
            if seq != best_entry.seq:
                heapq.heappush(heap, (neg_key, seq))
        del self._live[best_entry.seq]
        return best_entry


class _BoundedHeapBackend:
    """Amortised re-validation heap for time-varying (dynamic) scores.

    Each record carries an upper bound on the entry's score at any future
    decision (new entries start at ``inf``: they must be scored at least
    once).  A selection pops candidates in decreasing stale-bound order,
    rescoring each with the *current* context, and stops as soon as the
    next stale bound is strictly below the best fresh score — every
    unexamined entry then satisfies ``score <= bound < best`` and can
    neither win nor tie.  Examined non-winners are reinserted with their
    tightened fresh bound, so repeated selections over a deep queue touch
    only the contended top instead of rescoring all n entries.
    """

    name = "heap"

    def __init__(self, strategy: Strategy, live: dict[int, QueueEntry]) -> None:
        self._strategy = strategy
        self._live = live
        self._heap: list[tuple[float, int]] = []

    def push(self, entry: QueueEntry) -> None:
        heapq.heappush(self._heap, (-math.inf, entry.seq))

    def compact(self) -> None:
        _compact_heap(self._heap, self._live)

    def clear(self) -> None:
        self._heap.clear()

    @staticmethod
    def _padded(bound: float) -> float:
        if math.isinf(bound):
            return bound
        return bound + _BOUND_SLACK_ABS + _BOUND_SLACK_REL * abs(bound)

    def pop_best(self, ctx: SchedulingContext) -> QueueEntry:
        heap = self._heap
        strategy = self._strategy
        best_key: tuple[float, float] | None = None
        best_entry: QueueEntry | None = None
        examined: list[tuple[int, float]] = []
        while heap:
            neg_bound, seq = heap[0]
            entry = self._live.get(seq)
            if entry is None:
                heapq.heappop(heap)  # pruned earlier; drop the stale record
                continue
            if best_key is not None and -neg_bound < best_key[0]:
                break  # no remaining stale bound can beat or tie the best
            heapq.heappop(heap)
            score, bound = strategy.score_and_bound(entry, ctx)
            examined.append((seq, bound))
            key = (score, -seq)
            if best_key is None or key > best_key:
                best_key, best_entry = key, entry
        if best_entry is None:
            raise IndexError("pop from an empty scheduled queue")
        for seq, bound in examined:
            if seq != best_entry.seq:
                heapq.heappush(heap, (-self._padded(bound), seq))
        del self._live[best_entry.seq]
        return best_entry


class _PruneIndex:
    """Expiry-ordered side index drained incrementally.

    Holds ``(horizon − margin, seq)`` records; :meth:`drain` pops every
    record whose horizon has arrived, confirms with the exact
    ``should_prune`` predicate, and reinserts false positives unchanged
    (they sit within the float margin of their true horizon and are
    re-checked on subsequent services until the predicate fires).
    """

    def __init__(
        self, policy: PruningPolicy, epsilon: float, planning_delay_ms: float
    ) -> None:
        self._policy = policy
        self._epsilon = epsilon
        self._planning_delay_ms = planning_delay_ms
        self._heap: list[tuple[float, int]] = []

    def push(self, entry: QueueEntry) -> None:
        horizon = prune_horizon(
            entry, self._planning_delay_ms, self._policy, self._epsilon
        )
        if not math.isinf(horizon):
            heapq.heappush(self._heap, (horizon - PRUNE_HORIZON_MARGIN_MS, entry.seq))

    def drain(self, now: float, live: dict[int, QueueEntry]) -> list[QueueEntry]:
        heap = self._heap
        pruned: list[QueueEntry] = []
        requeue: list[tuple[float, int]] = []
        while heap and heap[0][0] <= now:
            record = heapq.heappop(heap)
            entry = live.get(record[1])
            if entry is None:
                continue  # already sent; drop the stale record
            if should_prune(
                entry, now, self._planning_delay_ms, self._policy, self._epsilon
            ):
                pruned.append(entry)
                del live[entry.seq]
            else:
                requeue.append(record)
        for record in requeue:
            heapq.heappush(heap, record)
        pruned.sort(key=lambda e: e.seq)  # legacy trace order: queue order
        return pruned

    def compact(self, live: dict[int, QueueEntry]) -> None:
        _compact_heap(self._heap, live)

    def clear(self) -> None:
        self._heap.clear()


class ScheduledQueue:
    """Entries waiting in one output queue, with incremental servicing.

    Owns entry storage, invalid-message pruning and next-to-send
    selection; the broker keeps only the receive/process/forward wiring.
    Decisions are equivalent to the legacy full scans event for event.
    """

    def __init__(
        self,
        strategy: Strategy,
        pruning: PruningPolicy,
        epsilon: float = DEFAULT_EPSILON,
        planning_delay_ms: float = 2.0,
    ) -> None:
        if planning_delay_ms < 0.0:
            raise ValueError("planning_delay_ms must be non-negative")
        self.strategy = strategy
        self.pruning = pruning
        self.epsilon = epsilon
        self.planning_delay_ms = planning_delay_ms
        #: seq -> entry, in insertion (= seq) order; the single source of
        #: truth for liveness.  Heap records pointing at missing seqs are
        #: stale and skipped lazily.
        self._live: dict[int, QueueEntry] = {}
        self._backend = self._pick_backend()
        self._prune_index = (
            _PruneIndex(pruning, epsilon, planning_delay_ms)
            if pruning is not PruningPolicy.NONE
            else None
        )

    def _pick_backend(self) -> "_ScanBackend | _KeyedHeapBackend | _BoundedHeapBackend":
        kind = self.strategy.score_kind
        if kind in ("static", "age_monotone"):
            return _KeyedHeapBackend(self.strategy, self._live)
        if kind != "dynamic":
            raise ValueError(f"unknown score_kind {kind!r} on {self.strategy!r}")
        if type(self.strategy).score_and_bound is not Strategy.score_and_bound:
            return _BoundedHeapBackend(self.strategy, self._live)
        return _ScanBackend(self.strategy, self._live)  # full-rescan fallback

    @property
    def backend_name(self) -> str:
        return self._backend.name

    # ------------------------------------------------------------------ #
    # Mutation.
    # ------------------------------------------------------------------ #
    def push(self, entry: QueueEntry) -> None:
        """Admit one entry (seqs must be unique and increasing)."""
        if entry.seq in self._live:
            raise ValueError(f"duplicate seq {entry.seq}")
        if self._backend.name == "scan":
            # A full rescan re-scores entries through ``entry.rows`` at pop
            # time; force deferred row materialisation now, while the
            # source table still matches the enqueue-time snapshot.
            entry.rows
        self._live[entry.seq] = entry
        self._backend.push(entry)
        if self._prune_index is not None:
            self._prune_index.push(entry)

    def push_many(self, entries: list[QueueEntry]) -> None:
        """Admit a batch of entries in order.  Admission order is
        observable — heap tie-breaks and the prune index key on seq — so
        this is sequenced, not reordered: element ``i`` lands exactly as
        ``push(entries[i])`` would."""
        for entry in entries:
            self.push(entry)

    def prune(self, now: float) -> list[QueueEntry]:
        """Delete and return every entry invalid at ``now`` (seq order)."""
        if self._prune_index is None:
            return []
        pruned = self._prune_index.drain(now, self._live)
        if pruned:
            # Pruned entries leave stale records behind in the selection
            # heap (and sent entries in the prune index); reclaim them
            # before they dominate a long saturated run.
            self._backend.compact()
            self._prune_index.compact(self._live)
        return pruned

    def drain_aged(self, now: float, max_age_ms: float) -> list[QueueEntry]:
        """Delete and return every entry enqueued ``max_age_ms`` or more
        ago (seq order) — the dead-letter sweep for a hard-down link.

        Orthogonal to :meth:`prune`: pruning removes entries that can no
        longer be *useful*; this removes entries the channel could not
        carry within the fault-tolerance window, regardless of validity.
        Stale heap/prune-index records left behind are reclaimed the same
        way pruning reclaims them.
        """
        aged = [
            e for e in self._live.values() if now - e.enqueue_time >= max_age_ms
        ]
        if aged:
            for entry in aged:
                del self._live[entry.seq]
            aged.sort(key=lambda e: e.seq)
            self._backend.compact()
            if self._prune_index is not None:
                self._prune_index.compact(self._live)
        return aged

    def pop_best(self, ctx: SchedulingContext) -> QueueEntry:
        """Remove and return the entry the strategy would send next.

        A lone live entry wins whatever it scores, so it leaves unscored;
        every heap and prune-index record left behind is then stale and
        both are cleared (queues that never prune would otherwise pile
        up stale records one pop at a time).
        """
        live = self._live
        if len(live) == 1:
            _, entry = live.popitem()
            self._backend.clear()
            if self._prune_index is not None:
                self._prune_index.clear()
            return entry
        return self._backend.pop_best(ctx)

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __iter__(self) -> Iterator[QueueEntry]:
        return iter(list(self._live.values()))

    def entries(self) -> list[QueueEntry]:
        """Snapshot of the waiting entries in queue (seq) order."""
        return list(self._live.values())
