"""Queue disciplines: FIFO, RL, EB, PC, EBPC (Sections 5.1–5.3, 6.1).

A strategy ranks the entries of one output queue; the broker sends the
entry with the **highest score** (deterministic FIFO tie-break on the
enqueue sequence number).  Scores may depend on the current time — EB and
PC shrink as a message ages — so they are re-evaluated at each selection,
from operands the entry's cached :class:`~repro.core.metrics.ScorePlan`
derived once.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

from repro.core.context import SchedulingContext
from repro.core.metrics import ScorePlan, ebpc_value
from repro.core.success import effective_deadline
from repro.pubsub.message import Message
from repro.pubsub.subscription import RowArrays, RowGroup, TableRow


class QueueEntry:
    """One message copy waiting in one output queue.

    ``rows`` are the subscriptions reachable through this queue's neighbour
    that the message satisfies (fixed at enqueue time; the evaluation uses
    a static subscription population, as in the paper).  ``arrays`` is the
    vectorised view used by the metric kernels; the broker supplies it
    pre-gathered from the subscription table's column arrays, and it is
    built row by row only when a caller omits it.

    ``rows`` may be given as a :class:`~repro.pubsub.subscription.RowGroup`,
    in which case the :class:`TableRow` objects materialise only when a
    caller actually reads ``rows`` (the vectorised strategies never do).
    Deferred materialisation must happen before the source table mutates;
    :class:`~repro.core.queueing.ScheduledQueue` forces it on push for the
    backends that re-score entries later through ``rows``.

    :meth:`plan` caches the entry's :class:`~repro.core.metrics.ScorePlan`.
    It is derived state: snapshots drop it and a restored entry rebuilds
    it at its next decision.
    """

    __slots__ = ("message", "enqueue_time", "seq", "arrays", "_rows", "_plan")

    def __init__(
        self,
        message: Message,
        rows: RowGroup | Sequence[TableRow],
        enqueue_time: float,
        seq: int,
        arrays: RowArrays | None = None,
    ) -> None:
        self.message = message
        self.enqueue_time = enqueue_time
        self.seq = seq
        if not len(rows):
            raise ValueError("a queue entry must target at least one subscription")
        self._rows = rows
        if arrays is None:
            arrays = rows.arrays if hasattr(rows, "arrays") else RowArrays.from_rows(rows)
        elif len(arrays) != len(rows):
            raise ValueError(
                f"arrays/rows mismatch: {len(arrays)} != {len(rows)}"
            )
        self.arrays = arrays
        self._plan: ScorePlan | None = None

    @property
    def rows(self) -> list[TableRow]:
        rows = self._rows
        if type(rows) is not list:
            rows = self._rows = rows.rows
        return rows

    def plan(self, processing_delay_ms: float) -> ScorePlan:
        """The entry's score plan for this ``PD`` (built on first use and
        again if a caller asks with a different ``PD``)."""
        plan = self._plan
        if plan is None or plan.processing_delay_ms != processing_delay_ms:
            plan = self._plan = ScorePlan(
                self.arrays, self.message, processing_delay_ms
            )
        return plan

    def __getstate__(self) -> tuple:
        return (self.message, self.enqueue_time, self.seq, self.arrays, self._rows)

    def __setstate__(self, state: tuple) -> None:
        self.message, self.enqueue_time, self.seq, self.arrays, self._rows = state
        self._plan = None


class Strategy(ABC):
    """Interface all queue disciplines implement."""

    #: Human-readable name used by the registry and reports.
    name: str = "abstract"

    #: Whether the broker should apply the ε-probabilistic invalid-message
    #: detection of Section 5.4 (True for the paper's EB/PC/EBPC; the FIFO
    #: and RL baselines delete only already-expired messages).
    probabilistic_pruning: bool = True

    #: How this strategy's scores move with time, which decides the
    #: :mod:`repro.core.queueing` backend:
    #:
    #: * ``"static"`` — scores never change (FIFO): an exact heap suffices.
    #: * ``"age_monotone"`` — every entry's score shifts by the same
    #:   time-dependent amount (RL: all lifetimes decay at 1 ms/ms), so the
    #:   *ordering* is time-invariant and :meth:`static_key` ranks exactly.
    #: * ``"dynamic"`` — scores move at entry-dependent speeds (EB/PC/EBPC);
    #:   the queue uses the bound from :meth:`score_and_bound` when the
    #:   strategy provides one, and falls back to a full rescan otherwise.
    score_kind: str = "dynamic"

    @abstractmethod
    def score(self, entry: QueueEntry, ctx: SchedulingContext) -> float:
        """Higher is sent first."""

    def static_key(self, entry: QueueEntry) -> float:
        """Time-invariant ranking key (``static``/``age_monotone`` only).

        Contract: for any two entries and any scheduling context,
        ``static_key(a) > static_key(b)`` implies ``score(a, ctx) >=
        score(b, ctx)`` up to float summation rounding.  The keyed heap
        re-scores candidates whose keys sit within a small slack window of
        the top key, so sub-ulp disagreements between key order and score
        order cannot change the selection.
        """
        raise NotImplementedError(f"{self.name}: score_kind={self.score_kind!r} has no static key")

    def score_and_bound(
        self, entry: QueueEntry, ctx: SchedulingContext
    ) -> tuple[float, float]:
        """Current score plus an upper bound on all *future* scores.

        The bound must satisfy ``score(entry, ctx') <= bound`` for every
        later context ``ctx'`` (``ctx'.now >= ctx.now``, same queue).  The
        default advertises no bound (``inf``), which makes the scheduled
        queue re-examine the entry at every selection — the full-rescan
        fallback.
        """
        return self.score(entry, ctx), math.inf

    def select(self, entries: list[QueueEntry], ctx: SchedulingContext) -> int:
        """Index of the entry to send: max score, FIFO tie-break."""
        if not entries:
            raise ValueError("cannot select from an empty queue")
        best_idx = 0
        best_key = (-math.inf, math.inf)
        for i, entry in enumerate(entries):
            key = (self.score(entry, ctx), -entry.seq)
            if key > best_key:
                best_key = key
                best_idx = i
        return best_idx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class FifoStrategy(Strategy):
    """First in, first out — the classic network baseline."""

    name = "fifo"
    probabilistic_pruning = False
    score_kind = "static"

    def score(self, entry: QueueEntry, ctx: SchedulingContext) -> float:
        return -float(entry.seq)

    def static_key(self, entry: QueueEntry) -> float:
        return -float(entry.seq)


class RemainingLifetimeStrategy(Strategy):
    """Minimum remaining lifetime first (EDF-style baseline).

    With several interested subscriptions a message has several remaining
    lifetimes; per Section 6.1 the *average* is used by default.  The
    ``aggregation="min"`` variant (classic EDF: most urgent pair decides)
    exists for the ablation bench.  Unbounded pairs (no deadline on either
    side) are excluded; an entry with no bounded pair at all scores lowest
    (it is never urgent).
    """

    name = "rl"
    probabilistic_pruning = False
    score_kind = "age_monotone"

    def __init__(self, aggregation: str = "average") -> None:
        if aggregation not in ("average", "min"):
            raise ValueError(f"aggregation must be 'average' or 'min', got {aggregation!r}")
        self.aggregation = aggregation
        if aggregation != "average":
            self.name = f"rl({aggregation})"

    def score(self, entry: QueueEntry, ctx: SchedulingContext) -> float:
        total = 0.0
        smallest = math.inf
        bounded = 0
        for row in entry.rows:
            adl = effective_deadline(row, entry.message)
            if math.isinf(adl):
                continue
            lifetime = adl - entry.message.hdl(ctx.now)
            total += lifetime
            smallest = min(smallest, lifetime)
            bounded += 1
        if bounded == 0:
            return -math.inf
        if self.aggregation == "min":
            return -smallest
        return -(total / bounded)  # smallest average lifetime => highest score

    def static_key(self, entry: QueueEntry) -> float:
        # Every bounded pair's remaining lifetime decays at exactly 1 ms
        # per ms, so scores of two entries keep their relative order at all
        # times; ranking by the (negated) absolute expiry instant
        # ``publish_time + adl`` is equivalent to ranking by score.
        total = 0.0
        smallest = math.inf
        bounded = 0
        for row in entry.rows:
            adl = effective_deadline(row, entry.message)
            if math.isinf(adl):
                continue
            expiry = entry.message.publish_time + adl
            total += expiry
            smallest = min(smallest, expiry)
            bounded += 1
        if bounded == 0:
            return -math.inf
        if self.aggregation == "min":
            return -smallest
        return -(total / bounded)


class EbStrategy(Strategy):
    """Maximum Expected Benefit first (Section 5.1).

    EB shrinks as a message ages (``hdl`` grows, success probabilities
    fall), so the EB evaluated *now* upper-bounds every future score —
    which is what lets the scheduled queue skip rescoring entries whose
    last-known EB cannot beat the current best (see
    :meth:`Strategy.score_and_bound`).
    """

    name = "eb"

    def score(self, entry: QueueEntry, ctx: SchedulingContext) -> float:
        return entry.plan(ctx.processing_delay_ms).expected_benefit(ctx.now)

    def score_and_bound(
        self, entry: QueueEntry, ctx: SchedulingContext
    ) -> tuple[float, float]:
        eb = self.score(entry, ctx)
        return eb, eb


class PcStrategy(Strategy):
    """Maximum Postponing Cost first (Section 5.2).

    PC itself is not monotone in time (it rises while an entry approaches
    its decision ramp, then collapses), but ``PC = EB − EB′ ≤ EB`` because
    the postponed benefit ``EB′`` is non-negative — so the current EB still
    bounds every future PC score.
    """

    name = "pc"

    def score(self, entry: QueueEntry, ctx: SchedulingContext) -> float:
        return self.score_and_bound(entry, ctx)[0]

    def score_and_bound(
        self, entry: QueueEntry, ctx: SchedulingContext
    ) -> tuple[float, float]:
        eb, eb_postponed = entry.plan(ctx.processing_delay_ms).eb_pair(
            ctx.now, ctx.ft_ms
        )
        return eb - eb_postponed, eb


class EbpcStrategy(Strategy):
    """Maximum ``r·EB + (1−r)·PC`` first (Section 5.3).

    A convex combination of EB and PC, both of which are bounded by the
    current EB (see :class:`EbStrategy`/:class:`PcStrategy`), so the
    combination is too.
    """

    name = "ebpc"

    def __init__(self, r: float = 0.5) -> None:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {r}")
        self.r = r
        self.name = f"ebpc(r={r:g})"

    def score(self, entry: QueueEntry, ctx: SchedulingContext) -> float:
        return self.score_and_bound(entry, ctx)[0]

    def score_and_bound(
        self, entry: QueueEntry, ctx: SchedulingContext
    ) -> tuple[float, float]:
        eb, eb_postponed = entry.plan(ctx.processing_delay_ms).eb_pair(
            ctx.now, ctx.ft_ms
        )
        return ebpc_value(eb, eb - eb_postponed, self.r), eb
