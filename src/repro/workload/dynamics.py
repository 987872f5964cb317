"""Scripted runtime dynamics: typed, timed interventions.

The paper's evaluation runs every experiment against a frozen world —
subscriptions installed before t=0, one constant publishing rate, link
distributions fixed for the whole test period.  A
:class:`ScenarioScript` breaks that freeze declaratively: it is an
ordered set of interventions, each a small frozen dataclass with a firing
time, compiled at build time into

* **rate segments** for the piecewise arrival process
  (:class:`RateBurst` — see
  :func:`repro.workload.generator.generate_publications_piecewise`), and
* **DES events** applied to the live system mid-run (everything else):
  :class:`LinkDegrade` / :class:`LinkRecover` rescale a link's true rate
  through the system's intervention API (monitors follow — pinned ORACLE
  caches invalidate, ESTIMATED estimators measure their way to the new
  rate), :class:`ChurnWave` unsubscribes/resubscribes batches of
  subscribers, and :class:`FlashCrowd` attaches a burst of new
  broad-filter subscribers.

An empty script compiles to a single rate segment and zero events, which
is byte-identical to the historic frozen-world run.  All randomness used
by interventions comes from the dedicated ``"dynamics"`` RNG stream, so
scripts never perturb the workload/topology/subscription draws of the
paired comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence, Union

from repro.pubsub.filters import Filter, Predicate
from repro.pubsub.subscription import Subscription
from repro.workload.generator import RateSegment
from repro.workload.scenarios import SSD_PRICE_BY_DEADLINE_MS, Scenario
from repro.workload.subscriptions import random_conjunctive_filter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.topology import Topology
    from repro.pubsub.system import PubSubSystem


@dataclass(frozen=True, slots=True)
class RateBurst:
    """Multiply every publisher's rate by ``multiplier`` over a window.

    Overlapping bursts compose multiplicatively; a multiplier of 0
    silences publishers for the window (arrival phase freezes).
    """

    start_ms: float
    end_ms: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.start_ms < 0.0:
            raise ValueError(f"start_ms must be non-negative, got {self.start_ms}")
        if self.end_ms <= self.start_ms:
            raise ValueError(f"end_ms {self.end_ms} must be after start_ms {self.start_ms}")
        if self.multiplier < 0.0:
            raise ValueError(f"multiplier must be non-negative, got {self.multiplier}")


@dataclass(frozen=True, slots=True)
class LinkDegrade:
    """At ``at_ms``, slow link ``a–b`` down by ``factor`` (mean and std of
    the true per-KB rate scale by ``factor``; rates are ms/KB, so
    ``factor > 1`` degrades).  Relative to the build-time distribution,
    not the current one — repeated degrades don't compound."""

    at_ms: float
    a: str
    b: str
    factor: float

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"at_ms must be non-negative, got {self.at_ms}")
        if self.factor <= 0.0:
            raise ValueError(f"factor must be positive, got {self.factor}")


@dataclass(frozen=True, slots=True)
class LinkRecover:
    """At ``at_ms``, restore link ``a–b`` to its build-time distribution."""

    at_ms: float
    a: str
    b: str

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"at_ms must be non-negative, got {self.at_ms}")


@dataclass(frozen=True, slots=True)
class ChurnWave:
    """At ``at_ms``, ``leave`` random existing subscribers unsubscribe and
    ``join`` fresh random-filter subscribers subscribe (attached round-robin
    to the edge brokers that already host subscribers)."""

    at_ms: float
    leave: int = 0
    join: int = 0

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"at_ms must be non-negative, got {self.at_ms}")
        if self.leave < 0 or self.join < 0:
            raise ValueError("leave/join must be non-negative")
        if self.leave == 0 and self.join == 0:
            raise ValueError("churn wave must move at least one subscriber")


@dataclass(frozen=True, slots=True)
class FlashCrowd:
    """At ``at_ms``, ``count`` new *broad-filter* (match-everything)
    subscribers arrive — at ``broker``, or spread round-robin over the
    subscriber-hosting edge brokers when ``broker`` is None."""

    at_ms: float
    count: int
    broker: str | None = None

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"at_ms must be non-negative, got {self.at_ms}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True, slots=True)
class LinkFailure:
    """At ``at_ms``, hard-down link ``a–b`` (both directions): no new
    transmission may start.  Queued traffic is retried with bounded
    backoff and dead-lettered past the per-entry timeout — a *failure*,
    not the :class:`LinkDegrade` slow-down."""

    at_ms: float
    a: str
    b: str

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"at_ms must be non-negative, got {self.at_ms}")


@dataclass(frozen=True, slots=True)
class LinkRestore:
    """At ``at_ms``, undo a :class:`LinkFailure` on link ``a–b``."""

    at_ms: float
    a: str
    b: str

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"at_ms must be non-negative, got {self.at_ms}")


@dataclass(frozen=True, slots=True)
class LinkPartition:
    """At ``at_ms``, fail every link with exactly one endpoint in
    ``group`` — a network partition isolating the group — healing at
    ``heal_ms`` (None = never)."""

    at_ms: float
    group: tuple[str, ...]
    heal_ms: float | None = None

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"at_ms must be non-negative, got {self.at_ms}")
        if not self.group:
            raise ValueError("partition group must name at least one broker")
        if self.heal_ms is not None and self.heal_ms <= self.at_ms:
            raise ValueError(f"heal_ms {self.heal_ms} must be after at_ms {self.at_ms}")


@dataclass(frozen=True, slots=True)
class BrokerOutage:
    """At ``at_ms``, take ``broker`` offline: all adjacent link directions
    go down and publications sourced there are dropped (and accounted in
    the dead-letter ledger)."""

    at_ms: float
    broker: str

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"at_ms must be non-negative, got {self.at_ms}")


@dataclass(frozen=True, slots=True)
class BrokerRecover:
    """At ``at_ms``, bring ``broker`` back online."""

    at_ms: float
    broker: str

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"at_ms must be non-negative, got {self.at_ms}")


@dataclass(frozen=True, slots=True)
class CascadeOutage:
    """At ``at_ms``, ``origin`` goes down and the failure spreads along
    topology edges in waves every ``step_ms``: each still-up neighbour of
    the previous wave fails with probability
    ``spread_prob * decay**(depth-1)`` (the propagation kernel), up to
    ``max_depth`` waves.  Brokers recover ``recover_after_ms`` after
    their own failure (None = stay down).  All draws come from the
    ``"dynamics"`` RNG stream in sorted-neighbour order, so a cascade is
    reproducible and identical across the strategies of a paired sweep.
    """

    at_ms: float
    origin: str
    spread_prob: float = 0.6
    decay: float = 0.5
    max_depth: int = 3
    step_ms: float = 5_000.0
    recover_after_ms: float | None = None

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"at_ms must be non-negative, got {self.at_ms}")
        if not 0.0 <= self.spread_prob <= 1.0:
            raise ValueError(f"spread_prob must be in [0, 1], got {self.spread_prob}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be non-negative, got {self.max_depth}")
        if self.step_ms <= 0.0:
            raise ValueError(f"step_ms must be positive, got {self.step_ms}")
        if self.recover_after_ms is not None and self.recover_after_ms <= 0.0:
            raise ValueError("recover_after_ms must be positive (or None)")


Intervention = Union[
    RateBurst, LinkDegrade, LinkRecover, ChurnWave, FlashCrowd,
    LinkFailure, LinkRestore, LinkPartition, BrokerOutage, BrokerRecover,
    CascadeOutage,
]

#: Interventions applied as DES events (everything but rate shaping).
_TIMED_TYPES = (
    LinkDegrade, LinkRecover, ChurnWave, FlashCrowd,
    LinkFailure, LinkRestore, LinkPartition, BrokerOutage, BrokerRecover,
    CascadeOutage,
)

#: Interventions that can down a link or broker (used by callers that
#: need to know whether a script exercises the fault layer at all).
FAULT_TYPES = (LinkFailure, LinkPartition, BrokerOutage, CascadeOutage)


@dataclass(frozen=True, slots=True)
class ScenarioScript:
    """A declarative, ordered set of runtime interventions.

    The default (empty) script reproduces the frozen world exactly: one
    rate segment, zero scheduled events.
    """

    interventions: tuple[Intervention, ...] = ()

    def __post_init__(self) -> None:
        for item in self.interventions:
            if not isinstance(item, (RateBurst, *_TIMED_TYPES)):
                raise TypeError(f"not an intervention: {item!r}")

    def __bool__(self) -> bool:
        return bool(self.interventions)

    @property
    def rate_bursts(self) -> tuple[RateBurst, ...]:
        return tuple(i for i in self.interventions if isinstance(i, RateBurst))

    @property
    def timed(self) -> tuple[Intervention, ...]:
        """Event-applied interventions, sorted by firing time (stable)."""
        return tuple(
            sorted(
                (i for i in self.interventions if isinstance(i, _TIMED_TYPES)),
                key=lambda i: i.at_ms,
            )
        )

    def rate_segments(self, base_rate_per_minute: float, duration_ms: float) -> list[RateSegment]:
        """Compile the bursts into contiguous segments over ``[0, duration)``.

        Burst windows clip to the duration; overlaps multiply.  With no
        bursts the result is the single homogeneous segment.
        """
        if duration_ms <= 0.0:
            raise ValueError("duration_ms must be positive")
        bursts = [b for b in self.rate_bursts if b.start_ms < duration_ms]
        if not bursts:
            return [RateSegment(0.0, duration_ms, base_rate_per_minute)]
        edges = {0.0, duration_ms}
        for b in bursts:
            edges.add(b.start_ms)
            edges.add(min(b.end_ms, duration_ms))
        cuts = sorted(edges)
        out = []
        for lo, hi in zip(cuts, cuts[1:]):
            rate = base_rate_per_minute
            for b in bursts:
                if b.start_ms <= lo and hi <= b.end_ms:
                    rate *= b.multiplier
            out.append(RateSegment(lo, hi, rate))
        return out


# ---------------------------------------------------------------------- #
# Applying a script to a live system.
# ---------------------------------------------------------------------- #
class DynamicsDriver:
    """Applies a script's timed interventions to a running system.

    One driver per run: it owns the ``"dynamics"`` RNG stream, the naming
    counter for dynamically created subscribers (``D1, D2, ...``) and the
    scenario-consistent subscription construction (SSD/HYBRID draws a
    (deadline, price) tier exactly like the static population does).
    """

    def __init__(
        self,
        system: "PubSubSystem",
        scenario: Scenario,
        attributes: Sequence[str] = ("A1", "A2"),
        value_range: tuple[float, float] = (0.0, 10.0),
        price_table: dict[float, float] | None = None,
    ) -> None:
        self.system = system
        self.scenario = scenario
        self.attributes = tuple(attributes)
        self.value_range = value_range
        self.price_table = dict(price_table or SSD_PRICE_BY_DEADLINE_MS)
        self._rng = system.streams.get("dynamics")
        # Plain int counter (not a generator expression) so a pending
        # driver pickles inside a checkpoint; emits D1, D2, ...
        self._name_counter = 0
        self.applied = 0

    # ------------------------------------------------------------------ #
    # Scheduling.
    # ------------------------------------------------------------------ #
    def schedule(self, script: ScenarioScript) -> int:
        """Schedule every timed intervention as a DES event; returns the
        count (0 for an empty script — nothing is touched)."""
        count = 0
        for item in script.timed:
            # partial of the bound method: interventions are frozen
            # dataclasses, so the scheduled event is fully picklable.
            self.system.sim.schedule_at(item.at_ms, partial(self.apply, item))
            count += 1
        return count

    def _next_name(self) -> str:
        self._name_counter += 1
        return f"D{self._name_counter}"

    # ------------------------------------------------------------------ #
    # Application.
    # ------------------------------------------------------------------ #
    def apply(self, item: Intervention) -> None:
        """Apply one intervention to the live system now."""
        if isinstance(item, LinkDegrade):
            self.system.degrade_link(item.a, item.b, item.factor)
        elif isinstance(item, LinkRecover):
            self.system.recover_link(item.a, item.b)
        elif isinstance(item, ChurnWave):
            self._churn(item)
        elif isinstance(item, FlashCrowd):
            self._flash_crowd(item)
        elif isinstance(item, LinkFailure):
            self.system.fail_link(item.a, item.b)
        elif isinstance(item, LinkRestore):
            self.system.restore_link_up(item.a, item.b)
        elif isinstance(item, LinkPartition):
            self.system.partition(frozenset(item.group))
            if item.heal_ms is not None:
                self.system.sim.schedule_at(
                    item.heal_ms, partial(self._heal, item.group)
                )
        elif isinstance(item, BrokerOutage):
            self.system.fail_broker(item.broker)
        elif isinstance(item, BrokerRecover):
            self.system.recover_broker(item.broker)
        elif isinstance(item, CascadeOutage):
            self._cascade_start(item)
        else:
            raise TypeError(f"not a timed intervention: {item!r}")
        self.applied += 1

    def _edge_brokers(self) -> list[str]:
        edges = sorted(set(self.system.topology.subscriber_brokers.values()))
        if not edges:
            raise ValueError("no subscriber-hosting edge brokers to attach to")
        return edges

    def _join(self, count: int, edges: list[str], draw_filter: Callable[[], Filter]) -> None:
        """Draw ``count`` joiners — per joiner the filter, then (SSD/HYBRID)
        the deadline tier — attach them round-robin over ``edges`` and
        subscribe them as one batch."""
        topology = self.system.topology
        deadlines = sorted(self.price_table)
        joiners = []
        for k in range(count):
            filt = draw_filter()
            name = self._next_name()
            topology.attach_subscriber(name, edges[k % len(edges)])
            if self.scenario.subscriptions_carry_deadlines:
                dl = deadlines[int(self._rng.integers(0, len(deadlines)))]
                joiners.append(Subscription(name, filt, deadline_ms=dl, price=self.price_table[dl]))
            else:
                joiners.append(Subscription(name, filt))
        self.system.subscribe_all(joiners)

    def _churn(self, wave: ChurnWave) -> None:
        system = self.system
        current = sorted(system.subscribers)
        leave = min(wave.leave, len(current))
        if leave:
            idx = self._rng.choice(len(current), size=leave, replace=False)
            system.unsubscribe_all([current[i] for i in sorted(idx.tolist())])
        if wave.join:
            self._join(
                wave.join, self._edge_brokers(),
                partial(random_conjunctive_filter, self._rng, self.attributes, self.value_range),
            )

    # ------------------------------------------------------------------ #
    # Fault interventions.
    # ------------------------------------------------------------------ #
    def _heal(self, group: tuple[str, ...]) -> None:
        self.system.heal_partition(frozenset(group))

    def _fail_with_recovery(self, item: CascadeOutage, broker: str) -> None:
        self.system.fail_broker(broker)
        if item.recover_after_ms is not None:
            self.system.sim.schedule(
                item.recover_after_ms,
                partial(self.system.recover_broker, broker),
            )

    def _cascade_start(self, item: CascadeOutage) -> None:
        self._fail_with_recovery(item, item.origin)
        if item.max_depth >= 1:
            self.system.sim.schedule(
                item.step_ms, partial(self._cascade_wave, item, (item.origin,), 1)
            )

    def _cascade_wave(
        self, item: CascadeOutage, frontier: tuple[str, ...], depth: int
    ) -> None:
        """One propagation wave: each still-up neighbour of the frontier
        fails with the depth-attenuated kernel probability.  Candidates
        are visited in sorted order with one RNG draw each, keeping the
        cascade deterministic under a fixed seed."""
        system = self.system
        down = system.down_brokers
        candidates = sorted(
            {n for b in frontier for n in system.brokers[b].queues} - down
        )
        p = item.spread_prob * item.decay ** (depth - 1)
        next_frontier = tuple(c for c in candidates if self._rng.random() < p)
        for broker in next_frontier:
            self._fail_with_recovery(item, broker)
        if next_frontier and depth < item.max_depth:
            system.sim.schedule(
                item.step_ms, partial(self._cascade_wave, item, next_frontier, depth + 1)
            )

    def _flash_crowd(self, crowd: FlashCrowd) -> None:
        lo, hi = self.value_range
        # Matches every message: attribute values are drawn strictly
        # inside the open range, so "< hi + span" can never exclude one.
        broad = Predicate(self.attributes[0], "<", hi + (hi - lo))
        edges = [crowd.broker] if crowd.broker is not None else self._edge_brokers()
        self._join(crowd.count, edges, lambda: broad)


# ---------------------------------------------------------------------- #
# Preset scripts.
# ---------------------------------------------------------------------- #
def diurnal(topology: "Topology", duration_ms: float) -> ScenarioScript:
    """A day-shaped load curve: quiet start, midday double-rate peak,
    evening cool-down — four equal phases at 0.5x / 1x / 2x / 1x."""
    q = duration_ms / 4.0
    return ScenarioScript((
        RateBurst(0.0, q, 0.5),
        RateBurst(2.0 * q, 3.0 * q, 2.0),
    ))


def flash_crowd(topology: "Topology", duration_ms: float) -> ScenarioScript:
    """A breaking-news moment 30% in: 40 broad-filter subscribers arrive
    and publishers double their rate for the middle third; at 80% a
    20-subscriber churn wave (uniform over the whole population, crowd
    and regulars alike) thins the audience back down."""
    return ScenarioScript((
        FlashCrowd(at_ms=0.3 * duration_ms, count=40),
        RateBurst(0.3 * duration_ms, 0.6 * duration_ms, 2.0),
        ChurnWave(at_ms=0.8 * duration_ms, leave=20),
    ))


def degrade_worst_link(topology: "Topology", duration_ms: float) -> ScenarioScript:
    """Degrade the overlay's most load-bearing link 4x for the middle half
    of the run.  Min-mean-TR routing concentrates paths on the *fastest*
    link, so the lowest-mean link is where degradation hurts most."""
    a, b, _ = min(topology.links(), key=lambda t: t[2].mean)
    return ScenarioScript((
        LinkDegrade(at_ms=0.25 * duration_ms, a=a, b=b, factor=4.0),
        LinkRecover(at_ms=0.75 * duration_ms, a=a, b=b),
    ))


def churn_burst(topology: "Topology", duration_ms: float) -> ScenarioScript:
    """The bench scenario: a 3x rate burst through the middle half with a
    churn wave (30 leave, 30 join) at its onset and another at its end."""
    return ScenarioScript((
        RateBurst(0.25 * duration_ms, 0.75 * duration_ms, 3.0),
        ChurnWave(at_ms=0.25 * duration_ms, leave=30, join=30),
        ChurnWave(at_ms=0.75 * duration_ms, leave=30, join=30),
    ))


def _busiest_edge_broker(topology: "Topology") -> str:
    """The broker hosting the most subscribers (ties break by name) —
    where downing something hurts the most deliveries."""
    hosts = sorted(topology.subscriber_brokers.values())
    if not hosts:
        raise ValueError("topology hosts no subscribers")
    counts: dict[str, int] = {}
    for h in hosts:
        counts[h] = counts.get(h, 0) + 1
    return max(counts, key=lambda h: (counts[h], h))


def link_blackout(topology: "Topology", duration_ms: float) -> ScenarioScript:
    """Hard-down the overlay's most load-bearing link for the middle third
    of the run: traffic routed over it backs up, retries, and past the
    dead-letter timeout starts dropping — the failure analogue of
    :func:`degrade_worst_link`."""
    a, b, _ = min(topology.links(), key=lambda t: t[2].mean)
    return ScenarioScript((
        LinkFailure(at_ms=0.3 * duration_ms, a=a, b=b),
        LinkRestore(at_ms=0.6 * duration_ms, a=a, b=b),
    ))


def broker_outage(topology: "Topology", duration_ms: float) -> ScenarioScript:
    """Take the busiest subscriber-hosting broker offline for a quarter of
    the run; its local audience goes dark and upstream queues back up."""
    broker = _busiest_edge_broker(topology)
    return ScenarioScript((
        BrokerOutage(at_ms=0.3 * duration_ms, broker=broker),
        BrokerRecover(at_ms=0.55 * duration_ms, broker=broker),
    ))


def partition_heal(topology: "Topology", duration_ms: float) -> ScenarioScript:
    """Partition the busiest subscriber-hosting broker away from the rest
    of the overlay, healing at 70% of the run."""
    broker = _busiest_edge_broker(topology)
    return ScenarioScript((
        LinkPartition(
            at_ms=0.3 * duration_ms, group=(broker,), heal_ms=0.7 * duration_ms
        ),
    ))


def cascade(topology: "Topology", duration_ms: float) -> ScenarioScript:
    """A correlated outage spreading from a publisher-hosting broker: two
    attenuated waves along topology edges, each victim recovering 20% of
    the run after its own failure."""
    origin = sorted(set(topology.publisher_brokers.values()))[0]
    return ScenarioScript((
        CascadeOutage(
            at_ms=0.3 * duration_ms,
            origin=origin,
            spread_prob=0.6,
            decay=0.5,
            max_depth=2,
            step_ms=max(0.05 * duration_ms, 1.0),
            recover_after_ms=0.2 * duration_ms,
        ),
    ))


#: Named preset builders: ``(topology, duration_ms) -> ScenarioScript``.
PRESETS: dict[str, Callable[["Topology", float], ScenarioScript]] = {
    "diurnal": diurnal,
    "flash-crowd": flash_crowd,
    "degrade-worst-link": degrade_worst_link,
    "churn-burst": churn_burst,
    "link-blackout": link_blackout,
    "broker-outage": broker_outage,
    "partition-heal": partition_heal,
    "cascade": cascade,
}
