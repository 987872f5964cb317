"""Per-tier revenue breakdown for the SSD scenario.

The paper's total-earning objective (Eq. 2) hides *where* the money comes
from.  Splitting revenue by price tier shows the EB scheduler's implicit
bandwidth pricing: under congestion, contended capacity migrates to the
premium tier because each premium delivery contributes 3× an economy one
to the expected benefit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.folds import fold_sum
from repro.pubsub.system import PubSubSystem


@dataclass(frozen=True, slots=True)
class TierRevenue:
    """Revenue and delivery counts for one price tier."""

    price: float
    deadline_ms: float | None
    subscribers: int
    valid_deliveries: int
    revenue: float

    @property
    def revenue_per_subscriber(self) -> float:
        return self.revenue / self.subscribers if self.subscribers else 0.0


def revenue_by_tier(system: PubSubSystem) -> list[TierRevenue]:
    """Split a finished run's earning by subscription price tier.

    Tiers are keyed by ``(price, deadline)``; unpriced subscriptions (PSD)
    fall into a single ``price=1.0`` tier, so the function is total over
    scenarios.  Sorted by descending price.

    Per-endpoint valid counts come from the delivery log's cached
    one-pass chunk-stream tallies, so the whole breakdown costs one log
    pass plus O(subscribers) — no per-endpoint log scans, no whole-log
    gather, spill-compatible.
    """
    buckets: dict[tuple[float, float | None], dict[str, float]] = {}
    for name, handle in system.subscribers.items():
        subscription = system.subscription(name)
        price = subscription.price if subscription.price is not None else 1.0
        key = (price, subscription.deadline_ms)
        bucket = buckets.setdefault(key, {"subs": 0, "valid": 0})
        bucket["subs"] += 1
        bucket["valid"] += handle.valid_count
    out = [
        TierRevenue(
            price=price,
            deadline_ms=deadline,
            subscribers=int(b["subs"]),
            valid_deliveries=int(b["valid"]),
            revenue=price * b["valid"],
        )
        for (price, deadline), b in buckets.items()
    ]
    out.sort(key=lambda t: (-t.price, t.deadline_ms if t.deadline_ms is not None else 0.0))
    return out


def premium_share(tiers: list[TierRevenue]) -> float:
    """Fraction of total revenue earned by the highest-priced tier."""
    total = fold_sum(t.revenue for t in tiers)
    if total == 0.0 or not tiers:
        return 0.0
    top_price = max(t.price for t in tiers)
    return fold_sum(t.revenue for t in tiers if t.price == top_price) / total
