"""Per-tier revenue breakdown for the SSD scenario.

The paper's total-earning objective (Eq. 2) hides *where* the money comes
from.  Splitting revenue by price tier shows the EB scheduler's implicit
bandwidth pricing: under congestion, contended capacity migrates to the
premium tier because each premium delivery contributes 3× an economy one
to the expected benefit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.folds import fold_sum
from repro.pubsub.system import PubSubSystem


@dataclass(frozen=True, slots=True)
class TierRevenue:
    """Revenue and delivery counts for one price tier.

    ``subscribers`` counts the endpoints ever registered in the tier: a
    subscriber who left stays in it (their valid deliveries were billed),
    and one who left and re-subscribed counts once per subscription.
    """

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
    scenarios.  Sorted by descending price, then ascending deadline.

    Keyed by *endpoint*, not by live subscriber: the system records each
    endpoint's price and deadline at subscribe time, so the tiers fold to
    ``metrics.earning`` under churn too.  The per-endpoint columns and
    the delivery log's cached one-pass valid tallies are grouped in
    numpy — one log pass, no Python per endpoint, spill-compatible.
    """
    log = system.delivery_log
    if not log.endpoint_count:
        return []
    prices = system.endpoint_prices()
    deadlines = system.endpoint_deadlines()
    # Deadlines are positive, so 0.0 is free to stand for "none" — and
    # sorts such a tier first within its price, as the contract says.
    deadlines[np.isnan(deadlines)] = 0.0
    order = np.lexsort((deadlines, -prices))
    prices, deadlines = prices[order], deadlines[order]
    fresh = (prices[1:] != prices[:-1]) | (deadlines[1:] != deadlines[:-1])
    starts = np.concatenate(([0], np.flatnonzero(fresh) + 1))
    subscribers = np.diff(starts, append=order.shape[0])
    valid = np.add.reduceat(log.endpoint_counts()[1][order], starts)
    return [
        TierRevenue(
            price=price,
            deadline_ms=deadline or None,
            subscribers=subs,
            valid_deliveries=count,
            revenue=price * count,
        )
        for price, deadline, subs, count in zip(
            prices[starts].tolist(), deadlines[starts].tolist(),
            subscribers.tolist(), valid.tolist(),
        )
    ]


def premium_share(tiers: list[TierRevenue]) -> float:
    """Fraction of total revenue earned by the highest-priced tier."""
    total = fold_sum(t.revenue for t in tiers)
    if total == 0.0 or not tiers:
        return 0.0
    top_price = max(t.price for t in tiers)
    return fold_sum(t.revenue for t in tiers if t.price == top_price) / total
