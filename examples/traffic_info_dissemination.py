#!/usr/bin/env python
"""Traffic-information dissemination (the paper's motivating PSD workload).

A city traffic authority publishes incident reports; each report carries a
publisher-chosen validity window (urgent incidents expire fast).  Subscribers
register interest in regions of an (x, y) road grid via content filters.
This example builds a *custom* overlay and workload on the public API —
no canned experiment harness — and compares all five strategies.

Run:  python examples/traffic_info_dissemination.py
"""

from repro import (
    PubSubSystem,
    RngStreams,
    Simulator,
    Subscription,
    SystemConfig,
    Topology,
    make_strategy,
    parse_filter,
)
from repro.stats.normal import Normal


def build_city_overlay() -> Topology:
    """A small metro overlay: one ingest broker, two district brokers,
    four neighbourhood brokers serving subscribers."""
    topo = Topology()
    for name in ("ingest", "north", "south", "n1", "n2", "s1", "s2"):
        topo.add_broker(name)
    links = [
        ("ingest", "north", 60.0), ("ingest", "south", 80.0),
        ("north", "n1", 55.0), ("north", "n2", 70.0),
        ("south", "s1", 65.0), ("south", "s2", 90.0),
        # A cross-link so routing has a real choice for s2's traffic.
        ("north", "s2", 60.0),
    ]
    for a, b, mean in links:
        topo.add_link(a, b, Normal(mean, 20.0**2))
    topo.attach_publisher("authority", "ingest")
    for sub, broker in [
        ("commuter-n1", "n1"), ("logistics-n2", "n2"),
        ("taxi-s1", "s1"), ("bus-s2", "s2"),
    ]:
        topo.attach_subscriber(sub, broker)
    return topo


# Region-of-interest filters over the road grid (x, y in [0, 10)).
FILTERS = {
    "commuter-n1": "x<5 & y<5",
    "logistics-n2": "x>=5 & y<5",
    "taxi-s1": "y>=5",
    "bus-s2": "x<8 & y>=3",
}

#: (grid position, severity -> validity window in ms)
INCIDENTS = [
    ({"x": 2.0, "y": 3.0}, 8_000.0),  # urgent: blocked junction, north-west
    ({"x": 7.0, "y": 1.0}, 20_000.0),  # slow lane closure, north-east
    ({"x": 3.0, "y": 8.0}, 12_000.0),  # accident in the south
    ({"x": 6.0, "y": 6.0}, 30_000.0),  # long roadworks notice
]


def run_strategy(name: str) -> dict:
    topo = build_city_overlay()
    system = PubSubSystem(
        topology=topo,
        strategy=make_strategy(name) if name != "ebpc" else make_strategy("ebpc", r=0.6),
        sim=Simulator(),
        streams=RngStreams(7),
        config=SystemConfig(message_size_kb=50.0),
    )
    handles = {
        sub: system.subscribe(Subscription(sub, parse_filter(expr)))
        for sub, expr in FILTERS.items()
    }

    # Publish a burst: all incidents in quick succession, which congests the
    # ingest links and forces a scheduling decision.
    for i, (position, validity_ms) in enumerate(INCIDENTS * 8):
        system.sim.schedule_at(
            i * 150.0,
            lambda p=position, v=validity_ms: system.publish("authority", p, deadline_ms=v),
        )
    system.sim.run()

    return {
        "delivery_rate": system.metrics.delivery_rate,
        "valid": system.metrics.deliveries_valid,
        "late": system.metrics.deliveries_late,
        "pruned": system.metrics.pruned,
        "per_subscriber": {s: h.valid_count for s, h in handles.items()},
    }


def main() -> None:
    print("Traffic-information dissemination (PSD, bursty incident feed)")
    print()
    rows = [("strategy", "delivery", "valid", "late", "pruned")]
    for name in ("eb", "pc", "ebpc", "fifo", "rl"):
        result = run_strategy(name)
        rows.append(
            (name, f"{result['delivery_rate']:.3f}", str(result["valid"]),
             str(result["late"]), str(result["pruned"]))
        )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    for i, row in enumerate(rows):
        print("  " + "  ".join(c.rjust(widths[j]) for j, c in enumerate(row)))
        if i == 0:
            print("  " + "  ".join("-" * w for w in widths))
    print()
    best = run_strategy("eb")
    print("EB per-subscriber valid deliveries:", best["per_subscriber"])


if __name__ == "__main__":
    main()
