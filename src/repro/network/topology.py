"""Static overlay topology and the builders used in the evaluation.

A :class:`Topology` is an undirected multigraph-free graph of broker names
with one :class:`~repro.stats.normal.Normal` transmission-rate distribution
per edge (``TR`` in ms/KB, identical in both directions, as for a single
TCP connection).  The graph is a plain adjacency mapping — the overlay is
32 brokers (Fig. 3), and every traversal here states its own iteration
order instead of inheriting one from a graph library.  Publisher and
subscriber *attachments* record which edge broker serves which client;
client access links are not modelled, matching the paper (clients talk to
their broker locally).
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.stats.normal import Normal


class TopologyError(ValueError):
    """Raised on malformed topologies (unknown nodes, duplicate edges...)."""


@dataclass(frozen=True, slots=True)
class LayeredMeshSpec:
    """Parameters of the paper's simulated broker network (Fig. 3).

    Defaults are exactly the ICPP'06 setup: 32 brokers in 4 layers
    (4 / 4 / 8 / 16); every layer-2 broker connects to all layer-1 brokers;
    each layer-3 broker to 2 random layer-2 brokers; each layer-4 broker to
    2 random layer-3 brokers; one publisher per layer-1 broker and 10
    subscribers per layer-4 broker; link mean rate uniform in
    [50, 100] ms/KB with a 20 ms/KB standard deviation.
    """

    layer_sizes: tuple[int, ...] = (4, 4, 8, 16)
    uplinks_per_layer: tuple[int, ...] = (0, 4, 2, 2)  # [0] unused
    publishers_per_edge_broker: int = 1
    subscribers_per_edge_broker: int = 10
    rate_mean_range: tuple[float, float] = (50.0, 100.0)
    rate_std: float = 20.0

    def __post_init__(self) -> None:
        if len(self.layer_sizes) != len(self.uplinks_per_layer):
            raise ValueError("layer_sizes and uplinks_per_layer must align")
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least two layers")
        if any(n <= 0 for n in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        lo, hi = self.rate_mean_range
        if not 0.0 < lo <= hi:
            raise ValueError(f"bad rate_mean_range {self.rate_mean_range}")
        if self.rate_std < 0.0:
            raise ValueError("rate_std must be non-negative")


class Topology:
    """Undirected broker graph with per-edge rate distributions."""

    def __init__(self) -> None:
        #: broker -> neighbour -> link rate; both directions of a link hold
        #: the same :class:`Normal`.
        self._adj: dict[str, dict[str, Normal]] = {}
        self.publisher_brokers: dict[str, str] = {}  # publisher -> broker
        self.subscriber_brokers: dict[str, str] = {}  # subscriber -> broker
        #: Builder-recorded facts about how the topology came to be
        #: (e.g. how many random chords were actually added).
        self.metadata: dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #
    def add_broker(self, name: str) -> None:
        if name in self._adj:
            raise TopologyError(f"duplicate broker {name!r}")
        self._adj[name] = {}

    def add_link(self, a: str, b: str, rate: Normal) -> None:
        if a == b:
            raise TopologyError(f"self-link at {a!r}")
        for node in (a, b):
            if node not in self._adj:
                raise TopologyError(f"unknown broker {node!r}")
        if b in self._adj[a]:
            raise TopologyError(f"duplicate link {a!r}-{b!r}")
        self._adj[a][b] = self._adj[b][a] = rate

    def attach_publisher(self, publisher: str, broker: str) -> None:
        if broker not in self._adj:
            raise TopologyError(f"unknown broker {broker!r}")
        if publisher in self.publisher_brokers:
            raise TopologyError(f"duplicate publisher {publisher!r}")
        self.publisher_brokers[publisher] = broker

    def attach_subscriber(self, subscriber: str, broker: str) -> None:
        if broker not in self._adj:
            raise TopologyError(f"unknown broker {broker!r}")
        if subscriber in self.subscriber_brokers:
            raise TopologyError(f"duplicate subscriber {subscriber!r}")
        self.subscriber_brokers[subscriber] = broker

    # ------------------------------------------------------------------ #
    # Queries.
    # ------------------------------------------------------------------ #
    def __contains__(self, broker: object) -> bool:
        return broker in self._adj

    @property
    def brokers(self) -> list[str]:
        return sorted(self._adj)

    @property
    def broker_count(self) -> int:
        return len(self._adj)

    @property
    def link_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def links(self) -> list[tuple[str, str, Normal]]:
        """All links as sorted ``(a, b, rate)`` with ``a < b``."""
        return sorted(
            ((a, b, rate) for a, nbrs in self._adj.items() for b, rate in nbrs.items() if a < b),
            key=lambda t: (t[0], t[1]),
        )

    def has_link(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def link_rate(self, a: str, b: str) -> Normal:
        try:
            return self._adj[a][b]
        except KeyError:
            raise TopologyError(f"no link {a!r}-{b!r}") from None

    def set_link_rate(self, a: str, b: str, rate: Normal) -> None:
        """Replace a link's distribution in the static description.

        This mutates the *topology layer only* — a running system built
        from this topology holds its own :class:`DirectedLink` channels.
        Use :meth:`repro.pubsub.system.PubSubSystem.set_link_rate` for
        runtime failure injection; it keeps both layers (and the link
        monitors) in step.
        """
        if not self.has_link(a, b):
            raise TopologyError(f"no link {a!r}-{b!r}")
        self._adj[a][b] = self._adj[b][a] = rate

    def neighbors(self, broker: str) -> list[str]:
        if broker not in self._adj:
            raise TopologyError(f"unknown broker {broker!r}")
        return sorted(self._adj[broker])

    def is_connected(self) -> bool:
        """Whether every broker is reachable from every other (one DFS)."""
        if not self._adj:
            return False
        seen: set[str] = set()
        stack = [next(iter(self._adj))]
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(nbr for nbr in self._adj[node] if nbr not in seen)
        return len(seen) == len(self._adj)

    def hop_distance(self, src: str, dst: str) -> int:
        """Fewest links between two brokers (BFS over sorted neighbours).

        Raises :class:`TopologyError` for an unknown broker or when ``dst``
        is unreachable from ``src``.
        """
        for node in (src, dst):
            if node not in self._adj:
                raise TopologyError(f"unknown broker {node!r}")
        hops = {src: 0}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            if node == dst:
                return hops[node]
            for nbr in self.neighbors(node):
                if nbr not in hops:
                    hops[nbr] = hops[node] + 1
                    frontier.append(nbr)
        raise TopologyError(f"no path {src!r} -> {dst!r}")

    def subscribers_of(self, broker: str) -> list[str]:
        return sorted(s for s, b in self.subscriber_brokers.items() if b == broker)

    def publishers_of(self, broker: str) -> list[str]:
        return sorted(p for p, b in self.publisher_brokers.items() if b == broker)


# ---------------------------------------------------------------------- #
# Builders.
# ---------------------------------------------------------------------- #
def _draw_rate(rng: np.random.Generator, mean_range: tuple[float, float], std: float) -> Normal:
    mu = float(rng.uniform(*mean_range))
    return Normal(mu, std * std)


def build_layered_mesh(
    rng: np.random.Generator,
    spec: LayeredMeshSpec | None = None,
) -> Topology:
    """Build the paper's layered mesh (Fig. 3) with randomised wiring/rates.

    Broker names are ``B1..B32`` (layer by layer, matching the figure),
    publishers ``P1..P4`` on layer 1, subscribers ``S1..S160`` on layer 4.
    """
    spec = spec or LayeredMeshSpec()
    topo = Topology()
    layers: list[list[str]] = []
    counter = 1
    for size in spec.layer_sizes:
        layer = [f"B{counter + i}" for i in range(size)]
        counter += size
        for name in layer:
            topo.add_broker(name)
        layers.append(layer)

    for level in range(1, len(layers)):
        uplinks = spec.uplinks_per_layer[level]
        parents = layers[level - 1]
        for broker in layers[level]:
            if uplinks >= len(parents):
                chosen = list(parents)
            else:
                idx = rng.choice(len(parents), size=uplinks, replace=False)
                chosen = [parents[i] for i in sorted(idx)]
            for parent in chosen:
                topo.add_link(parent, broker, _draw_rate(rng, spec.rate_mean_range, spec.rate_std))

    pub_id = 1
    for broker in layers[0]:
        for _ in range(spec.publishers_per_edge_broker):
            topo.attach_publisher(f"P{pub_id}", broker)
            pub_id += 1
    sub_id = 1
    for broker in layers[-1]:
        for _ in range(spec.subscribers_per_edge_broker):
            topo.attach_subscriber(f"S{sub_id}", broker)
            sub_id += 1
    return topo


def build_acyclic_tree(
    rng: np.random.Generator,
    broker_count: int = 8,
    publishers: int = 2,
    subscribers: int = 8,
    rate_mean_range: tuple[float, float] = (50.0, 100.0),
    rate_std: float = 20.0,
) -> Topology:
    """Random tree overlay (the Siena/JEDI-style acyclic topology).

    Every broker may serve both publishers and subscribers; clients are
    attached to brokers round-robin over a random permutation.
    """
    if broker_count < 1:
        raise ValueError("broker_count must be positive")
    topo = Topology()
    names = [f"B{i + 1}" for i in range(broker_count)]
    for name in names:
        topo.add_broker(name)
    # Random recursive tree: node i attaches to a uniform earlier node.
    for i in range(1, broker_count):
        parent = names[int(rng.integers(0, i))]
        topo.add_link(parent, names[i], _draw_rate(rng, rate_mean_range, rate_std))
    perm = [names[i] for i in rng.permutation(broker_count)]
    for k in range(publishers):
        topo.attach_publisher(f"P{k + 1}", perm[k % broker_count])
    for k in range(subscribers):
        topo.attach_subscriber(f"S{k + 1}", perm[(publishers + k) % broker_count])
    return topo


def build_random_mesh(
    rng: np.random.Generator,
    broker_count: int = 16,
    extra_links: int = 8,
    publishers: int = 2,
    subscribers: int = 16,
    rate_mean_range: tuple[float, float] = (50.0, 100.0),
    rate_std: float = 20.0,
) -> Topology:
    """Connected random mesh: a random spanning tree plus ``extra_links``
    random chords (so multiple paths exist, exercising path selection)."""
    if broker_count < 2:
        raise ValueError("broker_count must be >= 2")
    topo = build_acyclic_tree(
        rng,
        broker_count=broker_count,
        publishers=publishers,
        subscribers=subscribers,
        rate_mean_range=rate_mean_range,
        rate_std=rate_std,
    )
    names = topo.brokers
    added = 0
    attempts = 0
    max_possible = broker_count * (broker_count - 1) // 2 - (broker_count - 1)
    target = min(extra_links, max_possible)
    while added < target and attempts < 100 * (target + 1):
        attempts += 1
        i, j = rng.integers(0, broker_count, size=2)
        a, b = names[int(i)], names[int(j)]
        if a == b or topo.has_link(a, b):
            continue
        topo.add_link(a, b, _draw_rate(rng, rate_mean_range, rate_std))
        added += 1
    topo.metadata["chords_requested"] = extra_links
    topo.metadata["chords_added"] = added
    if added < extra_links:
        warnings.warn(
            f"build_random_mesh: added {added} of {extra_links} requested "
            f"chords ({max_possible} possible on {broker_count} brokers; "
            f"attempt budget {100 * (target + 1)}); see topology.metadata",
            RuntimeWarning,
            stacklevel=2,
        )
    return topo


def build_from_edges(
    edges: Iterable[tuple[str, str, Normal]],
    publishers: dict[str, str] | None = None,
    subscribers: dict[str, str] | None = None,
) -> Topology:
    """Explicit construction, mostly for tests and small examples."""
    topo = Topology()
    seen: set[str] = set()
    edges = list(edges)
    for a, b, _ in edges:
        for node in (a, b):
            if node not in seen:
                topo.add_broker(node)
                seen.add(node)
    for a, b, rate in edges:
        topo.add_link(a, b, rate)
    for pub, broker in (publishers or {}).items():
        topo.attach_publisher(pub, broker)
    for sub, broker in (subscribers or {}).items():
        topo.attach_subscriber(sub, broker)
    return topo
