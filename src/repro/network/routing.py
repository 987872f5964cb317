"""Single-path routing: minimum mean transmission rate (Section 3.3).

The paper selects, for each message flow, the single path minimising the
*mean* of the path transmission rate.  We realise this as one **sink tree
per subscriber-hosting broker**: Dijkstra from the subscriber's edge broker
with edge weight ``μ`` gives every broker a unique next hop toward that
subscriber, plus the remaining-path parameters ``(NN_p, μ_p, σ_p²)`` that
the subscription-table rows of Section 4.2 carry.

Consistency matters: because routes come from one shortest-path tree per
sink, the suffix of any route is itself a route, so the parameters a broker
advertises agree with the forwarding its downstream brokers actually do.
Ties are broken deterministically (by hop count, then node name) so runs
are seed-reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from repro.network.topology import Topology, TopologyError
from repro.stats.normal import Normal


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """Routing state for one broker toward one sink.

    ``next_hop is None`` iff the broker *is* the sink.  ``nn`` is the
    ``NN_p`` of Section 4.2 — the number of brokers that will still process
    the message (all path nodes after the current one, including the sink).
    ``rate`` is the remaining-path ``TR_p`` distribution.
    """

    next_hop: str | None
    nn: int
    rate: Normal

    @property
    def is_sink(self) -> bool:
        return self.next_hop is None


class SinkTree:
    """Shortest-path tree of routes from every broker toward ``sink``."""

    def __init__(self, sink: str, entries: Mapping[str, RouteEntry]) -> None:
        self.sink = sink
        self._entries = dict(entries)

    def entry(self, broker: str) -> RouteEntry:
        try:
            return self._entries[broker]
        except KeyError:
            raise TopologyError(f"broker {broker!r} has no route to {self.sink!r}") from None

    def has_route(self, broker: str) -> bool:
        return broker in self._entries

    def path_from(self, broker: str) -> list[str]:
        """Full node path ``[broker, ..., sink]`` (for tests/diagnostics)."""
        path = [broker]
        entry = self.entry(broker)
        while entry.next_hop is not None:
            path.append(entry.next_hop)
            entry = self.entry(entry.next_hop)
        return path

    @property
    def brokers(self) -> list[str]:
        return sorted(self._entries)


def compute_sink_tree(topology: Topology, sink: str) -> SinkTree:
    """Dijkstra on mean link rate, rooted at ``sink``.

    Tie-breaking: smaller hop count, then lexicographically smaller next
    hop.  Remaining-path variance is accumulated along the chosen tree
    edges (variances add by link independence).
    """
    if sink not in topology:
        raise TopologyError(f"unknown broker {sink!r}")

    # dist: broker -> (mean, hops); parent: broker -> next hop toward sink.
    dist: dict[str, tuple[float, int]] = {sink: (0.0, 0)}
    parent: dict[str, str | None] = {sink: None}
    var: dict[str, float] = {sink: 0.0}
    heap: list[tuple[float, int, str]] = [(0.0, 0, sink)]
    settled: set[str] = set()

    while heap:
        d, hops, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for nbr in topology.neighbors(node):
            rate = topology.link_rate(node, nbr)
            cand = (d + rate.mean, hops + 1)
            known = dist.get(nbr)
            better = known is None or cand < known or (
                cand == known and node < (parent[nbr] or "")
            )
            if nbr not in settled and better:
                dist[nbr] = cand
                parent[nbr] = node
                var[nbr] = var[node] + rate.variance
                heapq.heappush(heap, (cand[0], cand[1], nbr))

    entries = {
        broker: RouteEntry(
            next_hop=parent[broker],
            nn=dist[broker][1],
            rate=Normal(dist[broker][0], var[broker]),
        )
        for broker in dist
    }
    return SinkTree(sink, entries)


def shortest_path(topology: Topology, src: str, dst: str) -> list[str]:
    """Min-mean-TR path ``src -> dst`` (via the dst-rooted sink tree)."""
    return compute_sink_tree(topology, dst).path_from(src)


def k_shortest_paths(
    topology: Topology, src: str, dst: str, k: int, cutoff: int | None = None
) -> list[list[str]]:
    """The ``k`` lowest-mean simple paths (multi-path routing extension).

    Exhaustive enumeration with deterministic ordering — adequate for the
    overlay sizes of the paper (tens of brokers) and used by the multi-path
    ablation; not intended for internet-scale graphs.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    from repro.network.paths import enumerate_simple_paths, path_mean

    scored = sorted(
        ((path_mean(topology, p), len(p), p) for p in enumerate_simple_paths(topology, src, dst, cutoff)),
        key=lambda t: (t[0], t[1], t[2]),
    )
    if not scored:
        raise TopologyError(f"no path {src!r} -> {dst!r}")
    return [p for _, _, p in scored[:k]]
