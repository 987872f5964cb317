"""Path algebra: composing link distributions into path distributions.

Section 3.2 of the paper: link rates are independent normals, so for a path
``p = l_1 .. l_n`` the rate is ``TR_p ~ N(Σ μ_i, Σ σ_i²)``; a message of
``m`` KB has propagation delay ``m · TR_p``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.network.topology import Topology, TopologyError
from repro.stats.normal import Normal


def path_distribution(topology: Topology, path: Sequence[str]) -> Normal:
    """``TR_p`` of a node path (empty/single-node paths are degenerate zero).

    Raises :class:`TopologyError` if consecutive nodes are not linked.
    """
    return Normal.sum(
        topology.link_rate(a, b) for a, b in zip(path, path[1:])
    )


def path_mean(topology: Topology, path: Sequence[str]) -> float:
    """Mean of ``TR_p`` — the single-path routing cost metric."""
    return path_distribution(topology, path).mean


def remaining_hops(path: Sequence[str]) -> int:
    """``NN_p``: nodes on the path that will still process the message.

    For a path ``[current, b1, ..., edge_broker]`` every node *after* the
    current broker runs its processing module (the current broker already
    has), so ``NN_p = len(path) - 1``.  A local subscriber (single-node
    path) has ``NN_p = 0``.
    """
    if not path:
        return 0
    return len(path) - 1


def enumerate_simple_paths(
    topology: Topology, src: str, dst: str, cutoff: int | None = None
) -> Iterator[list[str]]:
    """All simple paths between two brokers (exhaustive; small graphs only).

    Used by tests to certify routing optimality and by the multi-path
    routing extension.  ``cutoff`` is the most links a path may have
    (default ``broker_count - 1``, i.e. no limit).  Paths come out in
    depth-first order over sorted neighbours.
    """
    for node in (src, dst):
        if node not in topology:
            raise TopologyError(f"unknown broker {node!r}")
    if src == dst:
        yield [src]
        return
    if cutoff is None:
        cutoff = topology.broker_count - 1
    if cutoff < 1:
        return
    # Iterative DFS: ``path`` is the current simple path from ``src`` and
    # ``pending[i]`` the not-yet-tried neighbours of ``path[i]``.
    path = [src]
    on_path = {src}
    pending = [iter(topology.neighbors(src))]
    while pending:
        nbr = next(pending[-1], None)
        if nbr is None:
            pending.pop()
            on_path.discard(path.pop())
        elif nbr == dst:
            yield [*path, dst]
        elif nbr not in on_path and len(path) < cutoff:
            path.append(nbr)
            on_path.add(nbr)
            pending.append(iter(topology.neighbors(nbr)))


def best_path_exhaustive(topology: Topology, src: str, dst: str) -> list[str]:
    """Minimum-mean-TR path by brute force (test oracle for Dijkstra).

    Ties broken by (path length, lexicographic node sequence) so the result
    is deterministic.
    """
    best: tuple[float, int, list[str]] | None = None
    for path in enumerate_simple_paths(topology, src, dst):
        key = (path_mean(topology, path), len(path), path)
        if best is None or key < (best[0], best[1], best[2]):
            best = key
    if best is None:
        raise TopologyError(f"no path {src!r} -> {dst!r}")
    return best[2]
