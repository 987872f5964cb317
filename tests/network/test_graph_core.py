"""The hand-written graph core against brute-force definitions.

``Topology`` owns its adjacency mapping and the three traversals the repo
uses (connectivity, hop distance, simple-path enumeration).  Every oracle
here is a definition, not an algorithm: permutations filtered by
adjacency, a union-find, a set of frozensets — none needs a graph library.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.paths import enumerate_simple_paths
from repro.network.topology import Topology, TopologyError
from repro.stats.normal import Normal

NODES = [f"N{i}" for i in range(7)]
RATE = Normal(10.0, 4.0)


@st.composite
def graphs(draw):
    """``(nodes, edges)`` of a random simple graph on at most 7 nodes."""
    nodes = NODES[: draw(st.integers(1, len(NODES)))]
    pairs = list(combinations(nodes, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return nodes, edges


def build(nodes, edges) -> Topology:
    topology = Topology()
    for node in nodes:
        topology.add_broker(node)
    for a, b in edges:
        topology.add_link(a, b, RATE)
    return topology


def oracle_simple_paths(nodes, edges, src, dst, cutoff=None):
    """Every ordering of distinct intermediate nodes whose consecutive
    pairs are all linked — the definition of a simple path."""
    if src == dst:
        return {(src,)}
    linked = {frozenset(edge) for edge in edges}
    most_links = len(nodes) - 1 if cutoff is None else cutoff
    others = [n for n in nodes if n not in (src, dst)]
    found = set()
    for k in range(len(others) + 1):
        for middle in permutations(others, k):
            path = (src, *middle, dst)
            if len(path) - 1 <= most_links and all(
                frozenset(pair) in linked for pair in zip(path, path[1:])
            ):
                found.add(path)
    return found


def oracle_components(nodes, edges) -> int:
    root = {node: node for node in nodes}

    def find(node):
        while root[node] != node:
            node = root[node]
        return node

    for a, b in edges:
        root[find(a)] = find(b)
    return len({find(node) for node in nodes})


@given(graph=graphs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_enumerate_simple_paths_equals_the_permutation_oracle(graph, data):
    nodes, edges = graph
    topology = build(nodes, edges)
    src = data.draw(st.sampled_from(nodes))
    dst = data.draw(st.sampled_from(nodes))
    cutoff = data.draw(st.none() | st.integers(-1, len(nodes)))
    got = [tuple(p) for p in enumerate_simple_paths(topology, src, dst, cutoff)]
    assert len(got) == len(set(got))
    assert set(got) == oracle_simple_paths(nodes, edges, src, dst, cutoff)


@given(graph=graphs())
@settings(max_examples=50, deadline=None)
def test_enumerate_simple_paths_rejects_unknown_brokers(graph):
    topology = build(*graph)
    for src, dst in (("ghost", "N0"), ("N0", "ghost"), ("ghost", "ghost")):
        with pytest.raises(TopologyError):
            list(enumerate_simple_paths(topology, src, dst))


@given(graph=graphs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_hop_distance_is_the_shortest_enumerated_path(graph, data):
    nodes, edges = graph
    topology = build(nodes, edges)
    src = data.draw(st.sampled_from(nodes))
    dst = data.draw(st.sampled_from(nodes))
    paths = oracle_simple_paths(nodes, edges, src, dst)
    if paths:
        assert topology.hop_distance(src, dst) == min(len(p) for p in paths) - 1
        assert topology.hop_distance(dst, src) == topology.hop_distance(src, dst)
    else:
        with pytest.raises(TopologyError):
            topology.hop_distance(src, dst)
    with pytest.raises(TopologyError):
        topology.hop_distance(src, "ghost")


@given(graph=graphs())
@settings(max_examples=200, deadline=None)
def test_is_connected_equals_union_find(graph):
    nodes, edges = graph
    assert build(nodes, edges).is_connected() == (oracle_components(nodes, edges) == 1)


def test_empty_topology_is_not_connected():
    assert not Topology().is_connected()


@given(graph=graphs())
@settings(max_examples=100, deadline=None)
def test_links_are_symmetric_and_counted_once(graph):
    nodes, edges = graph
    topology = build(nodes, edges)
    linked = {frozenset(edge) for edge in edges}
    assert topology.link_count == len(edges) == len(topology.links())
    for a in nodes:
        assert a in topology
        assert topology.neighbors(a) == sorted(b for b in nodes if frozenset((a, b)) in linked)
        for b in nodes:
            assert topology.has_link(a, b) == (frozenset((a, b)) in linked)
        assert not topology.has_link(a, "ghost") and not topology.has_link("ghost", a)
    assert "ghost" not in topology
    for a, b in edges:
        fresh = Normal(77.0, 1.0)
        topology.set_link_rate(b, a, fresh)
        assert topology.link_rate(a, b) is fresh and topology.link_rate(b, a) is fresh
        assert (min(a, b), max(a, b), fresh) in topology.links()
    assert topology.link_count == len(edges)


@given(graph=graphs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_differential_against_a_graph_library_where_installed(graph, data):
    nx = pytest.importorskip("networkx")  # dev machines only; CI does not install it
    nodes, edges = graph
    topology = build(nodes, edges)
    reference = nx.Graph()
    reference.add_nodes_from(nodes)
    reference.add_edges_from(edges)
    src = data.draw(st.sampled_from(nodes))
    dst = data.draw(st.sampled_from(nodes))
    cutoff = data.draw(st.none() | st.integers(0, len(nodes)))
    assert topology.is_connected() == nx.is_connected(reference)
    if src != dst:
        assert sorted(enumerate_simple_paths(topology, src, dst, cutoff)) == sorted(
            nx.all_simple_paths(reference, src, dst, cutoff=cutoff)
        )
        if nx.has_path(reference, src, dst):
            assert topology.hop_distance(src, dst) == nx.shortest_path_length(reference, src, dst)
