"""Shared fixtures: small deterministic topologies and systems."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.network.topology import Topology, build_from_edges
from repro.stats.normal import Normal

# Arm the invariant sentinel on every run the suite performs (the
# sentinel is decision-neutral, so this cannot change any expected
# value).  setdefault keeps CI's explicit "deep"/"0" overrides in force.
os.environ.setdefault("REPRO_SENTINEL", "1")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def streams() -> RngStreams:
    return RngStreams(seed=7)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def make_line_topology(
    n: int = 3,
    rate: Normal = Normal(10.0, 4.0),
    publishers: dict[str, str] | None = None,
    subscribers: dict[str, str] | None = None,
) -> Topology:
    """``B1 - B2 - ... - Bn`` with identical link rates."""
    edges = [(f"B{i}", f"B{i + 1}", rate) for i in range(1, n)]
    return build_from_edges(edges, publishers=publishers, subscribers=subscribers)


def make_diamond_topology(
    fast: Normal = Normal(5.0, 1.0),
    slow: Normal = Normal(50.0, 4.0),
    publishers: dict[str, str] | None = None,
    subscribers: dict[str, str] | None = None,
) -> Topology:
    """A diamond ``B1 -> {B2 fast, B3 slow} -> B4``: two distinct paths."""
    edges = [
        ("B1", "B2", fast),
        ("B2", "B4", fast),
        ("B1", "B3", slow),
        ("B3", "B4", slow),
    ]
    return build_from_edges(edges, publishers=publishers, subscribers=subscribers)


@pytest.fixture
def line_topology() -> Topology:
    return make_line_topology(
        n=3,
        publishers={"P1": "B1"},
        subscribers={"S1": "B3"},
    )


@pytest.fixture
def diamond_topology() -> Topology:
    return make_diamond_topology(
        publishers={"P1": "B1"},
        subscribers={"S1": "B4"},
    )
