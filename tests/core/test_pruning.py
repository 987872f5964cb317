"""Invalid-message detection tests (Eq. 11)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import (
    DEFAULT_EPSILON,
    PruningPolicy,
    entry_is_expired,
    entry_is_hopeless,
    prune_horizon,
    prune_horizon_floor,
    should_prune,
)
from repro.core.strategies import QueueEntry
from repro.reference import ReferenceEntry
from tests.core.helpers import make_entry, make_message, make_row


class TestExpiry:
    def test_live_entry_not_expired(self):
        entry = make_entry(rows=[make_row(deadline_ms=30_000.0)])
        assert not entry_is_expired(entry, now=10_000.0)

    def test_all_deadlines_passed(self):
        entry = make_entry(
            rows=[make_row("S1", deadline_ms=10_000.0), make_row("S2", deadline_ms=20_000.0)]
        )
        assert not entry_is_expired(entry, now=15_000.0)  # S2 still alive
        assert entry_is_expired(entry, now=25_000.0)

    def test_boundary_is_alive(self):
        entry = make_entry(rows=[make_row(deadline_ms=10_000.0)])
        assert not entry_is_expired(entry, now=10_000.0)

    def test_unbounded_never_expires(self):
        entry = make_entry(
            make_message(deadline_ms=None), rows=[make_row(deadline_ms=None)]
        )
        assert not entry_is_expired(entry, now=1e12)


class TestHopeless:
    def test_fresh_entry_not_hopeless(self):
        entry = make_entry(rows=[make_row(deadline_ms=30_000.0, nn=1, mean=100.0)])
        assert not entry_is_hopeless(entry, 0.0, 2.0)

    def test_infeasible_deadline_is_hopeless_before_expiry(self):
        # Deadline 4 s, but the remaining path needs ~15 s: hopeless at t=0,
        # long before the message actually expires.  This is the paper's
        # early-deletion win over plain expiry.
        entry = make_entry(rows=[make_row(deadline_ms=4_000.0, nn=2, mean=300.0, variance=400.0)])
        assert entry_is_hopeless(entry, 0.0, 2.0)
        assert not entry_is_expired(entry, 0.0)

    def test_one_feasible_row_saves_entry(self):
        entry = make_entry(
            rows=[
                make_row("S1", deadline_ms=4_000.0, nn=2, mean=300.0),  # hopeless
                make_row("S2", deadline_ms=60_000.0, nn=1, mean=50.0),  # fine
            ]
        )
        assert not entry_is_hopeless(entry, 0.0, 2.0)

    def test_epsilon_subsumes_expiry(self):
        entry = make_entry(rows=[make_row(deadline_ms=10_000.0)])
        assert entry_is_expired(entry, now=60_000.0)
        assert entry_is_hopeless(entry, 60_000.0, 2.0)

    def test_invalid_epsilon(self):
        entry = make_entry()
        with pytest.raises(ValueError):
            entry_is_hopeless(entry, 0.0, 2.0, epsilon=0.0)


class TestPolicies:
    def test_none_never_prunes(self):
        entry = make_entry(rows=[make_row(deadline_ms=1.0)])
        assert not should_prune(entry, 1e9, 2.0, PruningPolicy.NONE)

    def test_expired_policy(self):
        entry = make_entry(rows=[make_row(deadline_ms=4_000.0, nn=2, mean=300.0)])
        # Infeasible but not yet expired: EXPIRED keeps it, PROBABILISTIC kills it.
        assert not should_prune(entry, 0.0, 2.0, PruningPolicy.EXPIRED)
        assert should_prune(entry, 0.0, 2.0, PruningPolicy.PROBABILISTIC)

    def test_for_strategy_mapping(self):
        assert PruningPolicy.for_strategy(True) is PruningPolicy.PROBABILISTIC
        assert PruningPolicy.for_strategy(False) is PruningPolicy.EXPIRED

    def test_default_epsilon_is_papers(self):
        assert DEFAULT_EPSILON == 5e-4


class TestPruneHorizon:
    def test_unbounded_row_never_reaches_horizon(self):
        entry = make_entry(rows=[make_row(deadline_ms=None)])
        assert prune_horizon(entry, 2.0, PruningPolicy.PROBABILISTIC) == math.inf
        assert prune_horizon(entry, 2.0, PruningPolicy.EXPIRED) == math.inf

    def test_epsilon_at_least_one_prunable_from_start(self):
        # ε ≥ 1 means every probability is < ε; the guard must win even
        # when a row is unbounded (success exactly 1 is still < 1.5).
        entry = make_entry(rows=[make_row(deadline_ms=None)])
        assert prune_horizon(entry, 2.0, PruningPolicy.PROBABILISTIC, epsilon=1.5) == -math.inf
        assert should_prune(entry, 0.0, 2.0, PruningPolicy.PROBABILISTIC, 1.5)

    def test_invalid_epsilon_rejected_before_row_inspection(self):
        entry = make_entry(rows=[make_row(deadline_ms=None)])
        with pytest.raises(ValueError):
            prune_horizon(entry, 2.0, PruningPolicy.PROBABILISTIC, epsilon=0.0)

    def test_none_policy_is_never(self):
        assert prune_horizon(make_entry(), 2.0, PruningPolicy.NONE) == math.inf


#: One row: dense (finite deadline, σ > 0) or not (no deadline, σ = 0).
_ROW = st.builds(
    dict,
    deadline_ms=st.one_of(st.none(), st.floats(1_000.0, 90_000.0)),
    nn=st.integers(1, 4),
    mean=st.floats(5.0, 300.0),
    variance=st.one_of(st.just(0.0), st.floats(1.0, 2_000.0)),
)


class TestPruneHorizonFloor:
    """The prune index's key: the first row's own term of the horizon max."""

    @settings(max_examples=150, deadline=None)
    @given(
        specs=st.one_of(
            st.lists(_ROW, min_size=1, max_size=6),  # small form when dense
            st.lists(_ROW, min_size=33, max_size=40),  # array form
            st.lists(_ROW.filter(lambda r: r["deadline_ms"] is not None and r["variance"] > 0.0),
                     min_size=1, max_size=40),  # dense
        ),
        publish_time=st.floats(-30_000.0, 30_000.0),
        size_kb=st.floats(1.0, 120.0),
        msg_deadline=st.one_of(st.none(), st.floats(5_000.0, 60_000.0)),  # PSD
        policy=st.sampled_from([PruningPolicy.EXPIRED, PruningPolicy.PROBABILISTIC]),
    )
    def test_floor_is_a_row_term_bitwise_and_below_the_horizon(
        self, specs, publish_time, size_kb, msg_deadline, policy
    ):
        message = make_message(publish_time=publish_time, size_kb=size_kb, deadline_ms=msg_deadline)
        rows = [make_row(f"S{i}", **spec) for i, spec in enumerate(specs)]
        for entry_type in (QueueEntry, ReferenceEntry):  # small and array form
            term = prune_horizon(entry_type(message, rows[:1], 0.0, 0), 2.0, policy)
            entry = entry_type(message, rows, 0.0, 0)
            floor = prune_horizon_floor(entry, 2.0, policy)
            assert entry._plan is None  # no score plan to compute it
            assert floor.hex() == term.hex()  # the first row's own term
            assert floor <= prune_horizon(entry, 2.0, policy)

    @pytest.mark.parametrize("policy", [PruningPolicy.EXPIRED, PruningPolicy.PROBABILISTIC])
    def test_floor_is_the_first_row_term_on_random_operands(self, policy):
        """Hypothesis favours round floats, whose sums are exact; uniform
        draws exercise the rounding an operation-order slip would change."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            message = make_message(
                publish_time=rng.uniform(-30_000.0, 30_000.0),
                size_kb=rng.uniform(1.0, 120.0),
                deadline_ms=rng.uniform(5_000.0, 60_000.0) if rng.random() < 0.5 else None,
            )
            rows = [
                make_row(f"S{i}", deadline_ms=rng.uniform(1_000.0, 90_000.0),
                         nn=int(rng.integers(1, 5)), mean=rng.uniform(5.0, 300.0),
                         variance=0.0 if rng.random() < 0.2 else rng.uniform(1.0, 2_000.0))
                for i in range(int(rng.integers(1, 40)))
            ]
            pd = rng.uniform(0.5, 5.0)
            for entry_type in (QueueEntry, ReferenceEntry):
                term = prune_horizon(entry_type(message, rows[:1], 0.0, 0), pd, policy)
                floor = prune_horizon_floor(entry_type(message, rows, 0.0, 0), pd, policy)
                assert floor.hex() == term.hex()

    def test_unbounded_first_row_is_never(self):
        entry = make_entry(rows=[make_row(deadline_ms=None), make_row("S2")])
        for policy in (PruningPolicy.EXPIRED, PruningPolicy.PROBABILISTIC):
            assert prune_horizon_floor(entry, 2.0, policy) == math.inf
            assert prune_horizon(entry, 2.0, policy) == math.inf

    def test_epsilon_guards_match_the_horizon(self):
        entry = make_entry(rows=[make_row(deadline_ms=None)])
        assert prune_horizon_floor(entry, 2.0, PruningPolicy.PROBABILISTIC, 1.5) == -math.inf
        with pytest.raises(ValueError):
            prune_horizon_floor(entry, 2.0, PruningPolicy.PROBABILISTIC, epsilon=0.0)
        assert prune_horizon_floor(entry, 2.0, PruningPolicy.NONE) == math.inf
