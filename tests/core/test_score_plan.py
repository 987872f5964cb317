"""Score-plan differential: the cached per-entry operands and the fused
(EB, EB′) pass must reproduce the one-call-per-decision kernels they
replaced **bit for bit**, and the scalar reference within float noise.
Both plan forms are held to that: the Python-float small form (dense
entries of at most ``SMALL_ROWS`` rows) and the numpy array form.

The reference kernels below are the pre-plan vector forms, frozen here
on purpose: ``repro.core.metrics``'s ``*_vec`` functions now run through
:class:`~repro.core.metrics.ScorePlan` themselves, so comparing against
them would prove nothing.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import SMALL_ROWS, ScorePlan, expected_benefit
from repro.core.pruning import (
    PruningPolicy,
    _std_normal_quantile,
    entry_is_expired,
    entry_is_hopeless,
    prune_horizon,
)
from repro.core.strategies import EbpcStrategy, EbStrategy, PcStrategy, QueueEntry
from repro.pubsub.message import Message
from repro.pubsub.subscription import RowArrays
from repro.reference import ReferenceEntry
from repro.stats.normal import normal_cdf_vec
from tests.core.helpers import make_ctx, make_message, make_row
from tests.core.test_metrics_core import rows_strategy


# --------------------------------------------------------------------- #
# Frozen references (the kernels as they were before the plan).
# --------------------------------------------------------------------- #
def reference_success(
    arrays: RowArrays, message: Message, now: float, pd: float, extra: float = 0.0
) -> np.ndarray:
    deadline = np.minimum(
        arrays.deadline,
        message.deadline_ms if message.deadline_ms is not None else np.inf,
    )
    unconstrained = np.isinf(deadline)
    budget = deadline - message.hdl(now) - extra - arrays.nn * pd
    x = np.where(unconstrained, 0.0, budget) / message.size_kb
    probs = normal_cdf_vec(x, arrays.mean, arrays.std)
    probs[unconstrained] = 1.0
    return probs


def reference_eb(arrays, message, now, pd, extra=0.0) -> float:
    return float(np.dot(reference_success(arrays, message, now, pd, extra), arrays.price))


def reference_horizon(arrays, message, pd, epsilon) -> float:
    deadline = arrays.deadline
    if message.deadline_ms is not None:
        deadline = np.minimum(deadline, message.deadline_ms)
    if np.any(np.isinf(deadline)):
        return math.inf
    z = _std_normal_quantile(epsilon)
    ramp = np.where(arrays.std == 0.0, arrays.mean, arrays.mean + arrays.std * z)
    return float(np.max(
        message.publish_time + deadline - arrays.nn * pd - message.size_kb * ramp
    ))


def reference_deadlines(arrays: RowArrays, message: Message) -> np.ndarray:
    if message.deadline_ms is None:
        return arrays.deadline
    return np.minimum(arrays.deadline, message.deadline_ms)


def reference_expired(arrays, message, now) -> bool:
    return not bool(np.any(message.hdl(now) <= reference_deadlines(arrays, message)))


def reference_expired_horizon(arrays, message) -> float:
    deadline = reference_deadlines(arrays, message)
    if np.any(np.isinf(deadline)):
        return math.inf
    return float(np.max(message.publish_time + deadline))


# --------------------------------------------------------------------- #
# Inputs: row counts on both sides of 16 (where BLAS ``ddot`` changes
# kernel) and of SMALL_ROWS (where the plan changes form), sigma = 0
# rows, inf deadlines, a message deadline below / among / above the row
# deadlines (or none).
# --------------------------------------------------------------------- #
ROW_COUNTS = (1, 2, 16, 17, SMALL_ROWS, SMALL_ROWS + 1, 128)


def random_arrays(
    n: int, seed: int, degenerate: bool = False, unbounded: bool = False
) -> RowArrays:
    rng = np.random.default_rng(seed)
    std = rng.uniform(0.5, 120.0, n)
    deadline = rng.uniform(1_000.0, 90_000.0, n)
    if degenerate:  # ~30 % of the rows, at least one
        std[(rng.random(n) < 0.3) | (np.arange(n) == 0)] = 0.0
    if unbounded:
        deadline[(rng.random(n) < 0.3) | (np.arange(n) == n - 1)] = np.inf
    return RowArrays(
        nn=rng.integers(0, 7, n).astype(np.float64),
        mean=rng.uniform(10.0, 400.0, n),
        std=std,
        deadline=deadline,
        price=rng.uniform(0.0, 10.0, n),
    )


@st.composite
def row_arrays(draw) -> RowArrays:
    n = draw(st.one_of(
        st.just(1), st.integers(2, 16), st.integers(17, SMALL_ROWS),
        st.just(SMALL_ROWS + 1), st.just(128),
    ))
    return random_arrays(
        n, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), draw(st.booleans())
    )


messages = st.builds(
    make_message,
    publish_time=st.floats(0.0, 50_000.0),
    size_kb=st.floats(0.5, 200.0),
    deadline_ms=st.one_of(
        st.none(), st.floats(100.0, 999.0), st.floats(1_000.0, 90_000.0),
        st.floats(100_000.0, 1e6),
    ),
)

clock = dict(
    age=st.floats(0.0, 120_000.0),
    pd=st.floats(0.0, 25.0),
    ft=st.floats(0.0, 20_000.0),
)


def entry_of(
    arrays: RowArrays, message: Message, entry_type: type = QueueEntry
) -> QueueEntry:
    # ``rows`` is only measured for length here; the plan reads ``arrays``.
    return entry_type(message, [None] * len(arrays), 0.0, 0, arrays=arrays)


def assert_plan_matches_references(arrays, message, now, pd, ft) -> None:
    """Every reader of both plan forms equals the frozen kernels."""
    eb = reference_eb(arrays, message, now, pd)
    eb_postponed = reference_eb(arrays, message, now, pd, ft)
    probs = reference_success(arrays, message, now, pd)
    small = ScorePlan(arrays, message, pd)
    array_form = ScorePlan(arrays, message, pd, small_rows=0)
    assert array_form.small is None
    assert (small.small is not None) == (small.dense and len(arrays) <= SMALL_ROWS)
    for plan in (small, array_form):
        assert plan.success(now).tolist() == probs.tolist()
        assert plan.success(now, ft).tolist() == reference_success(
            arrays, message, now, pd, ft
        ).tolist()
        assert plan.expected_benefit(now) == eb
        assert plan.expected_benefit(now, ft) == eb_postponed
        assert plan.eb_pair(now, ft) == (eb, eb_postponed)
        assert plan.max_success(now) == float(probs.max())


def assert_entry_readers_match_references(arrays, message, now, pd) -> None:
    """Pruning's readers equal the frozen kernels on both entry types."""
    epsilon = 5e-4
    hopeless = float(reference_success(arrays, message, now, pd).max()) < epsilon
    for entry_type in (QueueEntry, ReferenceEntry):
        entry = entry_of(arrays, message, entry_type)
        assert entry_is_hopeless(entry, now, pd, epsilon) == hopeless
        assert prune_horizon(
            entry, pd, PruningPolicy.PROBABILISTIC, epsilon
        ) == reference_horizon(arrays, message, pd, epsilon)
        assert entry_is_expired(entry, now) == reference_expired(arrays, message, now)
        assert prune_horizon(
            entry, pd, PruningPolicy.EXPIRED
        ) == reference_expired_horizon(arrays, message)


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize(
    ("degenerate", "unbounded"), [(False, False), (True, False), (False, True)]
)
def test_every_reader_on_both_sides_of_the_thresholds(n, degenerate, unbounded):
    """Deterministic coverage of each form, whatever hypothesis draws."""
    arrays = random_arrays(n, 1000 + n, degenerate, unbounded)
    plan = ScorePlan(arrays, make_message(), 2.0)
    assert (plan.small is not None) == (
        n <= SMALL_ROWS and not degenerate and not unbounded
    )
    for publish_time, deadline_ms in [(0.0, None), (3_000.0, 40_000.0), (0.0, 500.0)]:
        message = make_message(publish_time=publish_time, deadline_ms=deadline_ms)
        for age in (0.0, 900.0, 20_000.0, 60_000.0, 200_000.0):
            now = publish_time + age
            # Off-grid PD and FT make each reordering of the subtractions
            # round differently somewhere.
            for pd, ft in [(2.0, 1_500.0), (2.3, 1_234.567), (7.77, 333.3)]:
                assert_plan_matches_references(arrays, message, now, pd, ft)
                assert_entry_readers_match_references(arrays, message, now, pd)


@given(arrays=row_arrays(), message=messages, **clock)
@settings(max_examples=300, deadline=None)
def test_plan_is_bit_identical_to_the_per_call_kernels(arrays, message, age, pd, ft):
    now = message.publish_time + age
    assert_plan_matches_references(arrays, message, now, pd, ft)
    eb = reference_eb(arrays, message, now, pd)
    eb_postponed = reference_eb(arrays, message, now, pd, ft)
    probs = reference_success(arrays, message, now, pd)
    # A fresh plan per read gives the same bits as one plan read thrice.
    assert ScorePlan(arrays, message, pd).expected_benefit(now) == eb
    assert ScorePlan(arrays, message, pd).eb_pair(now, ft) == (eb, eb_postponed)
    assert ScorePlan(arrays, message, pd).max_success(now) == float(probs.max())


@given(arrays=row_arrays(), message=messages, **clock, r=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_strategies_and_pruning_read_the_plan_without_moving_a_bit(
    arrays, message, age, pd, ft, r
):
    now = message.publish_time + age
    entry = entry_of(arrays, message)
    ctx = make_ctx(now=now, pd=pd, ft=ft)
    eb = reference_eb(arrays, message, now, pd)
    pc = eb - reference_eb(arrays, message, now, pd, ft)

    assert EbStrategy().score_and_bound(entry, ctx) == (eb, eb)
    assert PcStrategy().score_and_bound(entry, ctx) == (pc, eb)
    assert PcStrategy().score(entry, ctx) == pc
    ebpc = EbpcStrategy(r)
    assert ebpc.score_and_bound(entry, ctx) == (r * eb + (1.0 - r) * pc, eb)
    assert ebpc.score(entry, ctx) == r * eb + (1.0 - r) * pc
    assert_entry_readers_match_references(arrays, message, now, pd)


@given(rows=rows_strategy(), message=messages, **clock)
@settings(max_examples=150, deadline=None)
def test_plan_agrees_with_the_scalar_oracle(rows, message, age, pd, ft):
    now = message.publish_time + age
    plan = ScorePlan(RowArrays.from_rows(rows), message, pd)
    eb, eb_postponed = plan.eb_pair(now, ft)
    assert eb == pytest.approx(expected_benefit(rows, message, now, pd), abs=1e-12)
    assert eb_postponed == pytest.approx(
        expected_benefit(rows, message, now, pd, ft), abs=1e-12
    )


def test_dense_flag_is_a_property_of_the_input():
    rows = [make_row("S1", deadline_ms=30_000.0), make_row("S2", deadline_ms=60_000.0)]
    assert ScorePlan(RowArrays.from_rows(rows), make_message(), 2.0).dense
    unbounded = RowArrays.from_rows(rows + [make_row("S3", deadline_ms=None)])
    assert not ScorePlan(unbounded, make_message(), 2.0).dense
    # ... unless the message's own deadline bounds every pair.
    assert ScorePlan(unbounded, make_message(deadline_ms=5_000.0), 2.0).dense
    degenerate = RowArrays.from_rows(rows + [make_row("S3", variance=0.0)])
    assert not ScorePlan(degenerate, make_message(), 2.0).dense


def test_negative_std_still_raises():
    arrays = RowArrays.from_rows([make_row(), make_row("S2")])
    arrays.std[1] = -1.0
    for small_rows in (SMALL_ROWS, 0):
        with pytest.raises(ValueError, match="std must be non-negative"):
            ScorePlan(arrays, make_message(), 2.0, small_rows)
    entry = entry_of(arrays, make_message())
    with pytest.raises(ValueError, match="std must be non-negative"):
        EbStrategy().score(entry, make_ctx(now=10.0))


def test_entry_caches_one_plan_per_processing_delay():
    entry = entry_of(RowArrays.from_rows([make_row(nn=3)]), make_message())
    plan = entry.plan(2.0)
    assert entry.plan(2.0) is plan
    rebuilt = entry.plan(4.5)
    assert rebuilt is not plan
    assert rebuilt.processing_delay_ms == 4.5
    assert [nn_pd for _, nn_pd, *_ in rebuilt.small] == [13.5]
    assert entry.plan(4.5) is rebuilt
    # A context with another PD must not score through the stale operands.
    arrays, message = entry.arrays, entry.message
    for pd in (2.0, 4.5, 2.0):
        ctx = make_ctx(now=20_000.0, pd=pd)
        assert EbStrategy().score(entry, ctx) == reference_eb(arrays, message, 20_000.0, pd)


def test_reference_stack_never_builds_small_plans():
    from repro.reference import ReferenceBroker

    assert ReferenceBroker.entry_type is ReferenceEntry
    arrays = RowArrays.from_rows([make_row(nn=3)])
    assert entry_of(arrays, make_message()).plan(2.0).small is not None
    assert entry_of(arrays, make_message(), ReferenceEntry).plan(2.0).small is None
