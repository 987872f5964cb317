"""Class-form score plans: a dense entry of more than ``SMALL_ROWS`` rows
whose rows share at most ``SMALL_ROWS`` distinct operand classes
evaluates ``erf`` once per class and expands the probabilities by
``take``.  Every reader must equal the array form of the same rows
(``small_rows=0``) **bit for bit**; σ = 0 or unbounded classes, and more
than ``SMALL_ROWS`` classes, fall back to the array form.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import SMALL_ROWS, ScorePlan
from repro.core.pruning import _std_normal_quantile
from repro.core.strategies import QueueEntry
from repro.pubsub.subscription import OperandClasses, RowArrays, SubscriptionTable
from repro.reference import ReferenceEntry
from tests.core.helpers import block_of, make_message, make_row
from tests.core.test_score_plan import clock, messages

TIERS = ((10_000.0, 3.0), (30_000.0, 2.0), (60_000.0, 1.0))


def random_classes(
    n: int, k: int, seed: int, degenerate: bool = False, unbounded: bool = False
) -> OperandClasses:
    """``n`` rows over ``k`` classes, each class held by at least one row."""
    rng = np.random.default_rng(seed)
    ops = np.empty((5, k))
    ops[0] = rng.integers(0, 7, k)
    ops[1] = rng.uniform(10.0, 400.0, k)
    ops[2] = rng.uniform(0.5, 120.0, k)
    ops[3] = rng.uniform(1_000.0, 90_000.0, k)
    ops[4] = rng.uniform(0.0, 10.0, k)
    if degenerate:
        ops[2, rng.integers(k)] = 0.0
    if unbounded:
        ops[3, rng.integers(k)] = math.inf
    inv = rng.permutation(np.concatenate((np.arange(k), rng.integers(0, k, n - k))))
    return OperandClasses(ops, inv, ops[4].take(inv))


def bits(x: float) -> str:
    return float(x).hex()


def assert_class_form_equals_array_form(classes, message, now, pd, ft) -> ScorePlan:
    plan = ScorePlan(classes, message, pd)
    array_form = ScorePlan(classes.expand(), message, pd, small_rows=0)
    assert array_form.small is None
    for extra in (0.0, ft):
        assert plan.success(now, extra).tobytes() == array_form.success(now, extra).tobytes()
        assert bits(plan.expected_benefit(now, extra)) == bits(
            array_form.expected_benefit(now, extra)
        )
    assert list(map(bits, plan.eb_pair(now, ft))) == list(map(bits, array_form.eb_pair(now, ft)))
    assert bits(plan.max_success(now)) == bits(array_form.max_success(now))
    z = _std_normal_quantile(5e-4)
    assert bits(plan.hopeless_horizon(z)) == bits(array_form.hopeless_horizon(z))
    return plan


@st.composite
def dense_classes(draw) -> OperandClasses:
    n = draw(st.integers(SMALL_ROWS + 1, 400))
    k = draw(st.integers(1, SMALL_ROWS))
    return random_classes(n, k, draw(st.integers(0, 2**32 - 1)))


@given(classes=dense_classes(), message=messages, **clock)
@settings(max_examples=300, deadline=None)
def test_class_form_is_bit_identical_to_the_array_form(classes, message, age, pd, ft):
    plan = assert_class_form_equals_array_form(
        classes, message, message.publish_time + age, pd, ft
    )
    assert plan.inv is not None
    assert len(plan.small) == classes.ops.shape[1]


@pytest.mark.parametrize("n", [SMALL_ROWS + 1, SMALL_ROWS + 2, 219, 400])
@pytest.mark.parametrize("k", [1, 8, SMALL_ROWS])
def test_class_form_at_fixed_sizes(n, k):
    classes = random_classes(n, k, 7 * n + k)
    for publish_time, deadline_ms in [(0.0, None), (3_000.0, 40_000.0), (0.0, 500.0)]:
        message = make_message(publish_time=publish_time, deadline_ms=deadline_ms)
        for age in (0.0, 900.0, 20_000.0, 200_000.0):
            for pd, ft in [(2.0, 1_500.0), (2.3, 1_234.567)]:
                plan = assert_class_form_equals_array_form(
                    classes, message, publish_time + age, pd, ft
                )
                assert plan.inv is not None


@given(n=st.integers(1, SMALL_ROWS), seed=st.integers(0, 2**32 - 1), message=messages, **clock)
@settings(max_examples=150, deadline=None)
def test_rows_own_columns_take_the_small_form(n, seed, message, age, pd, ft):
    """A group of at most ``SMALL_ROWS`` rows hands over its rows'
    operands as columns (no ``inv``): the small form, per row."""
    classes = random_classes(n, n, seed)
    by_row = OperandClasses(classes.ops.take(classes.inv, axis=1), None, classes.price)
    plan = assert_class_form_equals_array_form(
        by_row, message, message.publish_time + age, pd, ft
    )
    assert plan.small is not None and plan.inv is None and len(plan.small) == n


@pytest.mark.parametrize(
    ("k", "degenerate", "unbounded"),
    [(8, True, False), (8, False, True), (SMALL_ROWS + 1, False, False), (64, False, False)],
)
def test_non_dense_or_many_classes_take_the_array_form(k, degenerate, unbounded):
    classes = random_classes(219, k, k, degenerate, unbounded)
    for deadline_ms in (None, 40_000.0):
        message = make_message(deadline_ms=deadline_ms)
        plan = assert_class_form_equals_array_form(classes, message, 9_000.0, 2.0, 1_500.0)
        # A message deadline bounds every pair, so only σ = 0 or a class
        # count above SMALL_ROWS keeps such an entry off the class form.
        dense_again = unbounded and deadline_ms is not None
        assert (plan.inv is not None) == dense_again


def _table_entry(subscribers: int, routes: int, entry_type=QueueEntry) -> QueueEntry:
    """One remote group over ``subscribers`` rows on ``routes`` distinct
    paths and three deadline/price tiers."""
    table = SubscriptionTable()
    rows = [
        make_row(
            f"S{i:04d}", *TIERS[i % 3], nn=1 + i % routes % 5,
            mean=50.0 + 7.0 * (i % routes), variance=100.0 + i % routes,
        )
        for i in range(subscribers)
    ]
    table.install_many(block_of(table, rows))
    _, remote = table.match_grouped(make_message())
    (group,) = remote.values()
    return entry_type(make_message(), group, 0.0, 0)


def test_a_table_group_scores_its_classes_without_a_gather():
    entry = _table_entry(219, routes=4)  # 4 paths x 3 tiers = 12 classes
    reference = _table_entry(219, routes=4, entry_type=ReferenceEntry)
    plan, array_form = entry.plan(2.0), reference.plan(2.0)
    assert plan.inv is not None and len(plan.small) == 12
    assert array_form.small is None
    for now in (0.0, 5_000.0, 25_000.0):
        assert bits(plan.expected_benefit(now)) == bits(array_form.expected_benefit(now))
        assert list(map(bits, plan.eb_pair(now, 1_500.0))) == list(
            map(bits, array_form.eb_pair(now, 1_500.0))
        )
        assert bits(plan.max_success(now)) == bits(array_form.max_success(now))
    assert entry._arrays is None and entry._rows._arrays is None


def test_a_group_of_many_classes_is_gathered():
    entry = _table_entry(219, routes=40)  # 40 paths x 3 tiers > SMALL_ROWS
    assert entry._rows.classes(SMALL_ROWS) is None
    assert entry.plan(2.0).inv is None
    assert entry._arrays is not None


def test_group_columns_through_classes_equal_the_rows():
    entry = _table_entry(219, routes=7)
    group = entry._rows
    expected = RowArrays.from_rows(group.rows)
    classes = group.classes(SMALL_ROWS)
    for got in (group.arrays, classes.expand()):
        for name in ("nn", "mean", "std", "deadline", "price"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
    assert group.deadline.tobytes() == expected.deadline.tobytes()
    assert group.price.tobytes() == expected.price.tobytes()
    assert group.first_row() == [
        float(getattr(expected, name)[0]) for name in ("nn", "mean", "std", "deadline", "price")
    ]
    # Each class is held by some row of the group, and only once.
    assert sorted(set(classes.inv.tolist())) == list(range(classes.ops.shape[1]))
    assert len({tuple(col) for col in classes.ops.T.tolist()}) == classes.ops.shape[1]


def test_as_many_tiers_as_rows_compacts_to_the_same_columns():
    """Eight paths and a deadline per subscriber: the class-key span
    (8 x 2 000) outgrows the rows, and the mask still numbers one class
    per row with the columns the rows' own."""
    table = SubscriptionTable()
    rows = [
        make_row(f"S{i:04d}", 10_000.0 + i, 1.0 + i % 3, nn=1 + i % 8, mean=40.0 + i % 8)
        for i in range(2_000)
    ]
    table.install_many(block_of(table, rows))
    table._compile()
    assert table._c_cols[0].shape[1] == 2_000
    _, remote = table.match_grouped(make_message())
    (group,) = remote.values()
    expected = RowArrays.from_rows(group.rows)
    for name in ("nn", "mean", "std", "deadline", "price"):
        assert getattr(group.arrays, name).tobytes() == getattr(expected, name).tobytes()


def test_compiles_across_churn_keep_the_columns_of_the_rows():
    """Routes interned over several compiles, tiers added after routes
    were interned, operands shared by a fresh route, rows freed and their
    ids reused: after every compile each group's columns are its rows'."""
    table = SubscriptionTable()

    def check() -> None:
        local, remote = table.match_grouped(make_message())
        assert not len(local)
        for group in remote.values():
            expected = RowArrays.from_rows(group.rows)
            classes = group.classes(SMALL_ROWS)
            assert classes.inv is not None  # more rows than SMALL_ROWS, few classes
            for got in (group.arrays, classes.expand()):
                for name in ("nn", "mean", "std", "deadline", "price"):
                    assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
            assert group.first_row() == [
                float(getattr(expected, name)[0])
                for name in ("nn", "mean", "std", "deadline", "price")
            ]

    waves = [
        [make_row(f"A{i:03d}", *TIERS[i % 2], nn=1 + i % 3, mean=40.0 + i % 3) for i in range(60)],
        # A new tier, and fresh routes whose operands repeat earlier ones.
        [make_row(f"B{i:03d}", *TIERS[2], nn=1 + i % 3, mean=40.0 + i % 3) for i in range(40)],
        # New route operands and yet another tier (unspecified deadline).
        [make_row(f"C{i:03d}", None, 5.0, nn=4, mean=90.0, variance=9.0) for i in range(30)],
    ]
    for wave in waves:
        table.install_many(block_of(table, wave))
        check()
        table.uninstall_many([row.subscriber for row in wave[::4]])
        check()
    assert table.index.tiers().shape[1] == 4
