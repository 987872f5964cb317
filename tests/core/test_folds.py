"""The block-wise left fold is the one-shot seeded accumulation, bit for
bit, and the fold of runs is the fold of their expansion."""

from __future__ import annotations

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import folds
from repro.core.folds import FOLD_BLOCK, fold_sum, fold_sum_array, fold_sum_runs

# ±inf in the values overflow and cancel on purpose.
pytestmark = pytest.mark.filterwarnings("ignore:.*encountered in accumulate:RuntimeWarning")


def one_shot(values: np.ndarray, start: float) -> float:
    """The fold as a single seeded ``np.add.accumulate`` over a copy of
    the whole input (the form the block-wise fold replaced)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float(start)
    return float(np.add.accumulate(np.concatenate(((float(start),), arr)))[-1])


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


specials = st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), 1e308, -1e-320])
values = st.one_of(st.floats(allow_nan=False, width=64), specials)


@st.composite
def blocked_inputs(draw):
    """A block size, a length at or around its multiples, and values."""
    block = draw(st.integers(1, 8))
    n = draw(st.one_of(
        st.sampled_from([0, 1, block - 1, block, block + 1, 3 * block + 7]),
        st.integers(0, 4 * block + 3),
    ))
    return block, draw(st.lists(values, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(drawn=blocked_inputs(), start=values)
def test_block_wise_fold_is_the_one_shot_accumulation(drawn, start):
    block, xs = drawn
    arr = np.array(xs, dtype=np.float64)
    with mock.patch.object(folds, "FOLD_BLOCK", block):
        got = fold_sum_array(arr, start=start)
    assert bits(got) == bits(one_shot(arr, start))
    assert bits(got) == bits(fold_sum(xs, start=start))


@pytest.mark.parametrize(
    "n", [0, 1, FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_BLOCK + 1, 3 * FOLD_BLOCK + 7]
)
def test_fold_at_the_real_block_size(n):
    rng = np.random.default_rng(n)
    arr = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    for special in (-0.0, float("inf"), float("-inf")):
        if n:
            arr[rng.integers(0, n)] = special
    start = float(rng.standard_normal() * 1e6)
    got = fold_sum_array(arr, start=start)
    assert bits(got) == bits(one_shot(arr, start))
    finite = arr[np.isfinite(arr)]
    assert bits(fold_sum_array(finite, start)) == bits(one_shot(finite, start))


@st.composite
def run_inputs(draw):
    """A block size and runs (value, count) whose counts fall short of,
    fill and straddle blocks, zero counts included."""
    block = draw(st.integers(1, 8))
    runs = draw(st.lists(st.tuples(values, st.integers(0, 3 * block + 1)), max_size=12))
    return block, runs


@settings(max_examples=300, deadline=None)
@given(drawn=run_inputs(), start=values)
def test_run_fold_is_the_fold_of_the_expansion(drawn, start):
    block, runs = drawn
    vals = np.array([v for v, _ in runs], dtype=np.float64)
    counts = np.array([c for _, c in runs], dtype=np.int64)
    with mock.patch.object(folds, "FOLD_BLOCK", block):
        got = fold_sum_runs(vals, counts, start=start)
    assert bits(got) == bits(fold_sum_array(np.repeat(vals, counts), start=start))


def test_run_fold_at_the_real_block_size():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(400) * 10.0 ** rng.integers(-8, 8, 400)
    counts = rng.integers(0, 2_000, 400)
    counts[7] = 3 * FOLD_BLOCK + 5  # one run over several blocks
    assert counts.sum() > 4 * FOLD_BLOCK
    got = fold_sum_runs(vals, counts, start=1.5)
    assert bits(got) == bits(fold_sum_array(np.repeat(vals, counts), start=1.5))


def test_negative_zero_start_survives_an_empty_fold():
    assert bits(fold_sum_array(np.empty(0), start=-0.0)) == bits(-0.0)
    assert bits(fold_sum_array(np.array([-0.0]), start=-0.0)) == bits(-0.0)
    assert bits(fold_sum_runs(np.empty(0), np.empty(0, dtype=np.int64), start=-0.0)) == bits(-0.0)


def test_scratch_is_one_block_not_the_input():
    import tracemalloc

    arr = np.random.default_rng(0).random(8 * FOLD_BLOCK)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fold_sum_array(arr, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (FOLD_BLOCK + 1) + 4096 < arr.nbytes
