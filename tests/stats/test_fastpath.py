"""Differential tests for the vectorised erf (``repro.core.fastpath``).

It must be bit-identical to a per-element ``math.erf`` loop — saturation
cut included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import ERF_SATURATION, erf_array
from repro.stats.normal import normal_cdf, normal_cdf_vec


def erf_loop(z: np.ndarray) -> np.ndarray:
    """The reference: one ``math.erf`` call per element, nothing shared."""
    return np.array([math.erf(v) for v in np.asarray(z, dtype=np.float64).ravel()],
                    dtype=np.float64).reshape(np.shape(z))


def test_saturation_threshold_verified_on_this_platform():
    # The import-time spot checks accepted 6.0 only if this libm's erf
    # rounds to exactly 1.0 there; on any mainstream libm they do.
    assert ERF_SATURATION in (6.0, math.inf)
    if ERF_SATURATION == 6.0:
        assert math.erf(6.0) == 1.0 and math.erf(-6.0) == -1.0


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 0.5, -0.5, 1.0, -1.0],
    [5.999, 6.0, 6.001, -5.999, -6.0, -6.001],      # straddling the cut
    [7.0, 100.0, 1e300, -7.0, -100.0, -1e300],      # fully saturated
    [math.inf, -math.inf],
    [1e-320, -1e-320],                              # subnormals
])
def test_erf_array_bitwise_equals_loop(values):
    z = np.array(values, dtype=np.float64)
    got = erf_array(z)
    want = erf_loop(z)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)


def test_erf_array_nan_passthrough():
    z = np.array([math.nan, 1.0, -math.nan, 8.0])
    got = erf_array(z)
    assert math.isnan(got[0]) and math.isnan(got[2])
    assert got[1] == math.erf(1.0) and got[3] == math.erf(8.0)


def test_erf_array_empty():
    assert erf_array(np.empty(0)).shape == (0,)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=50))
def test_erf_array_matches_loop_hypothesis(values):
    z = np.array(values, dtype=np.float64)
    np.testing.assert_array_equal(erf_array(z), erf_loop(z))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    st.floats(-1e3, 1e3),
    st.floats(0.0, 1e3),
)
def test_normal_cdf_vec_matches_scalar(xs, mean, std):
    x = np.array(xs)
    vec = normal_cdf_vec(x, np.full_like(x, mean), np.full_like(x, std))
    for i, v in enumerate(xs):
        assert vec[i] == normal_cdf(v, mean, std)
