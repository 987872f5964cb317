"""Normal distribution: CDF correctness, path algebra, properties."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.stats.normal import Normal, normal_cdf, normal_cdf_vec, normal_sf


class TestNormalCdf:
    def test_standard_values(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(1.0) == pytest.approx(0.8413447, abs=1e-6)
        assert normal_cdf(-1.96) == pytest.approx(0.0249979, abs=1e-6)

    def test_matches_scipy(self):
        for x in (-3.2, -0.5, 0.0, 0.7, 2.5):
            for mean, std in ((0.0, 1.0), (5.0, 2.0), (-1.0, 0.3)):
                assert normal_cdf(x, mean, std) == pytest.approx(
                    sps.norm.cdf(x, mean, std), abs=1e-12
                )

    def test_degenerate_std_is_step(self):
        assert normal_cdf(1.0, mean=2.0, std=0.0) == 0.0
        assert normal_cdf(2.0, mean=2.0, std=0.0) == 1.0
        assert normal_cdf(3.0, mean=2.0, std=0.0) == 1.0

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            normal_cdf(0.0, 0.0, -1.0)

    def test_sf_complements_cdf(self):
        assert normal_sf(1.3, 0.5, 2.0) == pytest.approx(1.0 - normal_cdf(1.3, 0.5, 2.0))

    @given(
        x=st.floats(-50, 50),
        mean=st.floats(-20, 20),
        std=st.floats(0.01, 30),
    )
    @settings(max_examples=200)
    def test_cdf_in_unit_interval(self, x, mean, std):
        p = normal_cdf(x, mean, std)
        assert 0.0 <= p <= 1.0

    @given(
        mean=st.floats(-20, 20),
        std=st.floats(0.01, 30),
        x1=st.floats(-50, 50),
        x2=st.floats(-50, 50),
    )
    @settings(max_examples=200)
    def test_cdf_monotone(self, mean, std, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        assert normal_cdf(lo, mean, std) <= normal_cdf(hi, mean, std) + 1e-15

    @given(z=st.floats(0, 10), mean=st.floats(-5, 5), std=st.floats(0.01, 10))
    @settings(max_examples=100)
    def test_cdf_symmetry(self, z, mean, std):
        # P(X <= mean - z*std) == P(X > mean + z*std)
        left = normal_cdf(mean - z * std, mean, std)
        right = 1.0 - normal_cdf(mean + z * std, mean, std)
        assert left == pytest.approx(right, abs=1e-12)


class TestNormalCdfVec:
    def test_matches_scalar(self, rng):
        x = rng.uniform(-10, 10, size=50)
        mean = rng.uniform(-5, 5, size=50)
        std = rng.uniform(0.1, 5, size=50)
        vec = normal_cdf_vec(x, mean, std)
        for i in range(50):
            assert vec[i] == pytest.approx(normal_cdf(x[i], mean[i], std[i]), abs=1e-12)

    def test_degenerate_entries(self):
        out = normal_cdf_vec(
            np.array([1.0, 2.0, 3.0]),
            np.array([2.0, 2.0, 2.0]),
            np.array([0.0, 0.0, 0.0]),
        )
        assert out.tolist() == [0.0, 1.0, 1.0]

    def test_broadcasting(self):
        out = normal_cdf_vec(np.array([0.0, 1.0]), np.array(0.0), np.array(1.0))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(0.5)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            normal_cdf_vec(np.array([0.0]), np.array([0.0]), np.array([-1.0]))


class TestNormalAlgebra:
    def test_sum_of_independents(self):
        a, b = Normal(3.0, 4.0), Normal(5.0, 9.0)
        c = a + b
        assert c.mean == 8.0
        assert c.variance == 13.0

    def test_add_scalar_shift(self):
        shifted = Normal(3.0, 4.0) + 2.0
        assert shifted.mean == 5.0
        assert shifted.variance == 4.0

    def test_radd(self):
        shifted = 2.0 + Normal(3.0, 4.0)
        assert shifted.mean == 5.0

    def test_scale(self):
        scaled = Normal(3.0, 4.0).scale(10.0)
        assert scaled.mean == 30.0
        assert scaled.variance == 400.0
        assert scaled.std == pytest.approx(20.0)

    def test_sum_static(self):
        parts = [Normal(1.0, 1.0), Normal(2.0, 2.0), Normal(3.0, 3.0)]
        total = Normal.sum(parts)
        assert total.mean == 6.0
        assert total.variance == 6.0

    def test_empty_sum_is_degenerate_zero(self):
        z = Normal.sum([])
        assert z.mean == 0.0 and z.variance == 0.0
        assert z.cdf(0.0) == 1.0

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            Normal(0.0, -1.0)

    def test_nan_variance_rejected(self):
        with pytest.raises(ValueError, match="variance must be non-negative"):
            Normal(0.0, math.nan)

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            Normal(math.nan, 1.0)

    @given(
        m1=st.floats(-100, 100), v1=st.floats(0, 100),
        m2=st.floats(-100, 100), v2=st.floats(0, 100),
        k=st.floats(-10, 10),
    )
    @settings(max_examples=200)
    def test_algebra_properties(self, m1, v1, m2, v2, k):
        a, b = Normal(m1, v1), Normal(m2, v2)
        s = a + b
        assert s.mean == pytest.approx(m1 + m2)
        assert s.variance == pytest.approx(v1 + v2)
        sc = a.scale(k)
        assert sc.variance == pytest.approx(k * k * v1, rel=1e-9, abs=1e-12)


class TestQuantile:
    def test_median(self):
        assert Normal(5.0, 4.0).quantile(0.5) == pytest.approx(5.0, abs=1e-6)

    def test_matches_scipy(self):
        d = Normal(10.0, 9.0)
        for q in (0.05, 0.25, 0.75, 0.99):
            assert d.quantile(q) == pytest.approx(sps.norm.ppf(q, 10.0, 3.0), abs=1e-6)

    def test_degenerate(self):
        assert Normal(5.0, 0.0).quantile(0.3) == 5.0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            Normal(0.0, 1.0).quantile(1.0)

    def test_roundtrip_with_cdf(self):
        d = Normal(-2.0, 2.5)
        for q in (0.1, 0.5, 0.9):
            assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-9)


class TestSampling:
    def test_sample_moments(self, rng):
        d = Normal(7.0, 4.0)
        xs = d.sample(rng, size=200_000)
        assert xs.mean() == pytest.approx(7.0, abs=0.05)
        assert xs.std() == pytest.approx(2.0, abs=0.05)
