"""EB / PC / EBPC metric tests (Eqs. 3–10), incl. scalar-vs-vector agreement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import ScorePlan, ebpc_value, expected_benefit, postponing_cost
from repro.core.success import success_probability
from repro.pubsub.subscription import RowArrays
from tests.core.helpers import make_message, make_row


def rows_strategy():
    return st.lists(
        st.builds(
            make_row,
            deadline_ms=st.one_of(st.none(), st.floats(1_000, 90_000)),
            price=st.one_of(st.none(), st.floats(0, 10)),
            nn=st.integers(0, 6),
            mean=st.floats(10, 400),
            variance=st.floats(0, 10_000),
        ),
        min_size=1,
        max_size=8,
    )


class TestExpectedBenefit:
    def test_sums_price_weighted_successes(self):
        rows = [
            make_row("S1", deadline_ms=30_000.0, price=3.0),
            make_row("S2", deadline_ms=60_000.0, price=1.0),
        ]
        msg = make_message()
        now = 5_000.0
        expected = 3.0 * success_probability(rows[0], msg, now, 2.0) + 1.0 * success_probability(
            rows[1], msg, now, 2.0
        )
        assert expected_benefit(rows, msg, now, 2.0) == pytest.approx(expected)

    def test_unpriced_rows_count_as_one(self):
        rows = [make_row(price=None, deadline_ms=None)]
        msg = make_message(deadline_ms=None)
        assert expected_benefit(rows, msg, 0.0, 2.0) == 1.0

    @given(rows=rows_strategy(), now=st.floats(0, 100_000))
    @settings(max_examples=150)
    def test_bounds_property(self, rows, now):
        msg = make_message()
        eb = expected_benefit(rows, msg, now, 2.0)
        total_price = sum(r.price if r.price is not None else 1.0 for r in rows)
        assert -1e-9 <= eb <= total_price + 1e-9


class TestPostponingCost:
    def test_positive_for_tight_deadline(self):
        # Deadline close to the expected path delay: postponing must cost.
        rows = [make_row(deadline_ms=6_000.0, nn=1, mean=100.0, variance=400.0)]
        msg = make_message(size_kb=50.0)  # expected propagation 5000 ms
        pc = postponing_cost(rows, msg, 0.0, 2.0, ft_ms=3_750.0)
        assert pc > 0.01

    def test_near_zero_for_slack_deadline(self):
        rows = [make_row(deadline_ms=500_000.0, nn=1, mean=100.0, variance=400.0)]
        msg = make_message()
        pc = postponing_cost(rows, msg, 0.0, 2.0, ft_ms=3_750.0)
        assert pc == pytest.approx(0.0, abs=1e-9)

    def test_near_zero_for_hopeless_message(self):
        rows = [make_row(deadline_ms=1_000.0, nn=3, mean=400.0, variance=100.0)]
        msg = make_message()
        pc = postponing_cost(rows, msg, 0.0, 2.0, ft_ms=3_750.0)
        assert pc == pytest.approx(0.0, abs=1e-6)

    @given(rows=rows_strategy(), now=st.floats(0, 100_000), ft=st.floats(0, 20_000))
    @settings(max_examples=150)
    def test_nonnegative_property(self, rows, now, ft):
        # Postponing can never *help*: success is monotone in extra delay.
        msg = make_message()
        assert postponing_cost(rows, msg, now, 2.0, ft) >= -1e-9

    def test_zero_ft_means_zero_cost(self):
        rows = [make_row()]
        msg = make_message()
        assert postponing_cost(rows, msg, 0.0, 2.0, 0.0) == pytest.approx(0.0)


class TestEbpc:
    def test_endpoints(self):
        assert ebpc_value(eb=4.0, pc=1.0, r=1.0) == 4.0
        assert ebpc_value(eb=4.0, pc=1.0, r=0.0) == 1.0

    def test_midpoint(self):
        assert ebpc_value(eb=4.0, pc=1.0, r=0.5) == 2.5

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            ebpc_value(1.0, 1.0, r=1.5)
        with pytest.raises(ValueError):
            ebpc_value(1.0, 1.0, r=-0.1)


class TestVectorisedAgreement:
    @given(
        rows=rows_strategy(),
        now=st.floats(0, 100_000),
        ft=st.floats(0, 20_000),
        msg_deadline=st.one_of(st.none(), st.floats(1_000, 60_000)),
    )
    @settings(max_examples=200)
    def test_eb_scalar_equals_vec(self, rows, now, ft, msg_deadline):
        msg = make_message(deadline_ms=msg_deadline)
        arrays = RowArrays.from_rows(rows)
        scalar = expected_benefit(rows, msg, now, 2.0, extra_delay_ms=ft)
        vec = ScorePlan(arrays, msg, 2.0).expected_benefit(now, ft)
        assert vec == pytest.approx(scalar, rel=1e-10, abs=1e-10)

    @given(rows=rows_strategy(), now=st.floats(0, 100_000), ft=st.floats(0, 20_000))
    @settings(max_examples=150)
    def test_pc_scalar_equals_vec(self, rows, now, ft):
        msg = make_message()
        arrays = RowArrays.from_rows(rows)
        scalar = postponing_cost(rows, msg, now, 2.0, ft)
        eb, eb_postponed = ScorePlan(arrays, msg, 2.0).eb_pair(now, ft)
        vec = eb - eb_postponed
        assert vec == pytest.approx(scalar, rel=1e-10, abs=1e-10)

    @given(rows=rows_strategy(), now=st.floats(0, 100_000))
    @settings(max_examples=150)
    def test_max_success_matches_scalar_max(self, rows, now):
        msg = make_message()
        arrays = RowArrays.from_rows(rows)
        scalar_max = max(success_probability(r, msg, now, 2.0) for r in rows)
        assert ScorePlan(arrays, msg, 2.0).max_success(now) == pytest.approx(
            scalar_max, rel=1e-10, abs=1e-10
        )

    def test_success_vec_unbounded_rows_are_one(self):
        rows = [make_row(deadline_ms=None)]
        msg = make_message(deadline_ms=None)
        probs = ScorePlan(RowArrays.from_rows(rows), msg, 2.0).success(1e9)
        assert probs.tolist() == [1.0]

    def test_max_success_empty(self):
        msg = make_message()
        assert ScorePlan(RowArrays.from_rows([]), msg, 2.0).max_success(0.0) == 0.0
