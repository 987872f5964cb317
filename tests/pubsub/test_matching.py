"""Matching engine tests: counting index and vector matcher vs oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub.filters import AndFilter, OrFilter, Predicate, conjunction_predicates
from repro.pubsub.matching import (
    MATCHER_BACKENDS,
    BruteForceMatcher,
    CountingIndexMatcher,
    PredicateColumns,
    VectorCountingMatcher,
    make_matcher,
)


def predicates():
    return st.builds(
        Predicate,
        attribute=st.sampled_from(["A", "B", "C"]),
        op=st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        value=st.floats(-5, 5, allow_nan=False),
    )


def conjunctions():
    return st.lists(predicates(), min_size=1, max_size=3).map(
        lambda ps: ps[0] if len(ps) == 1 else AndFilter(ps)
    )


def any_filters():
    """Conjunctions plus the vector matcher's special cases: match-all
    (empty conjunction) and non-conjunctive fallback (disjunctions)."""
    return st.one_of(
        conjunctions(),
        st.just(AndFilter([])),
        st.lists(predicates(), min_size=1, max_size=2).map(OrFilter),
    )


def attributes():
    return st.dictionaries(
        st.sampled_from(["A", "B", "C"]), st.floats(-5, 5, allow_nan=False), max_size=3
    )


class TestBruteForce:
    def test_basic_match(self):
        m = BruteForceMatcher()
        m.add("s1", Predicate("A", "<", 5.0))
        m.add("s2", Predicate("A", ">", 5.0))
        assert m.match({"A": 3.0}) == {"s1"}
        assert len(m) == 2

    def test_duplicate_key_rejected(self):
        m = BruteForceMatcher()
        m.add("s1", Predicate("A", "<", 5.0))
        with pytest.raises(KeyError):
            m.add("s1", Predicate("A", ">", 5.0))

    def test_remove(self):
        m = BruteForceMatcher()
        m.add("s1", Predicate("A", "<", 5.0))
        m.remove("s1")
        assert m.match({"A": 3.0}) == set()
        assert len(m) == 0


class TestCountingIndex:
    def test_conjunction_requires_all_predicates(self):
        m = CountingIndexMatcher()
        m.add("s1", AndFilter([Predicate("A", "<", 5.0), Predicate("B", "<", 5.0)]))
        assert m.match({"A": 3.0, "B": 3.0}) == {"s1"}
        assert m.match({"A": 3.0, "B": 7.0}) == set()
        assert m.match({"A": 3.0}) == set()  # missing attribute

    def test_shared_thresholds(self):
        m = CountingIndexMatcher()
        m.add("s1", Predicate("A", "<", 5.0))
        m.add("s2", Predicate("A", "<", 5.0))
        m.add("s3", Predicate("A", "<", 2.0))
        assert m.match({"A": 3.0}) == {"s1", "s2"}
        assert m.match({"A": 1.0}) == {"s1", "s2", "s3"}

    def test_all_operators(self):
        m = CountingIndexMatcher()
        m.add("lt", Predicate("A", "<", 5.0))
        m.add("le", Predicate("A", "<=", 5.0))
        m.add("gt", Predicate("A", ">", 5.0))
        m.add("ge", Predicate("A", ">=", 5.0))
        m.add("eq", Predicate("A", "==", 5.0))
        m.add("ne", Predicate("A", "!=", 5.0))
        assert m.match({"A": 5.0}) == {"le", "ge", "eq"}
        assert m.match({"A": 4.0}) == {"lt", "le", "ne"}
        assert m.match({"A": 6.0}) == {"gt", "ge", "ne"}

    def test_match_all_conjunction(self):
        m = CountingIndexMatcher()
        m.add("s1", AndFilter([]))
        assert m.match({"A": 1.0}) == {"s1"}
        assert m.match({}) == {"s1"}

    def test_non_conjunctive_falls_back(self):
        m = CountingIndexMatcher()
        m.add("s1", OrFilter([Predicate("A", "<", 1.0), Predicate("B", ">", 9.0)]))
        assert m.match({"A": 0.5, "B": 0.0}) == {"s1"}
        assert m.match({"A": 5.0, "B": 9.5}) == {"s1"}
        assert m.match({"A": 5.0, "B": 5.0}) == set()
        assert len(m) == 1

    def test_remove_indexed(self):
        m = CountingIndexMatcher()
        f = AndFilter([Predicate("A", "<", 5.0), Predicate("B", "<", 5.0)])
        m.add("s1", f)
        m.remove("s1")
        assert m.match({"A": 1.0, "B": 1.0}) == set()
        assert len(m) == 0

    def test_remove_fallback(self):
        m = CountingIndexMatcher()
        m.add("s1", OrFilter([Predicate("A", "<", 1.0)]))
        m.remove("s1")
        assert len(m) == 0

    def test_duplicate_key_rejected(self):
        m = CountingIndexMatcher()
        m.add("s1", Predicate("A", "<", 5.0))
        with pytest.raises(KeyError):
            m.add("s1", Predicate("B", "<", 5.0))

    def test_duplicate_key_in_fallback_rejected(self):
        m = CountingIndexMatcher()
        m.add("s1", OrFilter([Predicate("A", "<", 1.0), Predicate("B", ">", 9.0)]))
        with pytest.raises(KeyError):
            m.add("s1", Predicate("B", "<", 5.0))

    def test_duplicate_threshold_same_attr(self):
        m = CountingIndexMatcher()
        m.add("s1", Predicate("A", "<", 5.0))
        m.add("s2", Predicate("A", "<", 5.0))
        m.remove("s1")
        assert m.match({"A": 1.0}) == {"s2"}


@given(
    filters=st.lists(conjunctions(), min_size=1, max_size=12),
    attrs=st.dictionaries(
        st.sampled_from(["A", "B", "C"]), st.floats(-5, 5, allow_nan=False), max_size=3
    ),
)
@settings(max_examples=300)
def test_counting_index_agrees_with_brute_force(filters, attrs):
    brute = BruteForceMatcher()
    index = CountingIndexMatcher()
    for i, f in enumerate(filters):
        brute.add(i, f)
        index.add(i, f)
    assert index.match(attrs) == brute.match(attrs)


@given(
    filters=st.lists(conjunctions(), min_size=2, max_size=10),
    attrs=st.dictionaries(
        st.sampled_from(["A", "B", "C"]), st.floats(-5, 5, allow_nan=False), max_size=3
    ),
    remove_idx=st.integers(0, 1),
)
@settings(max_examples=150)
def test_counting_index_agrees_after_removal(filters, attrs, remove_idx):
    brute = BruteForceMatcher()
    index = CountingIndexMatcher()
    for i, f in enumerate(filters):
        brute.add(i, f)
        index.add(i, f)
    brute.remove(remove_idx)
    index.remove(remove_idx)
    assert index.match(attrs) == brute.match(attrs)


class TestAddMany:
    def test_bulk_equals_incremental(self):
        filters = [
            ("s1", Predicate("A", "<", 5.0)),
            ("s2", AndFilter([Predicate("A", "<", 5.0), Predicate("B", ">", 1.0)])),
            ("s3", Predicate("A", "<", 5.0)),  # shared threshold
            ("s4", OrFilter([Predicate("C", ">", 0.0)])),  # fallback
            ("s5", AndFilter([])),  # match-all
        ]
        incremental = CountingIndexMatcher()
        for key, f in filters:
            incremental.add(key, f)
        bulk = CountingIndexMatcher()
        bulk.add_many(filters)
        for attrs in ({"A": 3.0, "B": 2.0}, {"A": 6.0}, {"C": 1.0}, {}):
            assert bulk.match(attrs) == incremental.match(attrs)
        assert len(bulk) == len(incremental)

    def test_bulk_into_populated_index(self):
        m = CountingIndexMatcher()
        m.add("s1", Predicate("A", "<", 5.0))
        m.add_many([("s2", Predicate("A", "<", 3.0)), ("s3", Predicate("A", "<", 5.0))])
        assert m.match({"A": 1.0}) == {"s1", "s2", "s3"}
        assert m.match({"A": 4.0}) == {"s1", "s3"}

    def test_bulk_then_remove(self):
        m = CountingIndexMatcher()
        m.add_many([("s1", Predicate("A", "<", 5.0)), ("s2", Predicate("A", "<", 5.0))])
        m.remove("s1")
        assert m.match({"A": 1.0}) == {"s2"}

    def test_duplicate_within_batch_rejected(self):
        m = CountingIndexMatcher()
        with pytest.raises(KeyError):
            m.add_many([("s1", Predicate("A", "<", 5.0)), ("s1", Predicate("B", "<", 5.0))])

    def test_duplicate_against_existing_rejected(self):
        m = CountingIndexMatcher()
        m.add("s1", Predicate("A", "<", 5.0))
        with pytest.raises(KeyError):
            m.add_many([("s1", Predicate("B", "<", 5.0))])
        m2 = CountingIndexMatcher()
        m2.add("f1", OrFilter([Predicate("A", "<", 1.0)]))
        with pytest.raises(KeyError):
            m2.add_many([("f1", Predicate("B", "<", 5.0))])


@given(
    first=st.lists(conjunctions(), min_size=0, max_size=6),
    second=st.lists(conjunctions(), min_size=0, max_size=6),
    attrs=st.dictionaries(
        st.sampled_from(["A", "B", "C"]), st.floats(-5, 5, allow_nan=False), max_size=3
    ),
)
@settings(max_examples=200)
def test_add_many_agrees_with_incremental_adds(first, second, attrs):
    """Bulk-build over a (possibly non-empty) index == sequential adds."""
    incremental = CountingIndexMatcher()
    bulk = CountingIndexMatcher()
    for i, f in enumerate(first):
        incremental.add(("a", i), f)
        bulk.add(("a", i), f)
    for i, f in enumerate(second):
        incremental.add(("b", i), f)
    bulk.add_many([(("b", i), f) for i, f in enumerate(second)])
    assert bulk.match(attrs) == incremental.match(attrs)
    assert len(bulk) == len(incremental)


# ---------------------------------------------------------------------- #
# VectorCountingMatcher: unit behaviour + three-way differential suite.
# ---------------------------------------------------------------------- #
class TestVectorCountingMatcher:
    def test_all_operators(self):
        m = VectorCountingMatcher()
        m.add("lt", Predicate("A", "<", 5.0))
        m.add("le", Predicate("A", "<=", 5.0))
        m.add("gt", Predicate("A", ">", 5.0))
        m.add("ge", Predicate("A", ">=", 5.0))
        m.add("eq", Predicate("A", "==", 5.0))
        m.add("ne", Predicate("A", "!=", 5.0))
        assert m.match({"A": 5.0}) == {"le", "ge", "eq"}
        assert m.match({"A": 4.0}) == {"lt", "le", "ne"}
        assert m.match({"A": 6.0}) == {"gt", "ge", "ne"}

    def test_conjunction_requires_all_predicates(self):
        m = VectorCountingMatcher()
        m.add("s1", AndFilter([Predicate("A", "<", 5.0), Predicate("B", "<", 5.0)]))
        assert m.match({"A": 3.0, "B": 3.0}) == {"s1"}
        assert m.match({"A": 3.0, "B": 7.0}) == set()
        assert m.match({"A": 3.0}) == set()  # missing attribute

    def test_repeated_attribute_in_one_conjunction(self):
        m = VectorCountingMatcher()
        m.add("s1", AndFilter([Predicate("A", "<", 5.0), Predicate("A", "<", 3.0)]))
        assert m.match({"A": 2.0}) == {"s1"}
        assert m.match({"A": 4.0}) == set()

    def test_match_all_and_fallback(self):
        m = VectorCountingMatcher()
        m.add("all", AndFilter([]))
        m.add("or", OrFilter([Predicate("A", "<", 1.0), Predicate("B", ">", 9.0)]))
        assert m.match({}) == {"all"}
        assert m.match({"A": 0.0, "B": 0.0}) == {"all", "or"}
        assert len(m) == 2

    def test_remove_and_readd(self):
        m = VectorCountingMatcher()
        m.add("s1", Predicate("A", "<", 5.0))
        m.add("s2", Predicate("A", "<", 5.0))
        m.remove("s1")
        assert m.match({"A": 1.0}) == {"s2"}
        m.add("s1", Predicate("A", ">", 0.0))
        assert m.match({"A": 1.0}) == {"s1", "s2"}
        assert len(m) == 2

    def test_mass_removal_triggers_compaction(self):
        """Tombstoned ids are purged once they outnumber live entries,
        and matching stays correct before, across and after the purge."""
        m = VectorCountingMatcher()
        for i in range(40):
            m.add(i, AndFilter([Predicate("A", "<", float(i)), Predicate("B", ">", -1.0)]))
        for i in range(35):
            assert m.match({"A": -1.0, "B": 0.0}) == set(range(i, 40))
            m.remove(i)
        assert m.match({"A": -1.0, "B": 0.0}) == {35, 36, 37, 38, 39}
        assert m._dead_entries * 2 <= m._total_entries  # compaction ran
        assert len(m) == 5
        # The id space is compacted too: it tracks live keys, not the 40
        # cumulative installs.
        assert len(m._keys) <= 2 * len(m)

    def test_remove_many_across_the_purge_threshold(self):
        """One batch that takes the tombstones past the live entries is
        purged once, at its end, and matches what per-call removal (which
        purges part-way through) matches."""
        filters = [
            AndFilter([Predicate("A", "<", float(i)), Predicate("B", ">", -1.0)])
            for i in range(40)
        ]
        batched, per_call = VectorCountingMatcher(), VectorCountingMatcher()
        batched.add_many(list(enumerate(filters)))
        for item in enumerate(filters):
            per_call.add(*item)
        batched.remove_many(range(35))
        for i in range(35):
            per_call.remove(i)
        assert batched._dead_entries == 0 and len(batched._keys) == 5
        batched.add(7, filters[7])
        per_call.add(7, filters[7])
        for probe in ({"A": -1.0, "B": 0.0}, {"A": 36.5, "B": 0.0}, {"A": 0.0}):
            assert batched.match(probe) == per_call.match(probe)
            assert sorted(batched.match_array(probe).tolist()) == sorted(batched.match(probe))
        assert len(batched) == len(per_call) == 6

    def test_remove_many_validates_before_removing(self):
        m = VectorCountingMatcher()
        m.add_many([(0, Predicate("A", "<", 5.0)), (1, OrFilter([Predicate("A", ">", 9.0)]))])
        for bad in ([0, 2], [1, 2], [0, 0]):
            with pytest.raises(KeyError):
                m.remove_many(bad)
            assert len(m) == 2 and m.match({"A": 1.0}) == {0}
        m.remove_many([1, 0])
        assert len(m) == 0 and m.match({"A": 1.0}) == set()

    def test_duplicate_key_rejected(self):
        m = VectorCountingMatcher()
        m.add("s1", Predicate("A", "<", 5.0))
        with pytest.raises(KeyError):
            m.add("s1", Predicate("B", "<", 5.0))
        m.add("f1", OrFilter([Predicate("A", "<", 1.0)]))
        with pytest.raises(KeyError):
            m.add("f1", Predicate("B", "<", 5.0))
        with pytest.raises(KeyError):
            m.add_many([("s2", Predicate("A", "<", 1.0)), ("s2", Predicate("A", ">", 1.0))])

    def test_match_array_with_int_keys(self):
        m = VectorCountingMatcher()
        m.add(0, Predicate("A", "<", 5.0))
        m.add(1, AndFilter([]))
        m.add(2, OrFilter([Predicate("A", ">", 9.0), Predicate("B", "<", 0.0)]))
        got = m.match_array({"A": 3.0})
        assert isinstance(got, np.ndarray)
        assert set(got.tolist()) == {0, 1} == m.match({"A": 3.0})

    def test_make_matcher_backends(self):
        assert isinstance(make_matcher("vector"), VectorCountingMatcher)
        assert isinstance(make_matcher("oracle"), CountingIndexMatcher)
        assert isinstance(make_matcher("brute"), BruteForceMatcher)
        with pytest.raises(ValueError):
            make_matcher("nope")
        assert set(MATCHER_BACKENDS) == {"vector", "oracle", "brute"}


@given(filters=st.lists(any_filters(), min_size=1, max_size=14), attrs=attributes())
@settings(max_examples=300)
def test_vector_matcher_three_way_differential(filters, attrs):
    """vector ≡ oracle counting index ≡ brute force on random tables."""
    brute = BruteForceMatcher()
    index = CountingIndexMatcher()
    vector = VectorCountingMatcher()
    for i, f in enumerate(filters):
        brute.add(i, f)
        index.add(i, f)
        vector.add(i, f)
    expected = brute.match(attrs)
    assert index.match(attrs) == expected
    assert vector.match(attrs) == expected
    assert set(vector.match_array(attrs).tolist()) == expected


@given(
    filters=st.lists(any_filters(), min_size=2, max_size=12),
    attrs=attributes(),
    removals=st.sets(st.integers(0, 11), max_size=6),
    readd=st.booleans(),
)
@settings(max_examples=200)
def test_vector_matcher_differential_under_churn(filters, attrs, removals, readd):
    """Add/remove churn (including re-adds) keeps all three engines equal,
    per call and as ``add_many`` / ``remove_many`` batches."""
    brute = BruteForceMatcher()
    index = CountingIndexMatcher()
    vector = VectorCountingMatcher()
    engines = (brute, index, vector)
    batched = (BruteForceMatcher(), CountingIndexMatcher(), VectorCountingMatcher())
    for i, f in enumerate(filters):
        for e in engines:
            e.add(i, f)
    removed = [i for i in sorted(removals) if i < len(filters)]
    for i in removed:
        for e in engines:
            e.remove(i)
    for e in batched:
        e.add_many(list(enumerate(filters)))
        e.remove_many(removed)
    if readd and removed:
        for e in engines + batched:
            e.add(removed[0], filters[removed[0]])
    expected = brute.match(attrs)
    assert index.match(attrs) == expected
    assert vector.match(attrs) == expected
    assert len(vector) == len(index) == len(brute)
    for e in batched:
        assert e.match(attrs) == expected
        assert len(e) == len(brute)


@given(filters=st.lists(any_filters(), min_size=0, max_size=10), attrs=attributes())
@settings(max_examples=150)
def test_vector_add_many_agrees_with_incremental(filters, attrs):
    incremental = VectorCountingMatcher()
    bulk = VectorCountingMatcher()
    for i, f in enumerate(filters):
        incremental.add(i, f)
    bulk.add_many(list(enumerate(filters)))
    assert bulk.match(attrs) == incremental.match(attrs)
    assert len(bulk) == len(incremental)


def _frozen_predicate_columns(filters):
    """``PredicateColumns.of`` as it was before it derived predicates once
    per distinct filter object: one pass, one append per predicate."""
    counts = np.empty(len(filters), dtype=np.int64)
    raw = {}
    for i, filter_ in enumerate(filters):
        preds = conjunction_predicates(filter_)
        if preds is None:
            counts[i] = -1
            continue
        counts[i] = len(preds)
        for p in preds:
            items, values = raw.setdefault((p.attribute, p.op), ([], []))
            items.append(i)
            values.append(p.value)
    return counts, {
        key: (np.array(items, dtype=np.int64), np.array(values, dtype=np.float64))
        for key, (items, values) in raw.items()
    }


def _assert_columns_equal_frozen(filters):
    got = PredicateColumns.of(filters)
    counts, entries = _frozen_predicate_columns(filters)
    assert got.counts.dtype == counts.dtype and got.counts.tolist() == counts.tolist()
    assert list(got.entries) == list(entries)  # same key order, not just same keys
    for key, (items, values) in entries.items():
        got_items, got_values = got.entries[key]
        assert got_items.dtype == items.dtype and got_items.tolist() == items.tolist()
        assert got_values.dtype == values.dtype and got_values.tolist() == values.tolist()


@given(
    pool=st.lists(any_filters(), min_size=1, max_size=6),
    draws=st.lists(st.integers(0, 5), min_size=0, max_size=40),
)
@settings(max_examples=150)
def test_predicate_columns_of_pooled_filters_equal_the_frozen_loop(pool, draws):
    # The scale populations' shape: many items sharing a few filter objects
    # (equal-but-distinct objects in ``pool`` included).
    _assert_columns_equal_frozen([pool[d % len(pool)] for d in draws])


def test_predicate_columns_keep_two_predicates_on_one_attribute_op():
    band = AndFilter([Predicate("A", "<", 3.0), Predicate("B", ">", 0.0), Predicate("A", "<", 1.0)])
    other = Predicate("A", "<", 2.0)
    filters = [band, OrFilter([other]), other, band, AndFilter([]), band]
    _assert_columns_equal_frozen(filters)
    items, values = PredicateColumns.of(filters).entries[("A", "<")]
    assert items.tolist() == [0, 0, 2, 3, 3, 5, 5]
    assert values.tolist() == [3.0, 1.0, 2.0, 3.0, 1.0, 3.0, 1.0]


def test_predicate_columns_derive_predicates_once_per_distinct_filter(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "repro.pubsub.matching.conjunction_predicates",
        lambda f: calls.append(f) or conjunction_predicates(f),
    )
    pool = [Predicate("A", "<", 1.0), AndFilter([Predicate("B", ">", 0.0)])]
    PredicateColumns.of([pool[i % 2] for i in range(1000)])
    assert len(calls) == 2
