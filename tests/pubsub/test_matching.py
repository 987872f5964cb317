"""Matching tests: the fid-keyed counting matcher and the filter index,
held against the filters' own predicates."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub.filters import AndFilter, OrFilter, Predicate, conjunction_predicates
from repro.pubsub.matching import FilterIndex, PredicateColumns, VectorCountingMatcher


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
    """Conjunctions plus the matcher's special cases: match-all (empty
    conjunction) and non-conjunctive fallback (disjunctions)."""
    return st.one_of(
        conjunctions(),
        st.just(AndFilter([])),
        st.lists(predicates(), min_size=1, max_size=2).map(OrFilter),
    )


def attributes():
    return st.dictionaries(
        st.sampled_from(["A", "B", "C"]), st.floats(-5, 5, allow_nan=False), max_size=3
    )


def scan(filters, attrs) -> set[int]:
    """The oracle: every fid (key of ``filters``) whose filter holds."""
    return {fid for fid, f in filters.items() if f.matches(attrs)}


def matched(m: VectorCountingMatcher, attrs) -> set[int]:
    got = m.match_array(attrs).tolist()
    assert len(got) == len(set(got))
    return set(got)


def add(m: VectorCountingMatcher, *filters) -> None:
    """One ``add_many`` call per filter, fids in order after the live ones."""
    for f in filters:
        m.add_many([(len(m._required), f)])


def message(attrs) -> SimpleNamespace:
    return SimpleNamespace(attributes=attrs)


def verdicts(index: FilterIndex, attrs) -> list[bool]:
    return index.verdicts(message(attrs)).tolist()


class TestBruteForce:
    """Non-conjunctive filters: the matcher's fallback tests them one by one."""

    def test_basic_match(self):
        m = VectorCountingMatcher()
        m.add_many([(0, OrFilter([Predicate("A", "<", 5.0)])),
                    (1, OrFilter([Predicate("A", ">", 5.0)]))])
        assert matched(m, {"A": 3.0}) == {0}
        assert len(m) == 2

    def test_duplicate_key_rejected(self):
        m = VectorCountingMatcher()
        m.add_many([(0, OrFilter([Predicate("A", "<", 5.0)]))])
        with pytest.raises(KeyError):
            m.add_many([(0, OrFilter([Predicate("A", "<", 5.0)]))])

    def test_remove(self):
        m = VectorCountingMatcher()
        m.add_many([(0, OrFilter([Predicate("A", "<", 5.0)]))])
        m.remove(0)
        assert matched(m, {"A": 3.0}) == set()
        assert len(m) == 0


class TestCountingIndex:
    """The filter index: subscriptions counted per fid, verdicts per fid."""

    def test_conjunction_requires_all_predicates(self):
        index = FilterIndex()
        index.add([AndFilter([Predicate("A", "<", 5.0), Predicate("B", "<", 5.0)])])
        assert verdicts(index, {"A": 3.0, "B": 3.0}) == [True]
        assert verdicts(index, {"A": 3.0, "B": 7.0}) == [False]
        assert verdicts(index, {"A": 3.0}) == [False]  # missing attribute

    def test_shared_thresholds(self):
        index = FilterIndex()
        below5 = Predicate("A", "<", 5.0)
        assert index.add([below5, below5, Predicate("A", "<", 2.0)]).tolist() == [0, 0, 1]
        assert index.interested(message({"A": 3.0})) == 2
        assert index.interested(message({"A": 1.0})) == 3

    def test_all_operators(self):
        index = FilterIndex()
        ops = ["<", "<=", ">", ">=", "==", "!="]
        index.add([Predicate("A", op, 5.0) for op in ops])
        held = {v: {op for op, hit in zip(ops, verdicts(index, {"A": v})) if hit}
                for v in (4.0, 5.0, 6.0)}
        assert held == {5.0: {"<=", ">=", "=="}, 4.0: {"<", "<=", "!="}, 6.0: {">", ">=", "!="}}

    def test_match_all_conjunction(self):
        index = FilterIndex()
        index.add([AndFilter([]), AndFilter([])])
        assert verdicts(index, {"A": 1.0}) == [True]
        assert index.interested(message({})) == 2

    def test_non_conjunctive_falls_back(self):
        index = FilterIndex()
        index.add([OrFilter([Predicate("A", "<", 1.0), Predicate("B", ">", 9.0)])])
        assert verdicts(index, {"A": 0.5, "B": 0.0}) == [True]
        assert verdicts(index, {"A": 5.0, "B": 9.5}) == [True]
        assert verdicts(index, {"A": 5.0, "B": 5.0}) == [False]
        assert len(index) == 1

    def test_remove_indexed(self):
        index = FilterIndex()
        fids = index.add([AndFilter([Predicate("A", "<", 5.0), Predicate("B", "<", 5.0)])])
        index.discard(fids)
        assert verdicts(index, {"A": 1.0, "B": 1.0}) == [False]  # a tombstone reads False
        assert len(index) == 0

    def test_remove_fallback(self):
        index = FilterIndex()
        index.discard(index.add([OrFilter([Predicate("A", "<", 1.0)])]))
        assert verdicts(index, {"A": 0.0}) == [False]
        assert len(index) == 0

    def test_duplicate_key_rejected(self):
        # An equal filter is no second key: it counts on the first's fid.
        index = FilterIndex()
        index.add([Predicate("A", "<", 5.0)])
        assert index.add([Predicate("A", "<", 5.0)]).tolist() == [0]
        assert len(index) == 1 and len(index._matcher) == 1
        with pytest.raises(KeyError):
            index.discard(np.array([0, 0, 0], dtype=np.int64))

    def test_duplicate_key_in_fallback_rejected(self):
        index = FilterIndex()
        either = [Predicate("A", "<", 1.0), Predicate("B", ">", 9.0)]
        assert index.add([OrFilter(either), OrFilter(list(either))]).tolist() == [0, 0]
        assert len(index._matcher._fallback) == 1
        assert index.interested(message({"A": 0.0})) == 2

    def test_duplicate_threshold_same_attr(self):
        index = FilterIndex()
        fids = index.add([Predicate("A", "<", 5.0), AndFilter([Predicate("A", "<", 5.0)])])
        index.discard(fids[:1])
        assert verdicts(index, {"A": 1.0}) == [False, True]


@given(
    filters=st.lists(conjunctions(), min_size=1, max_size=12),
    draws=st.lists(st.integers(0, 11), max_size=20),
    attrs=attributes(),
)
@settings(max_examples=300)
def test_counting_index_agrees_with_brute_force(filters, draws, attrs):
    """Subscriptions drawn from a filter pool: the index's verdicts and
    population count equal a predicate scan."""
    subscribed = [filters[d % len(filters)] for d in draws] + filters
    index = FilterIndex()
    fids = index.add(subscribed).tolist()
    by_fid = dict(zip(fids, subscribed))
    got = verdicts(index, attrs)
    assert {fid for fid, hit in enumerate(got) if hit} == scan(by_fid, attrs)
    assert index.interested(message(attrs)) == sum(f.matches(attrs) for f in subscribed)


@given(
    filters=st.lists(conjunctions(), min_size=2, max_size=10),
    attrs=attributes(),
    remove_idx=st.integers(0, 1),
)
@settings(max_examples=150)
def test_counting_index_agrees_after_removal(filters, attrs, remove_idx):
    index = FilterIndex()
    fids = index.add(filters)
    index.discard(fids[remove_idx: remove_idx + 1])
    left = filters[:remove_idx] + filters[remove_idx + 1:]
    assert index.interested(message(attrs)) == sum(f.matches(attrs) for f in left)


class TestAddMany:
    FILTERS = [
        Predicate("A", "<", 5.0),
        AndFilter([Predicate("A", "<", 5.0), Predicate("B", ">", 1.0)]),
        Predicate("A", "<", 5.0),  # shared threshold
        OrFilter([Predicate("C", ">", 0.0)]),  # fallback
        AndFilter([]),  # match-all
    ]

    def test_bulk_equals_incremental(self):
        incremental = VectorCountingMatcher()
        add(incremental, *self.FILTERS)
        bulk = VectorCountingMatcher()
        bulk.add_many(enumerate(self.FILTERS))
        for attrs in ({"A": 3.0, "B": 2.0}, {"A": 6.0}, {"C": 1.0}, {}):
            assert matched(bulk, attrs) == matched(incremental, attrs)
            assert matched(bulk, attrs) == scan(dict(enumerate(self.FILTERS)), attrs)
        assert len(bulk) == len(incremental) == 5

    def test_bulk_into_populated_index(self):
        m = VectorCountingMatcher()
        add(m, Predicate("A", "<", 5.0))
        m.add_many([(1, Predicate("A", "<", 3.0)), (2, Predicate("A", "<", 5.0))])
        assert matched(m, {"A": 1.0}) == {0, 1, 2}
        assert matched(m, {"A": 4.0}) == {0, 2}

    def test_bulk_then_remove(self):
        m = VectorCountingMatcher()
        m.add_many([(0, Predicate("A", "<", 5.0)), (1, Predicate("A", "<", 5.0))])
        m.remove(0)
        assert matched(m, {"A": 1.0}) == {1}

    def test_duplicate_within_batch_rejected(self):
        m = VectorCountingMatcher()
        with pytest.raises(KeyError):
            m.add_many([(0, Predicate("A", "<", 5.0)), (0, Predicate("B", "<", 5.0))])
        assert len(m) == 0

    def test_duplicate_against_existing_rejected(self):
        m = VectorCountingMatcher()
        add(m, Predicate("A", "<", 5.0), OrFilter([Predicate("A", "<", 1.0)]))
        for fid in (0, 1):
            with pytest.raises(KeyError):
                m.add_many([(2, Predicate("B", "<", 5.0)), (fid, Predicate("B", "<", 5.0))])
        assert len(m) == 2 and matched(m, {"B": 0.0}) == set()


@given(
    first=st.lists(any_filters(), min_size=0, max_size=6),
    second=st.lists(any_filters(), min_size=0, max_size=6),
    attrs=attributes(),
)
@settings(max_examples=200)
def test_add_many_agrees_with_incremental_adds(first, second, attrs):
    """A bulk add over a (possibly non-empty) matcher == one add per fid."""
    incremental = VectorCountingMatcher()
    bulk = VectorCountingMatcher()
    add(incremental, *first, *second)
    add(bulk, *first)
    bulk.add_many(enumerate(second, start=len(first)))
    assert matched(bulk, attrs) == matched(incremental, attrs)
    assert matched(bulk, attrs) == scan(dict(enumerate(first + second)), attrs)
    assert len(bulk) == len(incremental)


# ---------------------------------------------------------------------- #
# VectorCountingMatcher: fid mechanics (tombstones, purge, re-add).
# ---------------------------------------------------------------------- #
class TestVectorCountingMatcher:
    def test_all_operators(self):
        m = VectorCountingMatcher()
        ops = ["<", "<=", ">", ">=", "==", "!="]
        add(m, *(Predicate("A", op, 5.0) for op in ops))
        assert {ops[i] for i in matched(m, {"A": 5.0})} == {"<=", ">=", "=="}
        assert {ops[i] for i in matched(m, {"A": 4.0})} == {"<", "<=", "!="}
        assert {ops[i] for i in matched(m, {"A": 6.0})} == {">", ">=", "!="}

    def test_conjunction_requires_all_predicates(self):
        m = VectorCountingMatcher()
        add(m, AndFilter([Predicate("A", "<", 5.0), Predicate("B", "<", 5.0)]))
        assert matched(m, {"A": 3.0, "B": 3.0}) == {0}
        assert matched(m, {"A": 3.0, "B": 7.0}) == set()
        assert matched(m, {"A": 3.0}) == set()  # missing attribute

    def test_repeated_attribute_in_one_conjunction(self):
        m = VectorCountingMatcher()
        add(m, AndFilter([Predicate("A", "<", 5.0), Predicate("A", "<", 3.0)]))
        assert matched(m, {"A": 2.0}) == {0}
        assert matched(m, {"A": 4.0}) == set()

    def test_match_all_and_fallback(self):
        m = VectorCountingMatcher()
        add(m, AndFilter([]), OrFilter([Predicate("A", "<", 1.0), Predicate("B", ">", 9.0)]))
        assert m._required.view().tolist() == [0, -1]  # match-all is a total of 0
        assert matched(m, {}) == {0}
        assert matched(m, {"A": 0.0, "B": 0.0}) == {0, 1}
        assert len(m) == 2

    def test_remove_and_readd(self):
        """A re-added fid comes back by its total while its tombstoned
        entries are still indexed, and by new entries after a purge."""
        both = AndFilter([Predicate("A", "<", 5.0), Predicate("B", ">", 0.0)])
        m = VectorCountingMatcher()
        add(m, both, Predicate("A", "<", 5.0), Predicate("A", "<", 6.0))
        m.remove(0)
        assert m._dead_entries == 2 and m._parked.view()[0] == 2  # not purged: 2 of 4
        assert matched(m, {"A": 1.0, "B": 1.0}) == {1, 2}
        m.add_many([(0, both)])
        assert m._dead_entries == 0 and m._total_entries == 4
        assert matched(m, {"A": 1.0, "B": 1.0}) == {0, 1, 2}
        m.remove_many([0, 2])  # 3 of 4 entries dead: purged
        assert m._total_entries == 1 and (m._parked.view() == -1).all()
        m.add_many([(0, both)])
        assert m._total_entries == 3
        assert matched(m, {"A": 1.0, "B": 1.0}) == {0, 1}
        assert len(m) == 2

    def test_mass_removal_triggers_compaction(self):
        """Tombstoned entries are purged once they outnumber live ones,
        and matching stays correct before, across and after the purge."""
        m = VectorCountingMatcher()
        add(m, *(AndFilter([Predicate("A", "<", float(i)), Predicate("B", ">", -1.0)])
                 for i in range(40)))
        for i in range(35):
            assert matched(m, {"A": -1.0, "B": 0.0}) == set(range(i, 40))
            m.remove(i)
        assert matched(m, {"A": -1.0, "B": 0.0}) == {35, 36, 37, 38, 39}
        assert m._dead_entries * 2 <= m._total_entries  # compaction ran
        assert len(m) == 5
        # The indexes track live filters, not the 40 cumulative adds.
        assert m._total_entries <= 2 * 2 * len(m)

    def test_remove_many_across_the_purge_threshold(self):
        """One batch that takes the tombstones past the live entries is
        purged once, at its end, and matches what per-call removal (which
        purges part-way through) matches."""
        filters = [
            AndFilter([Predicate("A", "<", float(i)), Predicate("B", ">", -1.0)])
            for i in range(40)
        ]
        batched, per_call = VectorCountingMatcher(), VectorCountingMatcher()
        batched.add_many(enumerate(filters))
        add(per_call, *filters)
        batched.remove_many(range(35))
        for i in range(35):
            per_call.remove(i)
        assert batched._dead_entries == 0 and batched._total_entries == 10
        for m in (batched, per_call):
            m.add_many([(7, filters[7])])
        live = {fid: filters[fid] for fid in (7, 35, 36, 37, 38, 39)}
        for probe in ({"A": -1.0, "B": 0.0}, {"A": 36.5, "B": 0.0}, {"A": 0.0}):
            assert matched(batched, probe) == matched(per_call, probe) == scan(live, probe)
        assert len(batched) == len(per_call) == 6

    def test_remove_many_validates_before_removing(self):
        m = VectorCountingMatcher()
        m.add_many([(0, Predicate("A", "<", 5.0)), (1, OrFilter([Predicate("A", ">", 9.0)]))])
        for bad in ([0, 2], [1, 2], [0, 0], [1, -1]):
            with pytest.raises(KeyError):
                m.remove_many(bad)
            assert len(m) == 2 and matched(m, {"A": 1.0}) == {0}
        m.remove_many([1, 0])
        assert len(m) == 0 and matched(m, {"A": 1.0}) == set()
        with pytest.raises(KeyError):
            m.remove(0)  # no longer live

    def test_duplicate_key_rejected(self):
        m = VectorCountingMatcher()
        add(m, Predicate("A", "<", 5.0), OrFilter([Predicate("A", "<", 1.0)]), AndFilter([]))
        for fid in (0, 1, 2):
            with pytest.raises(KeyError):
                m.add_many([(fid, Predicate("B", "<", 5.0))])
        assert len(m) == 3

    def test_match_array_with_int_keys(self):
        m = VectorCountingMatcher()
        m.add_many([(4, Predicate("A", "<", 5.0)), (1, AndFilter([])),
                    (2, OrFilter([Predicate("A", ">", 9.0), Predicate("B", "<", 0.0)]))])
        got = m.match_array({"A": 3.0})
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.tolist() == [1, 4]  # fids 0 and 3 were never added


@given(filters=st.lists(any_filters(), min_size=1, max_size=14), attrs=attributes())
@settings(max_examples=300)
def test_vector_matcher_three_way_differential(filters, attrs):
    """matcher ≡ filter index verdicts ≡ predicate scan on random tables."""
    vector = VectorCountingMatcher()
    vector.add_many(enumerate(filters))
    index = FilterIndex()
    by_fid = dict(zip(index.add(filters).tolist(), filters))
    assert matched(vector, attrs) == scan(dict(enumerate(filters)), attrs)
    assert {fid for fid, hit in enumerate(verdicts(index, attrs)) if hit} == scan(by_fid, attrs)


@given(
    filters=st.lists(any_filters(), min_size=2, max_size=12),
    attrs=attributes(),
    removals=st.sets(st.integers(0, 11), max_size=6),
    readd=st.booleans(),
)
@settings(max_examples=200)
def test_vector_matcher_differential_under_churn(filters, attrs, removals, readd):
    """Removals and a re-add agree with the predicate scan, per call and
    as ``add_many`` / ``remove_many`` batches."""
    per_call, batched = VectorCountingMatcher(), VectorCountingMatcher()
    add(per_call, *filters)
    batched.add_many(enumerate(filters))
    removed = [i for i in sorted(removals) if i < len(filters)]
    for i in removed:
        per_call.remove(i)
    batched.remove_many(removed)
    live = {i: f for i, f in enumerate(filters) if i not in removed}
    if readd and removed:
        for m in (per_call, batched):
            m.add_many([(removed[0], filters[removed[0]])])
        live[removed[0]] = filters[removed[0]]
    for m in (per_call, batched):
        assert matched(m, attrs) == scan(live, attrs)
        assert len(m) == len(live)


@given(filters=st.lists(any_filters(), min_size=0, max_size=10), attrs=attributes())
@settings(max_examples=150)
def test_vector_add_many_agrees_with_incremental(filters, attrs):
    incremental = VectorCountingMatcher()
    bulk = VectorCountingMatcher()
    add(incremental, *filters)
    bulk.add_many(enumerate(filters))
    assert matched(bulk, attrs) == matched(incremental, attrs)
    assert len(bulk) == len(incremental)


def full_attributes():
    """Every attribute set, so a probe misses a filter by value only."""
    value = st.floats(-5, 5, allow_nan=False)
    return st.fixed_dictionaries({"A": value, "B": value, "C": value})


@given(
    pool=st.lists(any_filters(), min_size=1, max_size=3),
    steps=st.lists(st.tuples(st.booleans(), st.integers(0, 2)), min_size=1, max_size=40),
    probes=st.lists(st.one_of(attributes(), full_attributes()), min_size=2, max_size=4),
)
@settings(max_examples=300)
def test_filter_index_verdicts_under_add_discard_readd(pool, steps, probes):
    """A filter index driven through random subscribe (True) / leave
    (False) steps over a small pool — so a filter's count returns to 0 and
    its fid is re-added, with its tombstoned entries still indexed or
    after a purge dropped them — reads, after every step,
    ``verdicts[fid] == (live[fid] > 0 and filter.matches(attrs))`` and
    counts the live subscriptions whose predicate holds."""
    index = FilterIndex()
    fid_of = dict(zip(map(id, pool), index.fids(pool).tolist()))
    by_fid = {fid_of[id(f)]: f for f in pool}  # equal filters share a fid
    live = [0] * len(pool)
    for join, k in steps:
        fid = fid_of[id(pool[k % len(pool)])]
        if join:
            assert index.add([by_fid[fid]]).tolist() == [fid]
            live[fid] += 1
        elif live[fid]:
            index.discard(np.array([fid], dtype=np.int64))
            live[fid] -= 1
        for attrs in probes:
            got = verdicts(index, attrs)
            for fid, f in by_fid.items():
                assert got[fid] == (live[fid] > 0 and f.matches(attrs))
            interested = sum(live[fid] for fid, f in by_fid.items() if f.matches(attrs))
            assert index.interested(message(attrs)) == interested
        assert len(index) == sum(1 for fid in by_fid if live[fid])


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
