"""Subscription table tests."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub.filters import Predicate
from repro.pubsub.message import Message
from repro.pubsub.subscription import (
    RowArrays,
    StaleRowGroupError,
    SubscriberIndex,
    Subscription,
    SubscriptionTable,
    TableRow,
)
from repro.reference import ReferenceTable
from repro.stats.normal import Normal
from tests.core.helpers import block_of


def sub(name="S1", threshold=5.0, deadline=None, price=None) -> Subscription:
    return Subscription(
        subscriber=name,
        filter=Predicate("A1", "<", threshold),
        deadline_ms=deadline,
        price=price,
    )


def row(subscription=None, next_hop="B2", nn=2, rate=Normal(20.0, 8.0), sources=("B1",)) -> TableRow:
    return TableRow(
        subscription=subscription or sub(),
        next_hop=next_hop,
        nn=nn,
        rate=rate,
        sources=frozenset(sources),
    )


def msg(attrs=None, source="B1", msg_id=1) -> Message:
    return Message(
        msg_id=msg_id,
        publisher="P1",
        source_broker=source,
        attributes=attrs or {"A1": 3.0, "A2": 3.0},
        size_kb=50.0,
        publish_time=0.0,
    )


class TestSubscription:
    def test_validation(self):
        with pytest.raises(ValueError):
            sub(deadline=0.0)
        with pytest.raises(ValueError):
            Subscription("S", Predicate("A", "<", 1.0), price=-1.0)

    def test_nan_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_ms must be positive"):
            sub(deadline=math.nan)

    def test_nan_price_rejected(self):
        with pytest.raises(ValueError, match="price must be non-negative"):
            Subscription("S", Predicate("A", "<", 1.0), price=math.nan)

    def test_row_accessors(self):
        r = row(subscription=sub(deadline=10_000.0, price=2.0))
        assert r.subscriber == "S1"
        assert r.deadline_ms == 10_000.0
        assert r.price == 2.0
        assert not r.is_local

    def test_local_row(self):
        r = row(next_hop=None, nn=0, rate=Normal(0.0, 0.0))
        assert r.is_local


class TestSubscriptionTable:
    def test_install_and_match(self):
        t = SubscriptionTable()
        t.install(row())
        assert len(t) == 1
        assert "S1" in t
        matches = t.match(msg())
        assert [r.subscriber for r in matches] == ["S1"]

    def test_filter_mismatch(self):
        t = SubscriptionTable()
        t.install(row())
        assert t.match(msg(attrs={"A1": 9.0})) == []

    def test_provenance_check(self):
        t = SubscriptionTable()
        t.install(row(sources=("B7",)))
        # Message from B1 must not ride a row installed only for B7 traffic.
        assert t.match(msg(source="B1")) == []
        assert [r.subscriber for r in t.match(msg(source="B7"))] == ["S1"]

    def test_duplicate_subscriber_rejected(self):
        t = SubscriptionTable()
        t.install(row())
        with pytest.raises(KeyError):
            t.install(row())

    def test_uninstall(self):
        t = SubscriptionTable()
        t.install(row())
        t.uninstall("S1")
        assert len(t) == 0
        assert t.match(msg()) == []

    def test_every_mutator_advances_version(self):
        """A :class:`RowGroup` stamps the table's ``version`` and refuses a
        first ``rows`` read once it moved: a mutator that left the counter
        alone would let rows of a reused id through."""
        t = SubscriptionTable()
        seen = [t.version]
        t.install(row(sub("S1")))
        seen.append(t.version)
        t.install_many(block_of(t, [row(sub("S2")), row(sub("S3"))]))
        seen.append(t.version)
        t.uninstall("S1")
        seen.append(t.version)
        t.uninstall_many(["S3", "S2"])
        seen.append(t.version)
        assert seen == [0, 1, 3, 4, 6]

    def test_match_grouped(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S1"), next_hop=None, nn=0, rate=Normal(0, 0)))
        t.install(row(subscription=sub("S2"), next_hop="B2"))
        t.install(row(subscription=sub("S3"), next_hop="B2"))
        t.install(row(subscription=sub("S4"), next_hop="B3"))
        local, remote = t.match_grouped(msg())
        assert [r.subscriber for r in local] == ["S1"]
        assert sorted(remote) == ["B2", "B3"]
        assert [r.subscriber for r in remote["B2"]] == ["S2", "S3"]

    def test_rows_sorted(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S2")))
        t.install(row(subscription=sub("S1")))
        assert [r.subscriber for r in t.rows()] == ["S1", "S2"]


class TestColumnArrays:
    """The table-level column arrays behind RowGroup gathers."""

    def test_group_arrays_equal_from_rows(self):
        t = SubscriptionTable()
        r1 = row(subscription=sub("S1", deadline=10_000.0, price=3.0), nn=3,
                 rate=Normal(20.0, 16.0))
        r2 = row(subscription=sub("S2"), nn=1, rate=Normal(10.0, 4.0))
        t.install(r1)
        t.install(r2)
        _, remote = t.match_grouped(msg())
        group = remote["B2"]
        expected = RowArrays.from_rows(group.rows)
        for field in ("nn", "mean", "std", "deadline", "price"):
            assert getattr(group.arrays, field).tolist() == getattr(expected, field).tolist()

    def test_group_rows_and_len(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S1")))
        t.install(row(subscription=sub("S2")))
        _, remote = t.match_grouped(msg())
        group = remote["B2"]
        assert len(group) == 2
        assert group[0].subscriber == "S1"
        assert [r.subscriber for r in group] == ["S1", "S2"]

    def test_multipath_dedup_keeps_lowest_path(self):
        t = SubscriptionTable()
        s = sub("S1")
        t.install(TableRow(subscription=s, next_hop="B2", nn=2,
                           rate=Normal(20.0, 8.0), sources=frozenset({"B1"}), path_id=0))
        t.install(TableRow(subscription=s, next_hop="B2", nn=4,
                           rate=Normal(30.0, 8.0), sources=frozenset({"B1"}), path_id=1))
        _, remote = t.match_grouped(msg())
        group = remote["B2"]
        assert len(group) == 1
        assert group[0].path_id == 0  # first in (subscriber, path_id) order

    def test_install_after_match_recompiles(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S1")))
        assert [r.subscriber for r in t.match(msg())] == ["S1"]
        t.install(row(subscription=sub("S2")))
        assert [r.subscriber for r in t.match(msg())] == ["S1", "S2"]

    def test_reference_table_matches_by_filter_predicate(self):
        t = ReferenceTable()
        t.install(row())
        t.install(row(subscription=sub("S2", threshold=1.0)))  # A1 < 1 misses 3.0
        t.warm()
        assert [r.subscriber for r in t.match(msg())] == ["S1"]
        assert [r.subscriber for r in t.match(msg({"A1": 0.5}))] == ["S1", "S2"]
        t.uninstall("S1")
        assert [r.subscriber for r in t.match(msg({"A1": 0.5}))] == ["S2"]


class TestUninstallSideIndex:
    def test_uninstall_removes_all_paths(self):
        t = SubscriptionTable()
        s = sub("S1")
        for path_id in (0, 1):
            t.install(TableRow(subscription=s, next_hop="B2", nn=2,
                               rate=Normal(20.0, 8.0), sources=frozenset({"B1"}),
                               path_id=path_id))
        t.install(row(subscription=sub("S2")))
        assert "S1" in t and len(t) == 3
        t.uninstall("S1")
        assert "S1" not in t and "S2" in t
        assert len(t) == 1
        assert [r.subscriber for r in t.match(msg())] == ["S2"]

    def test_uninstall_many_validates_before_removing(self):
        t = SubscriptionTable()
        t.install(row(sub("S1")))
        t.install(row(sub("S2")))
        for bad in (["S1", "ghost"], ["S1", "S1"]):
            with pytest.raises(KeyError):
                t.uninstall_many(bad)
            assert len(t) == 2 and t.version == 2
        t.uninstall_many(["S2", "S1"])
        assert len(t) == 0 and t.version == 4
        assert t._free_ids == [1, 0]

    def test_uninstall_unknown_raises(self):
        t = SubscriptionTable()
        with pytest.raises(KeyError):
            t.uninstall("missing")

    def test_reinstall_after_uninstall(self):
        t = SubscriptionTable()
        t.install(row())
        t.uninstall("S1")
        t.install(row(subscription=sub("S1", threshold=1.0)))
        assert t.match(msg(attrs={"A1": 3.0})) == []
        assert [r.subscriber for r in t.match(msg(attrs={"A1": 0.5}))] == ["S1"]

    def test_churn_does_not_grow_row_storage(self):
        """Install/uninstall cycles reuse freed row ids, so the column
        arrays scale with peak live rows rather than cumulative churn."""
        t = SubscriptionTable()
        t.install(row(subscription=sub("KEEP")))
        for i in range(50):
            t.install(row(subscription=sub(f"S{i}")))
            assert sorted(r.subscriber for r in t.match(msg())) == ["KEEP", f"S{i}"]
            _, remote = t.match_grouped(msg())
            assert sorted(remote["B2"].row_ids.tolist()) == [0, 1]
            t.uninstall(f"S{i}")
        assert len(t) == 1


class TestStaleGroups:
    """Groups are snapshots; only their lazily built rows read live storage."""

    def test_arrays_survive_in_place_reuse_of_the_row_id(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S1", deadline=10_000.0, price=3.0), nn=3))
        _, remote = t.match_grouped(msg())
        group = remote["B2"]
        t.uninstall("S1")
        t.install(row(subscription=sub("S9", deadline=500.0, price=7.0), nn=1))
        assert t.match_grouped(msg())[1]["B2"].row_ids.tolist() == group.row_ids.tolist()
        assert group.arrays.nn.tolist() == [3.0]
        assert group.deadline.tolist() == [10_000.0]
        assert group.price.tolist() == [3.0]
        assert group.subscribers == ["S1"]

    def test_first_row_reads_the_snapshot_without_a_gather(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S1", deadline=10_000.0, price=3.0), nn=3,
                      rate=Normal(20.0, 16.0)))
        t.install(row(subscription=sub("S2"), nn=1))
        _, remote = t.match_grouped(msg())
        group = remote["B2"]
        t.uninstall("S1")
        t.install(row(subscription=sub("S9", deadline=500.0, price=7.0), nn=1))
        t.match_grouped(msg())
        assert group.first_row() == [3.0, 20.0, 4.0, 10_000.0, 3.0]
        assert group._arrays is None
        arrays = group.arrays
        assert group.first_row() == [
            getattr(arrays, column)[0] for column in ("nn", "mean", "std", "deadline", "price")
        ]

    def test_rows_first_read_after_a_mutation_raise(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S1")))
        _, remote = t.match_grouped(msg())
        stale, kept = remote["B2"], t.match_grouped(msg())[1]["B2"]
        assert [r.subscriber for r in kept.rows] == ["S1"]  # read in time
        t.uninstall("S1")
        t.install(row(subscription=sub("S9")))  # reuses row id 0
        with pytest.raises(StaleRowGroupError):
            stale.rows
        assert [r.subscriber for r in kept.rows] == ["S1"]


def KEY(r: TableRow) -> tuple[str, int]:
    return r.subscriber, r.path_id


class RowModel:
    """The table as per-row ``install`` in order builds it, kept as real
    ``TableRow`` objects — the storage the columnar table replaced — and
    the index ids its subscribers are registered under (``first_sid`` is
    the next fresh id)."""

    def __init__(self, first_sid: int = 0):
        self.by_id: list[TableRow | None] = []
        self.free: list[int] = []
        self.ids_of: dict[str, list[int]] = {}
        self.sid_of: dict[str, int] = {}
        self.next_sid = first_sid
        self.version = 0

    def register(self, name: str) -> None:
        if name not in self.sid_of:
            self.sid_of[name] = self.next_sid
            self.next_sid += 1

    def install(self, r: TableRow) -> None:
        self.register(r.subscriber)
        if self.free:
            row_id = min(self.free)
            self.free.remove(row_id)
            self.by_id[row_id] = r
        else:
            row_id = len(self.by_id)
            self.by_id.append(r)
        self.ids_of.setdefault(r.subscriber, []).append(row_id)
        self.version += 1

    def uninstall(self, subscriber: str) -> None:
        for row_id in self.ids_of.pop(subscriber):
            self.by_id[row_id] = None
            self.free.append(row_id)
        del self.sid_of[subscriber]
        self.version += 1

    def rows(self) -> list[TableRow]:
        return sorted((r for r in self.by_id if r is not None), key=KEY)

    def matched_ids(self, m: Message) -> list[int]:
        ids = [
            i for i, r in enumerate(self.by_id)
            if r is not None and r.subscription.filter.matches(m.attributes)
            and m.source_broker in r.sources and r.min_msg_id <= m.msg_id
        ]
        return sorted(ids, key=lambda i: KEY(self.by_id[i]))

    def grouped(self, m: Message) -> dict[str | None, list[int]]:
        groups: dict[str | None, list[int]] = {}
        seen = set()
        for i in self.matched_ids(m):
            r = self.by_id[i]
            if (r.next_hop, r.subscriber) not in seen:
                seen.add((r.next_hop, r.subscriber))
                groups.setdefault(r.next_hop, []).append(i)
        return groups


PROBES = [
    Message(msg_id=msg_id, publisher="P1", source_broker=source,
            attributes={"A1": value}, size_kb=50.0, publish_time=0.0)
    for msg_id in (0, 5) for source in ("B1", "B7") for value in (1.0, 6.0)
]


def assert_same_table(table: SubscriptionTable, model: RowModel) -> None:
    assert table.version == model.version
    assert table._free_ids == sorted(model.free, reverse=True)
    assert table.rows() == model.rows()
    assert len(table) == len(model.rows())
    assert {name: table.index.live[name] for name in model.sid_of} == model.sid_of
    for m in PROBES:
        assert table.match(m) == [model.by_id[i] for i in model.matched_ids(m)]
        local, remote = table.match_grouped(m)
        expected = model.grouped(m)
        assert list(remote) == sorted(hop for hop in expected if hop is not None)
        for hop, group in [(None, local), *remote.items()]:
            ids = expected.get(hop, [])
            rows = [model.by_id[i] for i in ids]
            assert group.row_ids.tolist() == ids
            assert group.rows == rows
            want = RowArrays.from_rows(rows)
            for column in ("nn", "mean", "std", "deadline", "price"):
                assert getattr(group.arrays, column).tolist() == getattr(want, column).tolist()
            assert group.sub_ids.tolist() == [model.sid_of[r.subscriber] for r in rows]
            assert group.subscribers == [r.subscriber for r in rows]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_columnar_table_equals_the_row_object_model(data):
    """Random install / install_many / uninstall / uninstall_many
    interleavings — id reuse, multi-path and epoch rows, leaves and
    re-joins — against the per-row model, with a pickle round trip
    mid-sequence.  A private index registers and unregisters subscribers
    itself; with a shared one the test does, as the system would, and
    ids start after a subscriber the table never holds."""
    shared = data.draw(st.booleans(), label="shared index")
    if shared:
        index = SubscriberIndex()
        index.add([Subscription("X", Predicate("A1", "<", 1.0))])
        table, model = SubscriptionTable(index), RowModel(first_sid=1)
    else:
        table, model = SubscriptionTable(), RowModel()
    live_sub: dict[str, Subscription] = {}
    names = [f"S{i}" for i in range(5)]

    def draw_row(name: str, path_id: int) -> TableRow:
        if name not in live_sub:
            live_sub[name] = Subscription(
                name, Predicate("A1", "<", data.draw(st.sampled_from([2.0, 9.0]))),
                deadline_ms=data.draw(st.sampled_from([None, 10_000.0])),
                price=data.draw(st.sampled_from([None, 2.0])),
            )
        return TableRow(
            live_sub[name],
            next_hop=data.draw(st.sampled_from([None, "B3", "B2"])),
            nn=data.draw(st.integers(0, 3)),
            rate=Normal(data.draw(st.sampled_from([10.0, 20.0])),
                        data.draw(st.sampled_from([0.0, 8.0, 16.0]))),
            sources=frozenset(data.draw(st.sampled_from([("B1",), ("B7",), ("B1", "B7")]))),
            path_id=path_id,
            min_msg_id=data.draw(st.sampled_from([0, 0, 3])),
        )

    def leave(leavers: list[str]) -> None:
        if len(leavers) == 1:
            table.uninstall(leavers[0])
        else:
            table.uninstall_many(leavers)
        if shared:
            table.index.discard(leavers)
        for name in leavers:
            model.uninstall(name)
            del live_sub[name]

    for _ in range(data.draw(st.integers(1, 14))):
        absent = [
            (name, path_id) for name in names for path_id in (0, 1)
            if (name, path_id) not in {KEY(r) for r in model.rows()}
        ]
        op = data.draw(st.sampled_from(
            ["install", "install_many", "uninstall", "uninstall_many", "pickle"]
        ))
        if op == "uninstall" and model.ids_of:
            leave([data.draw(st.sampled_from(sorted(model.ids_of)))])
        elif op == "uninstall_many" and model.ids_of:
            leavers = data.draw(st.permutations(sorted(model.ids_of)))
            leave(leavers[:data.draw(st.integers(1, len(leavers)))])
        elif op == "pickle":
            table = pickle.loads(pickle.dumps(table))
        elif absent:
            count = 1 if op == "install" else data.draw(st.integers(1, 4))
            keys = data.draw(st.permutations(absent))[:count]
            rows = [draw_row(name, path_id) for name, path_id in keys]
            if op == "install":
                if shared and rows[0].subscriber not in table.index.live:
                    table.index.add([rows[0].subscription])
                table.install(rows[0])
            else:
                table.install_many(block_of(table, rows))
            for r in rows:
                model.install(r)
        assert_same_table(table, model)
    assert not [k for k in table.__getstate__() if k.startswith("_c_")]


def test_a_rejoin_gets_a_fresh_id_and_keeps_its_name_order():
    """A subscriber who leaves and joins again under the same name is a
    new registration: a fresh id (its endpoint id), while groups still
    come out in name order."""
    t = SubscriptionTable()
    for name in ("S1", "S2", "S3"):
        t.install(row(sub(name)))
    t.uninstall("S1")
    t.install(row(sub("S1", threshold=9.0)))
    assert t.index.live == {"S2": 1, "S3": 2, "S1": 3}
    group = t.match_grouped(msg())[1]["B2"]
    assert group.subscribers == ["S1", "S2", "S3"]
    assert group.sub_ids.tolist() == [3, 1, 2]
    assert group.row_ids.tolist() == [0, 1, 2]  # the freed row id was reused


def test_a_shared_index_only_installs_registered_subscribers():
    index = SubscriberIndex()
    t = SubscriptionTable(index)
    with pytest.raises(KeyError, match="not registered"):
        t.install(row(sub("S1")))
    index.add([sub("S1")])
    with pytest.raises(ValueError, match="another subscription"):
        t.install(row(sub("S1", threshold=1.0)))
    t.install(row(sub("S1")))
    assert "S1" in t and len(index) == 1


class TestRowArrays:
    def test_from_rows(self):
        rows = [
            row(subscription=sub("S1", deadline=10_000.0, price=3.0), nn=2, rate=Normal(20.0, 16.0)),
            row(subscription=sub("S2"), nn=1, rate=Normal(10.0, 4.0)),
        ]
        arrays = RowArrays.from_rows(rows)
        assert len(arrays) == 2
        assert arrays.nn.tolist() == [2.0, 1.0]
        assert arrays.mean.tolist() == [20.0, 10.0]
        assert arrays.std.tolist() == [4.0, 2.0]
        assert arrays.deadline[0] == 10_000.0
        assert math.isinf(arrays.deadline[1])  # unspecified deadline
        assert arrays.price.tolist() == [3.0, 1.0]  # unspecified price -> 1

    def test_empty(self):
        arrays = RowArrays.from_rows([])
        assert len(arrays) == 0
        assert arrays.nn.shape == (0,)
