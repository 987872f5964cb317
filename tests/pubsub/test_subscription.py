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
    Subscription,
    SubscriptionTable,
    TableRow,
)
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
        """The fused engine stamps its match memo with ``version`` and
        ``Broker._process`` discards a memo whose stamp differs: a mutator
        that left the counter alone would let a stale match through."""
        t = SubscriptionTable()
        seen = [t.version]
        t.install(row(sub("S1")))
        seen.append(t.version)
        t.install_many(block_of([row(sub("S2")), row(sub("S3"))]))
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

    def test_matcher_backend_knob(self):
        for backend in ("vector", "oracle", "brute"):
            t = SubscriptionTable(matcher_backend=backend)
            t.install(row())
            assert [r.subscriber for r in t.match(msg())] == ["S1"]


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
    ``TableRow`` objects — the storage the columnar table replaced."""

    def __init__(self):
        self.by_id: list[TableRow | None] = []
        self.free: list[int] = []
        self.ids_of: dict[str, list[int]] = {}
        self.sub_names: list[str] = []
        self.version = 0

    def install(self, r: TableRow) -> None:
        if r.subscriber not in self.sub_names:
            self.sub_names.append(r.subscriber)
        if self.free:
            row_id = self.free.pop()
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
    assert table._free_ids == model.free
    assert table.rows() == model.rows()
    assert len(table) == len(model.rows())
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
            assert group.sub_ids.tolist() == [model.sub_names.index(r.subscriber) for r in rows]
            assert group.sub_names == model.sub_names


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_columnar_table_equals_the_row_object_model(data):
    """Random install / install_many / uninstall / uninstall_many
    interleavings — id reuse, multi-path and epoch rows, batches that take
    the matcher across its purge threshold — against the per-row model,
    with a pickle round trip mid-sequence."""
    table, model = SubscriptionTable(), RowModel()
    live_sub: dict[str, Subscription] = {}
    names = [f"S{i}" for i in range(5)]

    def draw_row(name: str, path_id: int) -> TableRow:
        if name not in model.ids_of and name not in live_sub:
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

    for _ in range(data.draw(st.integers(1, 14))):
        absent = [
            (name, path_id) for name in names for path_id in (0, 1)
            if (name, path_id) not in {KEY(r) for r in model.rows()}
        ]
        op = data.draw(st.sampled_from(
            ["install", "install_many", "uninstall", "uninstall_many", "pickle"]
        ))
        if op == "uninstall" and model.ids_of:
            name = data.draw(st.sampled_from(sorted(model.ids_of)))
            table.uninstall(name)
            model.uninstall(name)
            del live_sub[name]
        elif op == "uninstall_many" and model.ids_of:
            leavers = data.draw(st.permutations(sorted(model.ids_of)))
            leavers = leavers[:data.draw(st.integers(1, len(leavers)))]
            table.uninstall_many(leavers)
            for name in leavers:
                model.uninstall(name)
                del live_sub[name]
        elif op == "pickle":
            table = pickle.loads(pickle.dumps(table))
        elif absent:
            count = 1 if op == "install" else data.draw(st.integers(1, 4))
            keys = data.draw(st.permutations(absent))[:count]
            rows = [draw_row(name, path_id) for name, path_id in keys]
            if op == "install":
                table.install(rows[0])
            else:
                table.install_many(block_of(rows))
            for r in rows:
                model.install(r)
        assert_same_table(table, model)
    assert not [k for k in table.__getstate__() if k.startswith("_c_")]


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
