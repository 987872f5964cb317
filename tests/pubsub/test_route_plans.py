"""Route plans and the system-wide filter index.

A production :class:`SubscriptionTable` sharing a :class:`SubscriberIndex`
(kept the way the system keeps it: one registration per subscription)
must group every message exactly as :class:`~repro.reference.ReferenceTable`
over the same index does — each row's filter predicate tested, rows filtered, sorted, deduped
and grouped one by one — through multi-path rows, epochs, batch leaves
and re-joins, and joins with brand-new filters while earlier messages are
still being matched (their cached verdicts predate the join).  And the
index evaluates filters once per publication, however many brokers the
publication crosses.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import EbStrategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.pubsub.filters import AndFilter, OrFilter, Predicate
from repro.pubsub.matching import FilterIndex, VectorCountingMatcher
from repro.pubsub.message import Message
from repro.pubsub.subscription import (
    Route,
    RowBlock,
    SubscriberIndex,
    Subscription,
    SubscriptionTable,
    TableRow,
)
from repro.pubsub.system import PubSubSystem, SystemConfig
from repro.reference import ReferenceTable
from repro.stats.normal import Normal
from tests.conftest import make_line_topology

POOL = [
    Predicate("A1", "<", 5.0),
    AndFilter([Predicate("A1", "<", 7.0), Predicate("A2", ">=", 2.0)]),
    AndFilter([]),  # matches everything
    OrFilter([Predicate("A1", "<", 1.0), Predicate("A2", ">", 8.0)]),  # not a conjunction
]


def assert_same_groups(
    table: SubscriptionTable, reference: ReferenceTable, message: Message
) -> None:
    local, remote = table.match_grouped(message)
    ref_local, ref_remote = reference.match_grouped(message)
    assert list(remote) == list(ref_remote)
    for group, expected in [(local, ref_local), *((remote[h], ref_remote[h]) for h in remote)]:
        assert group.row_ids.tolist() == expected.row_ids.tolist()
        assert group.sub_ids.tolist() == expected.sub_ids.tolist()
        assert len(group) > 0 or group is local
        for column in ("nn", "mean", "std", "deadline", "price"):
            got, want = getattr(group.arrays, column), getattr(expected.arrays, column)
            assert got.tobytes() == want.tobytes()
    assert table.match(message) == reference.match(message)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_route_plan_groups_equal_the_reference_table(data):
    index = SubscriberIndex()
    table, reference = SubscriptionTable(index), ReferenceTable(index)
    live: dict[str, Subscription] = {}
    in_flight: list[Message] = []
    next_msg = 0
    fresh = 0

    def draw_filter():
        nonlocal fresh
        if data.draw(st.booleans(), label="brand-new filter"):
            fresh += 1
            return Predicate("A2", "<", 0.5 + fresh)  # a value no fid holds yet
        return data.draw(st.sampled_from(POOL), label="pooled filter")

    def draw_route(path_id: int, min_msg: int) -> Route:
        return Route(
            next_hop=data.draw(st.sampled_from([None, "B3", "B2", "B9"])),
            nn=data.draw(st.integers(0, 3)),
            rate=Normal(data.draw(st.sampled_from([10.0, 20.0])), 4.0),
            sources=frozenset(data.draw(st.sampled_from([("B1",), ("B7",), ("B1", "B7")]))),
            path_id=path_id,
            min_msg_id=min_msg,
        )

    for step in range(data.draw(st.integers(1, 12), label="steps")):
        op = data.draw(st.sampled_from(["join", "leave", "publish", "probe"]), label=f"op{step}")
        absent = [f"S{i}" for i in range(8) if f"S{i}" not in live]
        if op == "join" and absent:
            names = data.draw(st.permutations(absent), label="joiners")
            names = names[:data.draw(st.integers(1, min(3, len(names))))]
            subs = [
                Subscription(
                    name, draw_filter(),
                    deadline_ms=data.draw(st.sampled_from([None, 9e3])),
                    price=data.draw(st.sampled_from([None, 2.0])),
                )
                for name in names
            ]
            sids = index.add(subs)  # the system registers first
            live.update((s.subscriber, s) for s in subs)
            rows: list[tuple[int, Route]] = []
            for i, name in enumerate(names):
                # Multi-path subscribers hold up to three rows; epochs are
                # the join watermark, sometimes later on a second path.
                for path_id in range(data.draw(st.integers(1, 3), label="paths")):
                    epoch = next_msg + data.draw(st.sampled_from([0, 0, 1]), label="epoch")
                    rows.append((i, draw_route(path_id, epoch)))
            if data.draw(st.booleans(), label="batch"):
                block = RowBlock(
                    sids[[i for i, _ in rows]], np.arange(len(rows)), [route for _, route in rows],
                )
                table.install_many(block)
                reference.install_many(block)
            else:
                for i, route in rows:
                    row = TableRow(subs[i], *route)
                    table.install(row)
                    reference.install(row)
        elif op == "leave" and live:
            leavers = data.draw(st.permutations(sorted(live)), label="leavers")
            leavers = leavers[:data.draw(st.integers(1, len(leavers)))]
            table.uninstall_many(leavers)
            reference.uninstall_many(leavers)
            index.discard(leavers)
            for name in leavers:
                del live[name]
        elif op == "publish":
            in_flight.append(Message(
                msg_id=next_msg, publisher="P1",
                source_broker=data.draw(st.sampled_from(["B1", "B7"])),
                attributes={"A1": data.draw(st.sampled_from([0.5, 3.0, 6.0, 9.0])),
                            "A2": data.draw(st.sampled_from([0.0, 3.0, 9.0]))},
                size_kb=5.0, publish_time=0.0,
            ))
            next_msg += 1
        # Every message still in flight is matched again after each step:
        # its cached verdicts are stale whenever the index moved since.
        for message in in_flight:
            assert_same_groups(table, reference, message)
        assert table.version == reference.version
        assert len(index.filters) == len({s.filter for s in live.values()})
    for message in in_flight:
        expected = sum(1 for s in live.values() if s.filter.matches(message.attributes))
        assert index.filters.interested(message) == expected


def test_a_join_with_a_new_filter_recomputes_a_cached_verdict():
    index = SubscriberIndex()
    table = SubscriptionTable(index)
    old = Subscription("S1", Predicate("A1", "<", 5.0))
    index.add([old])  # a shared index is kept by its owner
    table.install(TableRow(old, "B2", 1, Normal(1.0, 1.0), frozenset({"B1"})))
    message = Message(0, "P1", "B1", {"A1": 1.0}, 5.0, 0.0)
    assert [r.subscriber for r in table.match(message)] == ["S1"]
    cached = message.__dict__["_verdicts"]
    new = Subscription("S2", Predicate("A1", "<", 2.0))
    index.add([new])
    table.install(TableRow(new, "B2", 1, Normal(1.0, 1.0), frozenset({"B1"})))
    assert index.filters._version > cached[1]
    _, remote = table.match_grouped(message)
    assert remote["B2"].subscribers == ["S1", "S2"]
    assert len(message.__dict__["_verdicts"][2]) == 2


def test_filter_index_counts_by_value_and_retires_at_zero():
    index = FilterIndex()
    a, b = Predicate("A1", "<", 5.0), Predicate("A1", "<", 5.0)  # equal values, two objects
    fids = index.add([a, b, a, AndFilter([])])
    assert fids.tolist() == [0, 0, 0, 1] and len(index) == 2
    message = Message(0, "P1", "B1", {"A1": 1.0}, 5.0, 0.0)
    assert index.interested(message) == 4
    index.discard(np.array([0, 0], dtype=np.int64))
    assert index.interested(message) == 2 and len(index) == 2
    version = index._version
    index.discard(np.array([0], dtype=np.int64))  # the last one: fid 0 leaves the matcher
    assert len(index) == 1 and index._version == version + 1
    assert index.verdicts(message).tolist() == [False, True]
    assert index.add([a]).tolist() == [0]  # the value comes back to its fid
    with pytest.raises(KeyError):
        index.discard(np.array([1, 1], dtype=np.int64))  # more than is live


def _line_run(n_brokers: int, monkeypatch) -> tuple[int, int, int]:
    """Publish 12 messages across a line of brokers with subscribers at
    both ends and in the middle; return (publications, filter
    evaluations, table matches)."""
    calls = {"match_array": 0, "match_grouped": 0}
    targets = ((VectorCountingMatcher, "match_array"), (SubscriptionTable, "match_grouped"))
    for cls, method in targets:
        original = getattr(cls, method)

        def counted(self, *args, _original=original, _method=method):
            calls[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, method, counted)
    edges = {f"S{i}": f"B{1 + (i * (n_brokers - 1)) // 5}" for i in range(6)}
    system = PubSubSystem(
        topology=make_line_topology(n=n_brokers, publishers={"P1": "B1"}, subscribers=edges),
        strategy=EbStrategy(), sim=Simulator(), streams=RngStreams(3),
        config=SystemConfig(message_size_kb=5.0),
    )
    system.subscribe_all([
        Subscription(f"S{i}", POOL[i % len(POOL)], deadline_ms=60_000.0, price=1.0)
        for i in range(6)
    ])
    system.warm()
    for k in range(12):
        system.sim.schedule_at(
            300.0 * k, lambda a=float(k % 10): system.publish("P1", {"A1": a, "A2": 9.0 - a})
        )
    system.run()
    monkeypatch.undo()
    return system.metrics.published, calls["match_array"], calls["match_grouped"]


def test_filters_are_evaluated_once_per_publication_whatever_the_broker_count(monkeypatch):
    short = _line_run(3, monkeypatch)
    long = _line_run(8, monkeypatch)
    for published, evaluations, table_matches in (short, long):
        assert published == 12
        assert evaluations == published  # one per publication, at publish time
        assert table_matches > published  # ... read at every hop
    assert long[2] > short[2]  # more brokers, more table matches, same evaluations
