"""Builders shared by the core-layer tests."""

from __future__ import annotations

import numpy as np

from repro.core.context import SchedulingContext
from repro.core.strategies import QueueEntry
from repro.pubsub.filters import Predicate
from repro.pubsub.matching import PredicateColumns
from repro.pubsub.message import Message
from repro.pubsub.subscription import (
    Route,
    RowBlock,
    Subscription,
    SubscriptionTable,
    TableRow,
)
from repro.stats.normal import Normal

MATCH_ALL = Predicate("A1", "<", 1e9)


def make_message(
    msg_id: int = 1,
    publish_time: float = 0.0,
    size_kb: float = 50.0,
    deadline_ms: float | None = None,
) -> Message:
    return Message(
        msg_id=msg_id,
        publisher="P1",
        source_broker="B1",
        attributes={"A1": 1.0, "A2": 1.0},
        size_kb=size_kb,
        publish_time=publish_time,
        deadline_ms=deadline_ms,
    )


def make_row(
    subscriber: str = "S1",
    deadline_ms: float | None = 30_000.0,
    price: float | None = 1.0,
    nn: int = 2,
    mean: float = 100.0,
    variance: float = 400.0,
) -> TableRow:
    return TableRow(
        subscription=Subscription(
            subscriber=subscriber, filter=MATCH_ALL, deadline_ms=deadline_ms, price=price
        ),
        next_hop="B2",
        nn=nn,
        rate=Normal(mean, variance),
        sources=frozenset({"B1"}),
    )


def block_of(rows: list[TableRow]) -> RowBlock:
    """The ``install_many`` block equal to ``rows``, one route per row."""
    return RowBlock(
        subscriptions=[r.subscription for r in rows],
        preds=PredicateColumns.of([r.subscription.filter for r in rows]),
        route=np.arange(len(rows)),
        routes=[
            Route(r.next_hop, r.nn, r.rate, r.sources, r.path_id, r.min_msg_id)
            for r in rows
        ],
    )


def assert_same_table(
    table: SubscriptionTable, reference: SubscriptionTable, probes: list[Message]
) -> int:
    """Equal version and rows and, per probe message, equal grouped row
    ids and interned subscriber ids; returns the rows the probes matched."""
    assert table.version == reference.version
    assert table.rows() == reference.rows()
    matched = 0
    for message in probes:
        local, remote = table.match_grouped(message)
        ref_local, ref_remote = reference.match_grouped(message)
        assert list(remote) == list(ref_remote)
        for group, expected in [(local, ref_local), *((remote[h], ref_remote[h]) for h in remote)]:
            assert group.row_ids.tolist() == expected.row_ids.tolist()
            assert group.sub_ids.tolist() == expected.sub_ids.tolist()
            assert group.sub_names == expected.sub_names
            matched += len(group)
    return matched


def make_entry(
    message: Message | None = None,
    rows: list[TableRow] | None = None,
    enqueue_time: float = 0.0,
    seq: int = 0,
) -> QueueEntry:
    return QueueEntry(
        message=message or make_message(),
        rows=rows or [make_row()],
        enqueue_time=enqueue_time,
        seq=seq,
    )


def make_ctx(
    now: float = 0.0,
    pd: float = 2.0,
    ft: float = 3750.0,
    link_rate: Normal = Normal(75.0, 400.0),
) -> SchedulingContext:
    return SchedulingContext(now=now, processing_delay_ms=pd, ft_ms=ft, link_rate=link_rate)
