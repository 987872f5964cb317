"""System assembly: topology + strategy -> a running broker overlay.

Responsibilities:

* instantiate one :class:`~repro.pubsub.broker.Broker` per topology node
  and two :class:`~repro.network.link.DirectedLink` channels per edge
  (TCP is full-duplex; each direction serialises independently);
* attach a :class:`~repro.network.measurement.LinkMonitor` per direction
  (oracle or estimated parameters);
* install subscriptions: for each subscriber, compute the min-mean-TR sink
  tree rooted at its edge broker, then place one
  :class:`~repro.pubsub.subscription.TableRow` on every broker lying on a
  routed path from some publisher-hosting broker, recording *which*
  source brokers route through it.  The provenance check in
  :meth:`SubscriptionTable.match` then guarantees each (message,
  subscriber) pair travels exactly one path — single-path routing with no
  duplicate deliveries, as Section 3.3 requires;
* keep every live subscription's filter in one
  :class:`~repro.pubsub.matching.FilterIndex`, so each publication is
  matched once, however many brokers it crosses;
* accept publications, count the interested population (the ``ts_i``
  denominator of Eq. 1) and inject the message at its source broker.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Mapping

import numpy as np

from repro.core.chunked import DEFAULT_CHUNK_ROWS, ChunkedColumnStore
from repro.core.pruning import DEFAULT_EPSILON, PruningPolicy
from repro.core.strategies import Strategy
from repro.des.rng import RngStreams
from repro.des.simulator import Simulator
from repro.des.trace import TraceRecorder
from repro.network.link import DirectedLink
from repro.network.measurement import ESTIMATOR_FACTORIES, LinkMonitor, MeasurementMode
from repro.network.paths import path_distribution
from repro.network.routing import SinkTree, compute_sink_tree, k_shortest_paths
from repro.network.topology import Topology, TopologyError
from repro.pubsub.broker import Broker
from repro.pubsub.client import DeliveryLog, PublisherHandle, SubscriberHandle
from repro.pubsub.engine import FusedEngine
from repro.pubsub.faults import FaultLedger
from repro.pubsub.matching import FilterIndex
from repro.pubsub.message import Message
from repro.pubsub.metrics import LedgerMetricsCollector, MetricsError
from repro.pubsub.subscription import Route, RowBlock, Subscription, TableRow
from repro.stats.normal import Normal


#: Multi-path routing bounds path enumeration to the hop-shortest route
#: plus this many extra hops.
MULTI_PATH_EXTRA_HOPS = 2


@dataclass(frozen=True)
class SystemConfig:
    """Knobs shared by every broker in the system.

    Defaults are the paper's simulation setup: 2 ms processing delay,
    ε = 0.05 %, 50 KB messages, oracle link parameters, single-path
    routing.  :class:`~repro.sim.config.SimulationConfig` extends this
    class, so every knob here is declared, defaulted and checked once.
    """

    processing_delay_ms: float = 2.0
    epsilon: float = DEFAULT_EPSILON
    #: Size of a published message unless the publisher says otherwise;
    #: also the ``FT`` input before a broker has processed any message.
    message_size_kb: float = 50.0
    measurement_mode: MeasurementMode = MeasurementMode.ORACLE
    pruning_override: PruningPolicy | None = None
    #: Extra per-hop planning allowance inside ``success()``; 0 is the
    #: paper (downstream scheduling delay assumed 0).
    scheduling_slack_per_hop_ms: float = 0.0
    #: 1 = the paper's single-path routing (Section 3.3); k > 1 installs
    #: up to k lowest-mean simple paths per (publisher broker,
    #: subscriber) pair — the DCP-style alternative the paper contrasts
    #: itself against — and the metrics layer settles duplicates once.
    routing_paths: int = 1
    enable_trace: bool = False
    #: Estimator used by ESTIMATED link monitors ("welford" | "window" |
    #: "ewma"); forgetting estimators adapt to runtime rate changes.
    link_estimator: str = "welford"
    #: Spill sealed delivery-/publication-log chunks to a temp ``.npz``
    #: ring, keeping only the active chunk in RAM — the bounded-memory
    #: scale tier.  Decision- and byte-neutral: analysis reductions
    #: stream the same chunks either way.
    log_spill: bool = False
    #: Rows per sealed log chunk; smaller chunks lower the memory
    #: high-water mark under spill at the cost of more seal/load churn.
    log_chunk_rows: int = DEFAULT_CHUNK_ROWS

    def __post_init__(self) -> None:
        if self.log_chunk_rows < 1:
            raise ValueError(
                f"log_chunk_rows must be >= 1, got {self.log_chunk_rows}"
            )
        if self.link_estimator not in ESTIMATOR_FACTORIES:
            raise ValueError(
                f"link_estimator must be one of {sorted(ESTIMATOR_FACTORIES)}, "
                f"got {self.link_estimator!r}"
            )
        if self.processing_delay_ms < 0.0:
            raise ValueError("processing_delay_ms must be non-negative")
        if self.scheduling_slack_per_hop_ms < 0.0:
            raise ValueError("scheduling_slack_per_hop_ms must be non-negative")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.message_size_kb <= 0.0:
            raise ValueError("message_size_kb must be positive")
        if self.routing_paths < 1:
            raise ValueError(f"routing_paths must be >= 1, got {self.routing_paths}")


class PubSubSystem:
    """A fully wired overlay ready to publish into.

    This is the production stack.  Its components are named once, as class
    attributes; :mod:`repro.reference` assembles the reference stack by
    subclassing and overriding them.
    """

    broker_type: type = Broker
    metrics_type: type = LedgerMetricsCollector

    def __init__(
        self,
        topology: Topology,
        strategy: Strategy,
        sim: Simulator,
        streams: RngStreams,
        config: SystemConfig | None = None,
    ) -> None:
        if not topology.is_connected():
            raise TopologyError("topology must be connected")
        self.topology = topology
        self.strategy = strategy
        self.sim = sim
        self.streams = streams
        self.config = config or SystemConfig()
        self.metrics = self.metrics_type()
        self.trace = TraceRecorder(enabled=self.config.enable_trace)
        #: Chunked columnar store behind every subscriber endpoint; brokers
        #: append whole local-delivery batches through the batch callback,
        #: sealed chunks spill to disk when ``log_spill`` is on.
        self.delivery_log = DeliveryLog(
            chunk_rows=self.config.log_chunk_rows, spill=self.config.log_spill
        )
        # Per-broker translation of table-interned subscriber ids to
        # endpoint log ids (−1 = no live endpoint).  Maintained
        # incrementally: new interned names extend the tail, and a
        # subscribe/unsubscribe batch patches its slots per broker — no
        # full rebuilds on churn.
        self._endpoint_ids: dict[str, np.ndarray] = {}

        self.brokers: dict[str, Broker] = {}
        self.monitors: dict[tuple[str, str], LinkMonitor] = {}
        self.subscribers: dict[str, SubscriberHandle] = {}
        self.publishers: dict[str, PublisherHandle] = {}
        self._subscriptions: dict[str, Subscription] = {}
        #: Every live subscription's filter, shared by all broker tables:
        #: a publication is matched once, here, and each table gathers
        #: the verdicts through its fid column.
        self.filters = FilterIndex()
        #: subscriber -> the fid its subscription holds live in ``filters``.
        self._fid_of_subscriber: dict[str, int] = {}
        self._sink_trees: dict[str, SinkTree] = {}
        #: Single-path install plans per edge broker, tagged with the
        #: publisher-broker count they were computed under (attaching a
        #: publisher can add a source broker; link-rate changes clear the
        #: cache with the sink trees).  100k subscribers share a few
        #: dozen edge brokers, so routing is computed per *edge*, not per
        #: subscriber.
        self._install_plans: dict[str, tuple[int, list]] = {}
        self._next_msg_id = 0
        #: Build-time link distributions, keyed ``(a, b)`` with a < b —
        #: the restore point for degrade/recover interventions.
        self._built_rates: dict[tuple[str, str], Normal] = {}
        #: Shared conservation/dead-letter ledger (see :mod:`repro.pubsub.
        #: faults`); all brokers write into this one instance.
        self.faults = FaultLedger()
        #: Hard-failed links, keyed ``(a, b)`` with a < b, and brokers
        #: currently down; per-direction ``DirectedLink.up`` is derived
        #: from these (a link is up iff it isn't failed and neither
        #: endpoint broker is down).
        self._failed_links: set[tuple[str, str]] = set()
        self._down_brokers: set[str] = set()
        #: Mid-run unsubscribe count.  Joins are watermarked and safe, but
        #: a leave can orphan in-flight pairs, which breaks the exact
        #: pair-conservation identity; the sentinel consults this to know
        #: whether that deep check is applicable.
        self.unsubscribe_count = 0
        #: Price per endpoint log id, fixed at subscribe time (what the
        #: metrics layer bills for that endpoint's valid deliveries);
        #: lets the windowed time-series fold earnings without a join.
        self._endpoint_price: list[float] = []
        #: Deadline per endpoint log id (``None`` = none bought), beside
        #: the price: together the tier an endpoint belongs to, kept for
        #: endpoints that have since left (revenue breakdowns bill them).
        self._endpoint_deadline: list[float | None] = []
        # Publication log (msg_id is the dense index): publish times and
        # interested-population sizes, for windowed time-series analysis.
        # Chunked like the delivery log, and spilled under the same knob.
        self._pub_log = ChunkedColumnStore(
            (("time", np.float64), ("interested", np.int64)),
            chunk_rows=self.config.log_chunk_rows,
            spill=self.config.log_spill,
            spill_prefix="repro-publication-log",
        )

        #: The event-pipeline driver behind :meth:`run`.
        self._engine = FusedEngine(sim)

        self._build_brokers()
        self._wire_links()
        for pub in sorted(topology.publisher_brokers):
            self.publishers[pub] = PublisherHandle(pub, self)

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #
    def _build_brokers(self) -> None:
        for name in self.topology.brokers:
            broker = self.broker_type(
                name, self.sim, self.strategy, self.metrics, self.config,
                trace=self.trace if self.config.enable_trace else None,
                faults=self.faults,
                filters=self.filters,
            )
            broker.delivery_batch_callbacks.append(self._on_local_delivery_batch)
            self.brokers[name] = broker

    def _wire_links(self) -> None:
        for a, b, rate in self.topology.links():
            self._built_rates[(a, b)] = rate
            for src, dst in ((a, b), (b, a)):
                rng = self.streams.get(f"link:{src}->{dst}")
                link = DirectedLink(src, dst, rate, rng)
                monitor = LinkMonitor(
                    link,
                    mode=self.config.measurement_mode,
                    estimator_factory=ESTIMATOR_FACTORIES[self.config.link_estimator],
                )
                self.monitors[(src, dst)] = monitor
                self.brokers[src].add_neighbor(
                    dst, link, monitor, self._make_deliver(dst)
                )

    def _make_deliver(self, dst: str) -> Callable[[Message], None]:
        broker = self.brokers[dst]
        return broker.receive

    def _on_local_delivery_batch(self, broker: Broker, group, message: Message, latency: float, valid) -> None:
        """Record one message's local fan-out in the shared delivery log.

        One vectorised append per batch: the group's table-interned
        subscriber ids are gathered through a per-broker translation array
        (rebuilt only when a subscription is added/removed or the table
        interned new names).  Rows whose subscriber no longer has a live
        endpoint (unsubscribed while copies were in flight) map to id −1
        and are dropped by the log.
        """
        names = group.sub_names
        cached = self._endpoint_ids.get(broker.name)
        if cached is None or cached.shape[0] < len(names):
            start = 0 if cached is None else cached.shape[0]
            get = self.subscribers.get
            tail = np.fromiter(
                (-1 if (h := get(s)) is None else h.log_id for s in names[start:]),
                dtype=np.int64, count=len(names) - start,
            )
            cached = tail if cached is None else np.concatenate((cached, tail))
            self._endpoint_ids[broker.name] = cached
        self.delivery_log.append_batch(
            cached[group.sub_ids], message.msg_id, self.sim.now, latency, valid
        )

    def _patch_endpoint_ids(self, names: list[str], log_ids) -> None:
        """Point the subscribers' slots at new endpoint ids (−1 = gone) in
        every broker cache that already covers them."""
        log_ids = np.broadcast_to(np.asarray(log_ids, dtype=np.int64), len(names))
        for broker_name, ids in self._endpoint_ids.items():
            sid_of = self.brokers[broker_name].table._sub_id_of.get
            sids = np.fromiter(
                map(sid_of, names, repeat(-1)), dtype=np.int64, count=len(names)
            )
            covered = (sids >= 0) & (sids < ids.shape[0])
            ids[sids[covered]] = log_ids[covered]

    # ------------------------------------------------------------------ #
    # Subscriptions.
    # ------------------------------------------------------------------ #
    def _sink_tree(self, edge_broker: str) -> SinkTree:
        tree = self._sink_trees.get(edge_broker)
        if tree is None:
            tree = compute_sink_tree(self.topology, edge_broker)
            self._sink_trees[edge_broker] = tree
        return tree

    def subscribe(self, subscription: Subscription) -> SubscriberHandle:
        """Install a subscription along all routed paths toward it.

        The subscriber must be attached to a broker in the topology.  Rows
        are installed on every broker on the routed path(s) from each
        publisher-hosting broker to the subscriber's edge broker; each row
        records the set of source brokers that route through it.  With
        multi-path routing, one row per (path, broker) is installed.

        Subscribing mid-run (churn waves, flash crowds) is supported: the
        rows carry the current message-id watermark, so the subscriber
        sees exactly the messages published after it joined — never an
        in-flight older message, which would break the ``ds_i <= ts_i``
        accounting invariant.
        """
        self.subscribe_all([subscription])
        return self.subscribers[subscription.subscriber]

    def _edges_of_new(self, names: list[str]) -> list[str]:
        """The edge brokers of subscribers about to be registered.  The
        whole batch is checked — unique, attached, not yet subscribed —
        so a bad entry raises before anything is mutated."""
        edge_of = self.topology.subscriber_brokers
        seen: set[str] = set()
        edges = []
        for name in names:
            if name in self._subscriptions or name in seen:
                raise ValueError(f"subscriber {name!r} already has a subscription")
            edge = edge_of.get(name)
            if edge is None:
                raise TopologyError(f"subscriber {name!r} is not attached to any broker")
            seen.add(name)
            edges.append(edge)
        return edges

    def _register(self, subscriptions: list[Subscription], fids: np.ndarray) -> None:
        """Enter installed subscriptions into registry and log."""
        # Endpoint ids are handed out sequentially and only here, so the
        # price list stays index-aligned with the shared delivery log.
        first = len(self._endpoint_price)
        if self.delivery_log.endpoint_count != first:
            raise MetricsError(
                f"delivery log has {self.delivery_log.endpoint_count} endpoints "
                f"but {first} are priced: endpoints were registered elsewhere"
            )
        names = [s.subscriber for s in subscriptions]
        self._subscriptions.update(zip(names, subscriptions))
        self._fid_of_subscriber.update(zip(names, fids.tolist()))
        self.subscribers.update(
            (name, SubscriberHandle(name, log=self.delivery_log)) for name in names
        )
        self._endpoint_price.extend(
            1.0 if s.price is None else s.price for s in subscriptions
        )
        self._endpoint_deadline.extend(s.deadline_ms for s in subscriptions)
        self._patch_endpoint_ids(names, np.arange(first, first + len(names)))

    def _install_plan(self, edge: str) -> list[tuple[str, Route]]:
        """The single-path install plan shared by every subscriber at one
        edge broker: ``(node, route)`` per on-path broker, in the
        canonical walk order.  Cached per edge — and recomputed if a
        publisher attached since (new source broker)."""
        n_pubs = len(self.topology.publisher_brokers)
        cached = self._install_plans.get(edge)
        if cached is not None and cached[0] == n_pubs:
            return cached[1]
        tree = self._sink_tree(edge)
        on_path_sources: dict[str, set[str]] = {}
        for source in sorted(set(self.topology.publisher_brokers.values())):
            for node in tree.path_from(source):
                on_path_sources.setdefault(node, set()).add(source)
        plan = []
        for node, sources in on_path_sources.items():
            entry = tree.entry(node)
            plan.append((node, Route(
                entry.next_hop,
                entry.nn,
                entry.rate if entry.next_hop is not None else Normal(0.0, 0.0),
                frozenset(sources),
            )))
        self._install_plans[edge] = (n_pubs, plan)
        return plan

    def _install_multi_path(self, subscription: Subscription, edge: str) -> None:
        path_id = 0
        for source in sorted(set(self.topology.publisher_brokers.values())):
            if source == edge:
                paths: list[list[str]] = [[edge]]
            else:
                min_hops = self.topology.hop_distance(source, edge)
                paths = k_shortest_paths(
                    self.topology, source, edge, k=self.config.routing_paths,
                    cutoff=min_hops + MULTI_PATH_EXTRA_HOPS,
                )
            for path in paths:
                for i, node in enumerate(path):
                    suffix = path[i:]
                    self.brokers[node].install(
                        TableRow(
                            subscription=subscription,
                            next_hop=path[i + 1] if i + 1 < len(path) else None,
                            nn=len(suffix) - 1,
                            rate=path_distribution(self.topology, suffix),
                            sources=frozenset({source}),
                            path_id=path_id,
                            min_msg_id=self._next_msg_id,
                        )
                    )
                path_id += 1

    def subscribe_all(self, subscriptions: list[Subscription]) -> None:
        """Install a batch of subscriptions (a population, a churn wave).

        End state is identical to calling :meth:`subscribe` per entry in
        order — per-table row order, interned ids and endpoint ids are
        all the same — but each broker takes its rows as one columnar
        :class:`~repro.pubsub.subscription.RowBlock` instead of one row
        object per (subscriber, on-path broker) pair.
        The batch is validated first: a repeated, unattached or already
        subscribed name raises with nothing installed or registered.
        """
        subscriptions = list(subscriptions)
        edges = self._edges_of_new([s.subscriber for s in subscriptions])
        if not subscriptions:
            return
        fids = self.filters.add([s.filter for s in subscriptions])
        if self.config.routing_paths > 1:
            for subscription, edge in zip(subscriptions, edges):
                self._install_multi_path(subscription, edge)
            self._register(subscriptions, fids)
            return
        min_msg = self._next_msg_id
        members_of_edge: dict[str, list[int]] = {}
        for i, edge in enumerate(edges):
            members_of_edge.setdefault(edge, []).append(i)
        # Every subscriber of an edge shares that edge's plan: a broker's
        # block is the member lists of the edges routed through it, merged
        # back into subscription order.
        per_broker: dict[str, tuple[list[list[int]], list[Route]]] = {}
        for edge, members in members_of_edge.items():
            for node, route in self._install_plan(edge):
                parts, routes = per_broker.setdefault(node, ([], []))
                parts.append(members)
                routes.append(route._replace(min_msg_id=min_msg))
        for node, (parts, routes) in per_broker.items():
            members = np.concatenate(parts)
            order = np.argsort(members, kind="stable")
            route = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
            rows = members[order]
            self.brokers[node].install_many(RowBlock(
                [subscriptions[i] for i in rows.tolist()], fids[rows],
                route[order], routes,
            ))
        self._register(subscriptions, fids)

    def unsubscribe(self, subscriber: str) -> SubscriberHandle:
        """Remove a subscription from every broker that holds a row for it.

        In-flight queue copies are not chased: their entries still carry
        the old rows and will either deliver (the endpoint handle is kept
        and returned so late records remain inspectable) or be pruned.
        This mirrors real systems, where unsubscription propagates as
        state-change messages and races in-flight data.
        """
        return self.unsubscribe_all([subscriber])[0]

    def unsubscribe_all(self, subscribers: list[str]) -> list[SubscriberHandle]:
        """Batch :meth:`unsubscribe`: end state identical to one call per
        name in order, but each broker drops its rows in one
        ``uninstall_many``.  An unknown or repeated name raises before any
        table is touched.  Returns the endpoint handles, in name order."""
        subscribers = list(subscribers)
        seen: set[str] = set()
        for name in subscribers:
            if name not in self._subscriptions or name in seen:
                raise KeyError(f"no subscription for {name!r}")
            seen.add(name)
        for broker in self.brokers.values():
            held = broker.table.held(subscribers)
            if held:
                broker.table.uninstall_many(held)
        for name in subscribers:
            del self._subscriptions[name]
        self.filters.discard(np.fromiter(
            map(self._fid_of_subscriber.pop, subscribers), dtype=np.int64, count=len(subscribers)
        ))
        self._patch_endpoint_ids(subscribers, -1)
        self.unsubscribe_count += len(subscribers)
        return [self.subscribers.pop(name) for name in subscribers]

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)

    def subscription(self, subscriber: str) -> Subscription:
        """The live subscription registered under ``subscriber``."""
        return self._subscriptions[subscriber]

    # ------------------------------------------------------------------ #
    # Publishing.
    # ------------------------------------------------------------------ #
    def publish(
        self,
        publisher: str,
        attributes: Mapping[str, float],
        size_kb: float | None = None,
        deadline_ms: float | None = None,
    ) -> Message:
        """Publish now: stamp, count the interested population, inject."""
        source = self.topology.publisher_brokers.get(publisher)
        if source is None:
            raise TopologyError(f"publisher {publisher!r} is not attached to any broker")
        message = Message(
            msg_id=self._next_msg_id,
            publisher=publisher,
            source_broker=source,
            attributes=dict(attributes),
            size_kb=size_kb if size_kb is not None else self.config.message_size_kb,
            publish_time=self.sim.now,
            deadline_ms=deadline_ms,
        )
        self._next_msg_id += 1
        interested = self._interested(message)
        self.metrics.on_publish(message.msg_id, interested)
        self._pub_log.append_row(message.publish_time, interested)
        if source in self._down_brokers:
            # The source broker is offline: the publication still counts
            # against the interested population (those subscribers really
            # did miss it) but never enters the overlay.  Fully accounted
            # in the dead-letter ledger, so conservation balances.
            self.faults.on_publish_drop(interested)
            return message
        self.brokers[source].receive(message)
        return message

    def _interested(self, message: Message) -> int:
        """The interested population of a publication: the live counts of
        the filters it satisfies (its verdicts stay cached on it for the
        brokers it reaches)."""
        return self.filters.interested(message)

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #
    def warm(self) -> None:
        """Compile the filter index, every broker table and its route
        plans eagerly.

        All of these build lazily on first use; at the 100k tier that
        "first use" lands inside the measured hot loop and is seconds of
        one-off list-to-array conversion.  Warming after the tables are
        populated reaches the identical compiled state ahead of time, so
        run-phase timings measure steady-state matching only.
        """
        self.filters.warm()
        for broker in self.brokers.values():
            broker.table.warm()

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drive the simulation: exactly :meth:`Simulator.run`
        (closed-interval ``until``, drained-early clock advance,
        executed-event count), through :class:`FusedEngine`."""
        return self._engine.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------ #
    # Runtime interventions (the dynamics subsystem's write API).
    # ------------------------------------------------------------------ #
    def set_link_rate(self, a: str, b: str, rate: Normal) -> None:
        """Change a link's true rate at runtime — real failure injection.

        Propagates through every layer that holds the distribution: the
        static topology, both live :class:`DirectedLink` directions (the
        next transmission samples the new rate) and, via the links' rate
        listeners, the :class:`LinkMonitor` pinned ORACLE caches.
        ESTIMATED monitors are deliberately *not* told: they keep
        measuring and adapt at their estimator's pace.  Cached sink trees
        are dropped so later subscriptions route on current rates;
        already-installed rows keep their build-time routes (routing is
        static per subscription, as in the paper).
        """
        if (min(a, b), max(a, b)) not in self._built_rates:
            raise TopologyError(f"no link {a!r}-{b!r}")
        self.topology.set_link_rate(a, b, rate)
        for src, dst in ((a, b), (b, a)):
            self.monitors[(src, dst)].link.set_true_rate(rate)
        self._sink_trees.clear()
        self._install_plans.clear()

    def degrade_link(self, a: str, b: str, factor: float) -> None:
        """Slow link ``a–b`` by ``factor`` relative to its *build-time*
        rate (mean and std scale linearly; rates are ms/KB, so factor > 1
        degrades).  Repeated degrades therefore don't compound."""
        if factor <= 0.0:
            raise ValueError(f"factor must be positive, got {factor}")
        base = self.built_link_rate(a, b)
        self.set_link_rate(a, b, Normal(base.mean * factor, base.variance * factor * factor))

    def recover_link(self, a: str, b: str) -> None:
        """Restore link ``a–b`` to its build-time distribution."""
        self.set_link_rate(a, b, self.built_link_rate(a, b))

    def built_link_rate(self, a: str, b: str) -> Normal:
        """The distribution link ``a–b`` was built with."""
        try:
            return self._built_rates[(min(a, b), max(a, b))]
        except KeyError:
            raise TopologyError(f"no link {a!r}-{b!r}") from None

    # ------------------------------------------------------------------ #
    # Hard faults: link failures, broker outages, partitions.
    # ------------------------------------------------------------------ #
    def _link_key(self, a: str, b: str) -> tuple[str, str]:
        key = (min(a, b), max(a, b))
        if key not in self._built_rates:
            raise TopologyError(f"no link {a!r}-{b!r}")
        return key

    def _refresh_link(self, a: str, b: str) -> None:
        """Derive both directions' ``up`` flags from the fault state and
        fire the owning broker's retry hook on a down → up transition."""
        key = (min(a, b), max(a, b))
        should_up = (
            key not in self._failed_links
            and a not in self._down_brokers
            and b not in self._down_brokers
        )
        for src, dst in ((a, b), (b, a)):
            link = self.monitors[(src, dst)].link
            was_up = link.up
            if should_up:
                link.restore()
                if not was_up:
                    self.brokers[src].on_link_up(dst)
            else:
                link.fail()

    def fail_link(self, a: str, b: str) -> None:
        """Hard-down link ``a–b`` (both directions).  An in-flight
        transmission completes; the next send attempt enters the broker's
        retry/dead-letter path.  Idempotent."""
        self._failed_links.add(self._link_key(a, b))
        self._refresh_link(a, b)

    def restore_link_up(self, a: str, b: str) -> None:
        """Undo :meth:`fail_link` (the link may stay down if an endpoint
        broker is itself down).  Idempotent."""
        self._failed_links.discard(self._link_key(a, b))
        self._refresh_link(a, b)

    def fail_broker(self, name: str) -> None:
        """Take a broker offline: every adjacent link direction goes down
        and publications sourced at it are dropped (and accounted).
        Messages already *inside* the broker keep processing and
        delivering locally — a degraded island, as a real broker process
        losing its uplinks would.  Idempotent."""
        if name not in self.brokers:
            raise TopologyError(f"no broker {name!r}")
        self._down_brokers.add(name)
        for neighbor in self.brokers[name].queues:
            self._refresh_link(name, neighbor)

    def recover_broker(self, name: str) -> None:
        """Bring a broker back online; adjacent links come back up unless
        independently failed.  Idempotent."""
        if name not in self.brokers:
            raise TopologyError(f"no broker {name!r}")
        self._down_brokers.discard(name)
        for neighbor in self.brokers[name].queues:
            self._refresh_link(name, neighbor)

    def partition(self, group: frozenset[str] | set[str]) -> list[tuple[str, str]]:
        """Fail every link with exactly one endpoint in ``group`` — a
        network partition isolating the group.  Returns the failed keys
        (sorted) so the heal can be exact."""
        unknown = set(group) - set(self.brokers)
        if unknown:
            raise TopologyError(f"unknown brokers in partition group: {sorted(unknown)}")
        crossing = sorted(
            key for key in self._built_rates
            if (key[0] in group) != (key[1] in group)
        )
        for a, b in crossing:
            self.fail_link(a, b)
        return crossing

    def heal_partition(self, group: frozenset[str] | set[str]) -> None:
        """Restore every link :meth:`partition` would fail for ``group``."""
        for a, b in self.partition_links(group):
            self.restore_link_up(a, b)

    def partition_links(self, group: frozenset[str] | set[str]) -> list[tuple[str, str]]:
        """The crossing-link keys for ``group`` (no state change)."""
        return sorted(
            key for key in self._built_rates
            if (key[0] in group) != (key[1] in group)
        )

    def link_up(self, a: str, b: str) -> bool:
        """True iff both directions of ``a–b`` are up."""
        self._link_key(a, b)
        return self.monitors[(a, b)].link.up and self.monitors[(b, a)].link.up

    @property
    def down_brokers(self) -> frozenset[str]:
        return frozenset(self._down_brokers)

    @property
    def failed_links(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._failed_links)

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    def total_queued(self) -> int:
        return sum(b.queued_entries() for b in self.brokers.values())

    def publication_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(publish_time, interested)`` arrays indexed by msg_id
        (whole-log snapshot copies; prefer :meth:`publication_chunks`
        at scale)."""
        return self._pub_log.gather()  # type: ignore[return-value]

    def publication_chunks(self):
        """Stream ``(publish_time, interested)`` per chunk, msg_id order."""
        return self._pub_log.iter_chunks()

    def endpoint_prices(self) -> np.ndarray:
        """Price per delivery-log endpoint id (1.0 where unpriced)."""
        return np.asarray(self._endpoint_price, dtype=np.float64)

    def endpoint_deadlines(self) -> np.ndarray:
        """Deadline per delivery-log endpoint id (NaN where none)."""
        return np.array(self._endpoint_deadline, dtype=np.float64)

    def routing_path(self, source_broker: str, subscriber: str) -> list[str]:
        """The single path a message from ``source_broker`` takes to reach
        ``subscriber`` (diagnostics/tests)."""
        edge = self.topology.subscriber_brokers[subscriber]
        return self._sink_tree(edge).path_from(source_broker)
