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
* intern every subscription once, in one
  :class:`~repro.pubsub.subscription.SubscriberIndex` shared by all broker
  tables, under the id that is also its delivery-log endpoint id; its
  filter lives in one :class:`~repro.pubsub.matching.FilterIndex`, so each
  publication is matched once, however many brokers it crosses;
* accept publications, count the interested population (the ``ts_i``
  denominator of Eq. 1) and inject the message at its source broker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core.chunked import DEFAULT_CHUNK_ROWS, ChunkedColumnStore
from repro.core.pruning import DEFAULT_EPSILON, PruningPolicy
from repro.core.settlement import first_marks
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
from repro.pubsub.subscription import Route, RowBlock, SubscriberIndex, Subscription, TableRow
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
        self.trace = TraceRecorder(enabled=self.config.enable_trace)
        #: Chunked columnar store behind every subscriber endpoint; brokers
        #: append whole local-delivery batches through the batch callback,
        #: sealed chunks spill to disk when ``log_spill`` is on.  The one
        #: record of a delivery: the metrics ledger reduces it.
        self.delivery_log = DeliveryLog(
            chunk_rows=self.config.log_chunk_rows, spill=self.config.log_spill
        )
        self.metrics = self.metrics_type.for_log(self.delivery_log)

        self.brokers: dict[str, Broker] = {}
        self.monitors: dict[tuple[str, str], LinkMonitor] = {}
        self.subscribers: dict[str, SubscriberHandle] = {}
        self.publishers: dict[str, PublisherHandle] = {}
        #: Every live subscription's filter: a publication is matched
        #: once, here, and each table gathers the verdicts by fid.
        self.filters = FilterIndex()
        #: Every subscription ever registered, under its endpoint id; the
        #: broker tables store rows as (its id, route id).  Ids of leavers
        #: stay, so their tier can still be billed.
        self.subscriber_index = SubscriberIndex(self.filters)
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
                index=self.subscriber_index,
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

    def __getstate__(self) -> dict:
        """Everything but the subscriber handles: each is a view of a
        name, the delivery log and an endpoint id, which the subscriber
        index and the log already hold."""
        state = self.__dict__.copy()
        del state["subscribers"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # The live-name map keeps the handles' order: registration order,
        # leavers removed, re-joiners at the end.
        log = self.delivery_log
        self.subscribers = {
            name: SubscriberHandle(name, log=log, log_id=sid)
            for name, sid in self.subscriber_index.live.items()
        }

    def _make_deliver(self, dst: str) -> Callable[[Message], None]:
        broker = self.brokers[dst]
        return broker.receive

    def _on_local_delivery_batch(self, broker: Broker, group, message: Message, latency: float, valid) -> None:
        """Record one message's local fan-out in the shared delivery log:
        one vectorised append per batch, under the rows' subscription ids,
        which are their endpoint ids, each row marked with whether it is
        the first arrival of its (message, endpoint) pair.

        An endpoint's local rows live in its edge broker's table alone, so
        a pair can only repeat as a second local delivery of the message
        at this broker: the batch is settled against the ids delivered
        there before, which the message carries (``_arrivals``, pickled
        with it).  A group's ids are distinct, so a first delivery at a
        broker marks every row with a broadcast ``True``.  The ids are
        kept as int32, the log's id width."""
        sub_ids = group.sub_ids.astype(np.int32)
        arrivals = message.__dict__.setdefault("_arrivals", {})
        first = first_marks(arrivals.setdefault(broker.name, []), sub_ids, distinct=True)
        self.delivery_log.append_batch(
            sub_ids, message.msg_id, self.sim.now, latency, valid, first
        )

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
            if name in self.subscriber_index.live or name in seen:
                raise ValueError(f"subscriber {name!r} already has a subscription")
            edge = edge_of.get(name)
            if edge is None:
                raise TopologyError(f"subscriber {name!r} is not attached to any broker")
            seen.add(name)
            edges.append(edge)
        return edges

    def _register(self, subscriptions: list[Subscription]) -> np.ndarray:
        """Enter a validated batch into the subscriber index and the
        delivery log, under the same ids; returns them."""
        index, log = self.subscriber_index, self.delivery_log
        if log.endpoint_count != len(index):
            raise MetricsError(
                f"delivery log has {log.endpoint_count} endpoints "
                f"but {len(index)} subscriptions: endpoints were registered elsewhere"
            )
        sids = index.add(subscriptions)
        names = [s.subscriber for s in subscriptions]
        log.register_many(names, [1.0 if s.price is None else s.price for s in subscriptions])
        self.subscribers.update(
            (name, SubscriberHandle(name, log=log, log_id=sid))
            for name, sid in zip(names, sids.tolist())
        )
        return sids

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
        order — per-table row ids and the subscription (= endpoint) ids
        are all the same — but each broker takes its rows as one columnar
        :class:`~repro.pubsub.subscription.RowBlock` instead of one row
        object per (subscriber, on-path broker) pair.
        The batch is validated first: a repeated, unattached or already
        subscribed name raises with nothing installed or registered.
        """
        subscriptions = list(subscriptions)
        edges = self._edges_of_new([s.subscriber for s in subscriptions])
        if not subscriptions:
            return
        sids = self._register(subscriptions)
        if self.config.routing_paths > 1:
            for subscription, edge in zip(subscriptions, edges):
                self._install_multi_path(subscription, edge)
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
            self.brokers[node].install_many(RowBlock(sids[members[order]], route[order], routes))

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
        name in order, but each broker drops its rows in one ``drop`` by a
        mask over subscription ids.  An unknown or repeated name raises
        before any table is touched.  Returns the endpoint handles, in name order."""
        subscribers = list(subscribers)
        index = self.subscriber_index
        leaving = np.zeros(len(index), dtype=bool)
        for name in subscribers:
            sid = index.live.get(name)
            if sid is None or leaving[sid]:
                raise KeyError(f"no subscription for {name!r}")
            leaving[sid] = True
        for broker in self.brokers.values():
            broker.table.drop(leaving)
        index.discard(subscribers)
        self.unsubscribe_count += len(subscribers)
        return [self.subscribers.pop(name) for name in subscribers]

    @property
    def subscription_count(self) -> int:
        return len(self.subscriber_index.live)

    def subscription(self, subscriber: str) -> Subscription:
        """The live subscription registered under ``subscriber``."""
        index = self.subscriber_index
        return index.subscriptions[index.live[subscriber]]

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
        """Price per delivery-log endpoint id (1.0 where unpriced): the
        log's live column, read, do not write."""
        return self.delivery_log.endpoint_prices()

    def endpoint_deadlines(self) -> np.ndarray:
        """Deadline per delivery-log endpoint id (NaN where none)."""
        return np.array(
            [s.deadline_ms for s in self.subscriber_index.subscriptions], dtype=np.float64
        )

    def routing_path(self, source_broker: str, subscriber: str) -> list[str]:
        """The single path a message from ``source_broker`` takes to reach
        ``subscriber`` (diagnostics/tests)."""
        edge = self.topology.subscriber_brokers[subscriber]
        return self._sink_tree(edge).path_from(source_broker)
