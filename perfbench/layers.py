"""Which callables the traced run wraps, and the per-layer metrics it yields.

Layers are named after the program's modules.  Span names are metric stems:
the span ``core.queueing.pop_best`` feeds ``core.queueing.pop_best_s`` (self
seconds), ``core.queueing.pops`` (calls) and the ``_us_p50``/``_us_p99``
percentiles.  The six ``stage.*`` spans come from the program's own
``repro.core.profiling`` timers; each is folded into the layer whose
boundary it marks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.core import profiling

from perfbench.tracing import StageSpans, Tracer, TraceSummary


def _matched_rows(_args: tuple, result: Any) -> int:
    local, remote = result
    return len(local) + sum(len(group) for group in remote.values())


#: ``(target, span name[, options])``.  A function that a module imported
#: by name (``from x import f``) is wrapped where it is looked up.
TARGETS: tuple[tuple, ...] = (
    ("repro.sim.runner:build_system", "sim.runner.build_system"),
    ("repro.sim.runner:schedule_workload", "sim.runner.schedule_workload"),
    ("repro.sim.runner:schedule_dynamics", "sim.runner.schedule_dynamics"),
    ("repro.network.topology:build_layered_mesh", "network.topology.build"),
    ("repro.pubsub.system:compute_sink_tree", "network.routing.sink_tree"),
    ("repro.network.link:DirectedLink.draw_transmission_time", "network.link.draw"),
    ("repro.workload.scenarios:build_subscriptions", "workload.scenarios.subscriptions"),
    ("repro.workload.scenarios:build_scale_subscriptions", "workload.scenarios.subscriptions"),
    ("repro.sim.runner:generate_publications_piecewise", "workload.generator.publications",
     {"count": lambda _args, result: len(result)}),
    ("repro.pubsub.system:PubSubSystem.__init__", "pubsub.system.init"),
    ("repro.pubsub.system:PubSubSystem.subscribe_all", "pubsub.system.subscribe_all"),
    ("repro.pubsub.system:PubSubSystem.warm", "pubsub.system.warm"),
    ("repro.pubsub.system:PubSubSystem.publish", "pubsub.system.publish"),
    ("repro.pubsub.system:PubSubSystem.subscribe", "pubsub.system.subscribe"),
    ("repro.pubsub.system:PubSubSystem.unsubscribe", "pubsub.system.unsubscribe"),
    ("repro.pubsub.subscription:SubscriptionTable.install_many",
     "pubsub.subscription.install_many", {"count": lambda args, _result: len(args[1])}),
    ("repro.pubsub.subscription:SubscriptionTable.install", "pubsub.subscription.install"),
    ("repro.pubsub.subscription:SubscriptionTable.uninstall", "pubsub.subscription.uninstall"),
    ("repro.pubsub.subscription:SubscriptionTable.warm", "pubsub.subscription.warm"),
    ("repro.pubsub.subscription:SubscriptionTable.match_grouped",
     "pubsub.subscription.match", {"count": _matched_rows}),
    ("repro.pubsub.subscription:SubscriptionTable.match_grouped_many",
     "pubsub.subscription.match_many"),
    ("repro.pubsub.matching:VectorCountingMatcher.add_many", "pubsub.matching.add_many"),
    ("repro.pubsub.matching:VectorCountingMatcher.remove", "pubsub.matching.remove"),
    ("repro.pubsub.matching:VectorCountingMatcher.warm", "pubsub.matching.warm"),
    ("repro.pubsub.matching:VectorCountingMatcher.match_array", "pubsub.matching.match_array"),
    ("repro.pubsub.broker:Broker.receive", "pubsub.broker.receive"),
    ("repro.core.queueing:ScheduledQueue.push", "core.queueing.push"),
    ("repro.core.queueing:ScheduledQueue.push_many", "core.queueing.push_many"),
    ("repro.core.queueing:ScheduledQueue.pop_best", "core.queueing.pop_best"),
    ("repro.core.queueing:ScheduledQueue.prune", "core.queueing.prune",
     {"count": lambda _args, result: len(result)}),
    ("repro.core.queueing:ScheduledQueue.drain_aged", "core.queueing.drain_aged"),
    # The strategies the workloads use; a strategy's score_and_bound may
    # call its own score, which the scores count allows for.
    ("repro.core.strategies:FifoStrategy.score", "core.strategies.score"),
    ("repro.core.strategies:EbStrategy.score", "core.strategies.score"),
    ("repro.core.strategies:EbStrategy.score_and_bound", "core.strategies.score_and_bound"),
    ("repro.core.strategies:EbpcStrategy.score", "core.strategies.score"),
    ("repro.core.strategies:EbpcStrategy.score_and_bound", "core.strategies.score_and_bound"),
    ("repro.pubsub.metrics:LedgerMetricsCollector.on_delivery_batch", "pubsub.metrics.settle"),
    ("repro.pubsub.metrics:LedgerMetricsCollector.on_delivery_batch_ids",
     "pubsub.metrics.settle"),
    ("repro.pubsub.client:DeliveryLog.append_batch", "pubsub.client.append",
     {"count": lambda args, _result: len(args[1])}),
    ("repro.core.chunked:ChunkedColumnStore.iter_chunks", "core.chunked.iter_chunks",
     {"iterates": True}),
    ("repro.pubsub.engine:FusedEngine.run", "pubsub.engine.run"),
    ("repro.core.checkpoint:save_checkpoint", "core.checkpoint.save"),
    ("repro.sim.runner:load_checkpoint", "core.checkpoint.load"),
    ("repro.analysis.timeseries:windowed_metrics", "analysis.timeseries.windowed"),
    ("repro.analysis.revenue:revenue_by_tier", "analysis.revenue.by_tier"),
    ("repro.analysis.latency:latency_stats", "analysis.latency.stats"),
)


@contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Wrappers and the stage adapter installed for the block, gone after."""
    for target, name, *options in TARGETS:
        tracer.install(target, name, **(options[0] if options else {}))
    profiling.ACTIVE = StageSpans(tracer)
    try:
        yield
    finally:
        profiling.disable()
        tracer.remove()


def layer_metrics(trace: TraceSummary, sim: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric a traced cycle can know by itself.

    ``sim`` holds the counts read off the finished systems (they repeat
    exactly for a seed).  ``bench.import_s``, ``bench.calibration_s`` and
    ``bench.trace_overhead`` are added by the caller, who measured them.
    """
    s, calls, count = trace.self_s, trace.calls, trace.count
    pushes = calls("core.queueing.push")
    pops = calls("core.queueing.pop_best")
    scores = trace.outer_calls("core.strategies.score", "core.strategies.score_and_bound")
    delivered = sim["deliveries_valid"] + sim["deliveries_late"]
    return {
        "sim.runner.build_system_s": s("sim.runner.build_system"),
        "sim.runner.schedule_workload_s": s("sim.runner.schedule_workload"),
        "sim.runner.schedule_dynamics_s": s("sim.runner.schedule_dynamics"),
        "network.topology.build_s": s("network.topology.build"),
        "network.routing.sink_tree_s": s("network.routing.sink_tree"),
        "network.routing.sink_tree_calls": calls("network.routing.sink_tree"),
        "network.link.draw_s": s("network.link.draw"),
        "network.link.transmissions": calls("network.link.draw"),
        "workload.scenarios.subscriptions_s": s("workload.scenarios.subscriptions"),
        "workload.generator.publications_s": s("workload.generator.publications"),
        "workload.generator.publications": count("workload.generator.publications"),
        "workload.dynamics.interventions": sim["interventions"],
        "pubsub.system.init_s": s("pubsub.system.init"),
        "pubsub.system.subscribe_all_s": s("pubsub.system.subscribe_all"),
        "pubsub.system.warm_s": s("pubsub.system.warm"),
        "pubsub.system.publish_s": s("pubsub.system.publish"),
        "pubsub.system.publishes": calls("pubsub.system.publish"),
        "pubsub.system.subscribe_s": s("pubsub.system.subscribe"),
        "pubsub.system.subscribes": calls("pubsub.system.subscribe"),
        "pubsub.system.unsubscribe_s": s("pubsub.system.unsubscribe"),
        "pubsub.system.unsubscribes": calls("pubsub.system.unsubscribe"),
        "pubsub.subscription.install_many_s": s("pubsub.subscription.install_many"),
        "pubsub.subscription.install_many_rows": count("pubsub.subscription.install_many"),
        "pubsub.subscription.warm_s": s("pubsub.subscription.warm"),
        "pubsub.subscription.install_s": s("pubsub.subscription.install"),
        "pubsub.subscription.installs": calls("pubsub.subscription.install"),
        "pubsub.subscription.uninstall_s": s("pubsub.subscription.uninstall"),
        "pubsub.subscription.uninstalls": calls("pubsub.subscription.uninstall"),
        "pubsub.subscription.match_s": s(
            "pubsub.subscription.match", "pubsub.subscription.match_many", "stage.match"
        ),
        "pubsub.subscription.match_calls": calls("pubsub.subscription.match"),
        "pubsub.subscription.match_rows": count("pubsub.subscription.match"),
        "pubsub.subscription.match_us_p50": trace.percentile_us("pubsub.subscription.match", 50),
        "pubsub.subscription.match_us_p99": trace.percentile_us("pubsub.subscription.match", 99),
        "pubsub.matching.add_many_s": s("pubsub.matching.add_many"),
        "pubsub.matching.remove_s": s("pubsub.matching.remove"),
        "pubsub.matching.warm_s": s("pubsub.matching.warm"),
        "pubsub.matching.warm_calls": calls("pubsub.matching.warm"),
        "pubsub.matching.match_array_s": s("pubsub.matching.match_array"),
        "pubsub.matching.match_array_calls": calls("pubsub.matching.match_array"),
        "pubsub.broker.receive_s": s("pubsub.broker.receive"),
        "pubsub.broker.receives": calls("pubsub.broker.receive"),
        "pubsub.broker.enqueue_s": s("stage.enqueue"),
        "pubsub.broker.drain_s": s("stage.drain"),
        "core.queueing.push_s": s("core.queueing.push", "core.queueing.push_many"),
        "core.queueing.pushes": pushes,
        "core.queueing.pop_best_s": s("core.queueing.pop_best"),
        "core.queueing.pops": pops,
        "core.queueing.pop_best_us_p50": trace.percentile_us("core.queueing.pop_best", 50),
        "core.queueing.pop_best_us_p99": trace.percentile_us("core.queueing.pop_best", 99),
        "core.queueing.prune_s": s("core.queueing.prune"),
        "core.queueing.pruned": count("core.queueing.prune"),
        "core.queueing.prune_ratio": count("core.queueing.prune") / pushes if pushes else 0.0,
        "core.queueing.drain_aged_s": s("core.queueing.drain_aged"),
        "core.strategies.score_s": s("core.strategies.score", "core.strategies.score_and_bound"),
        "core.strategies.scores": scores,
        "core.strategies.scores_per_pop": scores / pops if pops else 0.0,
        "pubsub.metrics.settle_s": s("pubsub.metrics.settle", "stage.metrics"),
        "pubsub.metrics.deliveries_valid": sim["deliveries_valid"],
        "pubsub.metrics.deliveries_late": sim["deliveries_late"],
        "pubsub.metrics.valid_ratio": sim["deliveries_valid"] / delivered if delivered else 0.0,
        "pubsub.metrics.published": sim["published"],
        "pubsub.metrics.receptions": sim["receptions"],
        "pubsub.metrics.pruned": sim["pruned"],
        "pubsub.metrics.earning": sim["earning"],
        "pubsub.metrics.delivery_rate": sim["delivery_rate"],
        "pubsub.client.append_s": s("pubsub.client.append", "stage.append"),
        "pubsub.client.append_rows": count("pubsub.client.append"),
        "pubsub.client.append_batches": calls("pubsub.client.append"),
        "core.chunked.sealed_chunks": sim["sealed_chunks"],
        "core.chunked.spilled_chunks": sim["spilled_chunks"],
        "core.chunked.spill_mb": sim["spill_mb"],
        "core.chunked.iter_chunks_s": s("core.chunked.iter_chunks"),
        "core.chunked.iter_chunks_passes": count("core.chunked.iter_chunks.passes"),
        "pubsub.faults.retries": sim["retries"],
        "pubsub.faults.dead_entries": sim["dead_entries"],
        "pubsub.faults.publish_drops": sim["publish_drops"],
        "des.pop_s": s("stage.pop"),
        "des.events": sim["events"],
        "pubsub.engine.run_s": s("pubsub.engine.run"),
        "analysis.timeseries.windowed_s": s("analysis.timeseries.windowed"),
        "analysis.revenue.by_tier_s": s("analysis.revenue.by_tier"),
        "analysis.latency.stats_s": s("analysis.latency.stats"),
        "analysis.latency.p50_ms": sim["latency_p50_ms"],
        "analysis.latency.p99_ms": sim["latency_p99_ms"],
        "core.checkpoint.save_s": s("core.checkpoint.save"),
        "core.checkpoint.load_s": s("core.checkpoint.load"),
        "core.checkpoint.snapshots": calls("core.checkpoint.save"),
        "core.checkpoint.snapshot_mb": sim["checkpoint_mb"],
        "sweep.fifo.run_s": sim["leg_run_s"].get("fifo", 0.0),
        "sweep.ebpc.run_s": sim["leg_run_s"].get("ebpc", 0.0),
        "sweep.fifo.earning": sim["leg_earning"].get("fifo", 0.0),
        "bench.unattributed_setup_s": s("bench.setup"),
        "bench.unattributed_run_s": s("bench.run"),
        "bench.unattributed_analysis_s": s("bench.analysis"),
        "bench.unattributed_checkpoint_s": s("bench.checkpoint_write", "bench.resume"),
        "bench.trace_missing_targets": sim["missing_targets"],
    }
