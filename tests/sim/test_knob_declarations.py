"""Every system knob is declared once and reaches the layer that reads it.

``SimulationConfig`` extends ``SystemConfig`` and the system hands its
config to each broker, so a knob can neither be re-declared one layer
down nor silently dropped on the way to the broker, queue, monitor or
log that uses it.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro.core.pruning import PruningPolicy
from repro.network.measurement import MeasurementMode
from repro.pubsub.broker import Broker
from repro.pubsub.system import SystemConfig
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system
from repro.stats.estimators import SlidingWindowEstimator

SYSTEM_FIELDS = {f.name for f in dataclasses.fields(SystemConfig)}

#: One non-default value per SystemConfig field.
NON_DEFAULT = dict(
    processing_delay_ms=3.0,
    epsilon=1e-3,
    message_size_kb=7.0,
    measurement_mode=MeasurementMode.ESTIMATED,
    pruning_override=PruningPolicy.EXPIRED,
    scheduling_slack_per_hop_ms=5.0,
    routing_paths=2,
    enable_trace=True,
    link_estimator="window",
    log_spill=True,
    log_chunk_rows=64,
)


def test_simulation_config_redeclares_no_system_field():
    assert issubclass(SimulationConfig, SystemConfig)
    assert not set(SimulationConfig.__annotations__) & SYSTEM_FIELDS


def test_broker_takes_no_system_knob_as_a_parameter():
    params = set(inspect.signature(Broker.__init__).parameters)
    assert not params & SYSTEM_FIELDS


def test_every_system_knob_reaches_the_layer_that_reads_it():
    assert set(NON_DEFAULT) == SYSTEM_FIELDS
    defaults = SystemConfig()
    for name, value in NON_DEFAULT.items():
        assert getattr(defaults, name) != value, name

    config = SimulationConfig(seed=1, duration_ms=1_000.0, **NON_DEFAULT)
    system = build_system(config)
    assert system.config is config
    for broker in system.brokers.values():
        assert broker.processing_delay_ms == 3.0
        assert broker.planning_delay_ms == 8.0
        assert broker.epsilon == 1e-3
        assert broker.pruning is PruningPolicy.EXPIRED
        assert broker.average_size_kb() == 7.0
        assert broker.trace is system.trace
        for queue in broker.queues.values():
            assert queue.sched.planning_delay_ms == 8.0
            assert queue.sched.epsilon == 1e-3
            assert queue.sched.pruning is PruningPolicy.EXPIRED
    assert system.trace.enabled
    for monitor in system.monitors.values():
        assert monitor.mode is MeasurementMode.ESTIMATED
        assert isinstance(monitor._estimator, SlidingWindowEstimator)
    for log in (system.delivery_log, system._pub_log):
        assert log.spills and log.chunk_rows == 64
    # Two paths per (source, subscriber): a source broker holds one row
    # per path for the same subscriber.
    assert any(
        len(broker.table) > len({row.subscription.subscriber for row in broker.table.rows()})
        for broker in system.brokers.values()
    )
    publisher = sorted(system.publishers)[0]
    assert system.publish(publisher, {}).size_kb == 7.0
