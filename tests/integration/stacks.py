"""One-layer stacks: the production system with exactly one oracle in it.

The reference stack (:mod:`repro.reference`) swaps every layer at once, so
a divergence there does not say which layer caused it.  The systems here
are assembled the same way — subclasses overriding the component class
attributes — but each swaps a single layer, and the per-layer suites hold
each against production on its own.  Both stacks share one event kernel.

``build_system_on`` / ``run_simulation_on`` are :func:`~repro.sim.runner.
build_system` / :func:`~repro.sim.runner.run_simulation` with the given
class assembled where ``reference=True`` would assemble the reference
stack.
"""

from __future__ import annotations

from unittest import mock

from repro.pubsub.broker import Broker
from repro.pubsub.matching import BruteForceMatcher
from repro.pubsub.metrics import LedgerMetricsCollector, MetricsCollector
from repro.pubsub.system import PubSubSystem
from repro.reference import ReferenceBroker, ReferenceQueue, ReferenceTable, ReferenceSystem
from repro.sim import runner


class _OracleMatcherBroker(Broker):
    table_type = ReferenceTable


class OracleMatcherSystem(ReferenceSystem):
    """Tables and the interested population on the dict counting matcher."""

    broker_type = _OracleMatcherBroker
    metrics_type = LedgerMetricsCollector


class _BruteTable(ReferenceTable):
    matcher_type = BruteForceMatcher


class _BruteBroker(Broker):
    table_type = _BruteTable


class BruteMatcherSystem(OracleMatcherSystem):
    """Every filter evaluated against every message."""

    broker_type = _BruteBroker
    matcher_type = BruteForceMatcher


class _ScalarCollectorBroker(Broker):
    _settle = ReferenceBroker._settle


class ScalarCollectorSystem(PubSubSystem):
    """Accounting through the per-delivery collector."""

    broker_type = _ScalarCollectorBroker
    metrics_type = MetricsCollector


class _ScanQueueBroker(Broker):
    queue_type = ReferenceQueue


class ScanQueueSystem(PubSubSystem):
    """Every output-queue selection a full rescan."""

    broker_type = _ScanQueueBroker


def build_system_on(system_type: type, config, **kwargs):
    with mock.patch.object(runner, "ReferenceSystem", system_type):
        return runner.build_system(config, reference=True, **kwargs)


def run_simulation_on(system_type: type, config, **kwargs):
    with mock.patch.object(runner, "ReferenceSystem", system_type):
        return runner.run_simulation(config, reference=True, **kwargs)
