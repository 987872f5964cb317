"""Content-based publish/subscribe substrate.

Everything a broker overlay needs below the scheduling layer:

* :mod:`~repro.pubsub.message` — immutable published messages with an
  attribute header (the paper's ``{A1=x1, A2=x2}``), size, publish time and
  optional publisher-specified deadline.
* :mod:`~repro.pubsub.filters` — the subscription filter language
  (comparison predicates, conjunction, disjunction) with a small parser.
* :mod:`~repro.pubsub.matching` — the system-wide filter index: each
  publication matched once against every live filter, by a counting
  index over filter ids.
* :mod:`~repro.pubsub.subscription` — subscriptions and the per-broker
  subscription table with the paper's row format
  ``(subscriber, filter, dl, pr, nb, NN_p, μ_p, σ_p²)``.
* :mod:`~repro.pubsub.broker` — the broker: reception, processing delay,
  per-neighbour output queues driven by a pluggable scheduling strategy,
  invalid-message pruning.
* :mod:`~repro.pubsub.system` — wires a topology into a running system:
  links, monitors, routing, subscription installation, publishing.
* :mod:`~repro.pubsub.metrics` — the evaluation counters (delivery rate,
  total earning, message number).

``Broker``, ``PubSubSystem`` and ``SystemConfig`` are re-exported lazily:
they depend on :mod:`repro.core` (the strategies), which itself imports the
message/subscription modules of this package, so eager re-export would be a
circular import.
"""

from repro.pubsub.filters import AndFilter, Filter, OrFilter, Predicate, parse_filter
from repro.pubsub.message import Message
from repro.pubsub.metrics import MetricsCollector
from repro.pubsub.subscription import Subscription, SubscriptionTable, TableRow

__all__ = [
    "Message",
    "Predicate",
    "Filter",
    "AndFilter",
    "OrFilter",
    "parse_filter",
    "Subscription",
    "TableRow",
    "SubscriptionTable",
    "MetricsCollector",
    "Broker",
    "PubSubSystem",
    "SystemConfig",
]

_LAZY = {
    "Broker": ("repro.pubsub.broker", "Broker"),
    "PubSubSystem": ("repro.pubsub.system", "PubSubSystem"),
    "SystemConfig": ("repro.pubsub.system", "SystemConfig"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
