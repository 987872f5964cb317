"""repro — Bounded-delay message delivery in publish/subscribe systems.

A from-scratch Python reproduction of Wang, Cao, Li & Wu, *"Achieving
Bounded Delay on Message Delivery in Publish/Subscribe Systems"*,
ICPP 2006: a mesh broker overlay with stochastic link bandwidth, and the
EB / PC / EBPC delay-aware scheduling strategies compared against FIFO
and minimum-remaining-lifetime baselines.

Quickstart::

    from repro import SimulationConfig, Scenario, run_simulation

    result = run_simulation(SimulationConfig(
        scenario=Scenario.PSD, strategy="eb",
        publishing_rate_per_min=10, duration_ms=5 * 60_000,
    ))
    print(result.delivery_rate)

See ``README.md`` for the system inventory (§Architecture); ``python -m
repro record`` writes the paper-vs-measured record.
"""

from repro.core import (
    EbpcStrategy,
    EbStrategy,
    FifoStrategy,
    PcStrategy,
    RemainingLifetimeStrategy,
    Strategy,
    make_strategy,
)
from repro.des import RngStreams, Simulator
from repro.network import Topology, build_acyclic_tree, build_layered_mesh, build_random_mesh
from repro.pubsub import (
    Message,
    MetricsCollector,
    PubSubSystem,
    Subscription,
    SystemConfig,
    parse_filter,
)
from repro.sim import (
    SimulationConfig,
    SimulationResult,
    run_simulation,
    sweep_publishing_rate,
    sweep_r_weight,
)
from repro.workload import Scenario

__version__ = "0.6.0"

__all__ = [
    "__version__",
    # core strategies
    "Strategy",
    "FifoStrategy",
    "RemainingLifetimeStrategy",
    "EbStrategy",
    "PcStrategy",
    "EbpcStrategy",
    "make_strategy",
    # kernel
    "Simulator",
    "RngStreams",
    # network
    "Topology",
    "build_layered_mesh",
    "build_acyclic_tree",
    "build_random_mesh",
    # pubsub
    "Message",
    "Subscription",
    "parse_filter",
    "PubSubSystem",
    "SystemConfig",
    "MetricsCollector",
    # harness
    "Scenario",
    "SimulationConfig",
    "SimulationResult",
    "run_simulation",
    "sweep_publishing_rate",
    "sweep_r_weight",
]
