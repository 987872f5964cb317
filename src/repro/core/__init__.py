"""The paper's primary contribution: delay-aware message scheduling.

Section 5 of Wang et al. (ICPP 2006), implemented exactly:

* :mod:`~repro.core.success` — ``hdl`` / ``fdl`` / ``success(s, m)``
  (Eqs. 4–5), scalar reference implementations.
* :mod:`~repro.core.metrics` — Expected Benefit (Eq. 3), Postponing Cost
  (Eqs. 6–9) and EBPC (Eq. 10), in scalar and vectorised (numpy) forms.
* :mod:`~repro.core.strategies` — the five queue disciplines behind one
  interface: FIFO, minimum-Remaining-Lifetime (RL), maximum-EB,
  maximum-PC, maximum-EBPC(r).
* :mod:`~repro.core.pruning` — invalid-message detection (Eq. 11):
  ε-hopeless entries are deleted; baselines use hard expiry only.
* :mod:`~repro.core.registry` — name-based strategy construction
  (``make_strategy("ebpc", r=0.6)``).
"""

from repro.core.context import SchedulingContext
from repro.core.metrics import ebpc_value, expected_benefit, postponing_cost
from repro.core.pruning import PruningPolicy, entry_is_hopeless
from repro.core.registry import STRATEGY_NAMES, make_strategy
from repro.core.strategies import (
    EbpcStrategy,
    EbStrategy,
    FifoStrategy,
    PcStrategy,
    QueueEntry,
    RemainingLifetimeStrategy,
    Strategy,
)
from repro.core.success import effective_deadline, fdl_distribution, success_probability

__all__ = [
    "SchedulingContext",
    "success_probability",
    "fdl_distribution",
    "effective_deadline",
    "expected_benefit",
    "postponing_cost",
    "ebpc_value",
    "Strategy",
    "QueueEntry",
    "FifoStrategy",
    "RemainingLifetimeStrategy",
    "EbStrategy",
    "PcStrategy",
    "EbpcStrategy",
    "PruningPolicy",
    "entry_is_hopeless",
    "make_strategy",
    "STRATEGY_NAMES",
]
