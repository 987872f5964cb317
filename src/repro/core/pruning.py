"""Invalid-message detection (Section 5.4, Eq. 11).

A queued copy is deleted when every subscription it still serves is
hopeless: ``∀ i: success(s_i, m) < ε`` with ε small (the paper uses
0.05 % = 5·10⁻⁴).  Because an expired pair has success ≈ 0 < ε, the
ε-rule subsumes plain expiry; the FIFO/RL baselines apply only the plain
expiry rule (deleting already-dead messages is standard practice and is
what keeps their traffic finite), which :class:`PruningPolicy` encodes.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.core.strategies import QueueEntry
from repro.core.success import effective_deadline_array
from repro.stats.normal import Normal

#: The paper's ε (0.05 %).
DEFAULT_EPSILON = 5e-4


class PruningPolicy(enum.Enum):
    """Which invalid-message rule an output queue applies."""

    NONE = "none"  # never delete (ablation only; traffic can explode)
    EXPIRED = "expired"  # delete when every deadline has already passed
    PROBABILISTIC = "probabilistic"  # Eq. 11: delete when hopeless (< ε)

    @staticmethod
    def for_strategy(probabilistic_pruning: bool) -> "PruningPolicy":
        return (
            PruningPolicy.PROBABILISTIC
            if probabilistic_pruning
            else PruningPolicy.EXPIRED
        )


def entry_is_expired(entry: QueueEntry, now: float) -> bool:
    """True iff every (subscription, message) pair's deadline has passed."""
    adl = effective_deadline_array(entry.arrays.deadline, entry.message)
    return not bool(np.any(entry.message.hdl(now) <= adl))


def entry_is_hopeless(
    entry: QueueEntry,
    now: float,
    processing_delay_ms: float,
    epsilon: float = DEFAULT_EPSILON,
) -> bool:
    """Eq. 11: every remaining subscription has success < ε."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return entry.plan(processing_delay_ms).max_success(now) < epsilon


def should_prune(
    entry: QueueEntry,
    now: float,
    processing_delay_ms: float,
    policy: PruningPolicy,
    epsilon: float = DEFAULT_EPSILON,
) -> bool:
    """Apply the queue's pruning policy to one entry."""
    if policy is PruningPolicy.NONE:
        return False
    if policy is PruningPolicy.EXPIRED:
        return entry_is_expired(entry, now)
    return entry_is_hopeless(entry, now, processing_delay_ms, epsilon)


# ---------------------------------------------------------------------- #
# Prune horizons: when could an entry *first* become prunable?
#
# Both rules are per-row thresholds on the message age: a pair expires
# when ``hdl > adl`` and turns hopeless when its success probability drops
# below ε, i.e. when ``hdl > adl − NN·PD − size·(μ + σ·Φ⁻¹(ε))``.  An
# entry is prunable only once *every* row has crossed its threshold, so
# the entry-level horizon is the max over rows.  The scheduled queue keeps
# an expiry-ordered side index on these horizons and only re-evaluates the
# exact predicate for entries whose horizon has been reached — the
# analytic inversion is used as a conservative filter, never as the final
# decision, so a float-level disagreement with the forward predicate
# cannot change behaviour.
# ---------------------------------------------------------------------- #

_STD_NORMAL = Normal(0.0, 1.0)
_z_cache: dict[float, float] = {}


def _std_normal_quantile(q: float) -> float:
    z = _z_cache.get(q)
    if z is None:
        z = _z_cache[q] = _STD_NORMAL.quantile(q)
    return z


def prune_horizon(
    entry: QueueEntry,
    processing_delay_ms: float,
    policy: PruningPolicy,
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Earliest simulated time at which ``entry`` could satisfy
    :func:`should_prune` (``inf`` = never, e.g. an unbounded pair).

    The value is a lower bound up to float rounding; callers must confirm
    with :func:`should_prune` before deleting.
    """
    if policy is PruningPolicy.NONE:
        return math.inf
    if policy is PruningPolicy.EXPIRED:
        # The baselines' queues never score, so no plan is built for them.
        adl = effective_deadline_array(entry.arrays.deadline, entry.message)
        if np.any(np.isinf(adl)):
            return math.inf  # an unbounded pair never expires
        return float(np.max(entry.message.publish_time + adl))
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= 1.0:
        return -math.inf  # every probability is < ε: prunable from the start
    plan = entry.plan(processing_delay_ms)
    if not plan.dense and plan.unbounded.any():
        return math.inf  # an unbounded pair always succeeds: never prunable
    ramp = plan.mean + plan.std * _std_normal_quantile(epsilon)
    if not plan.dense:
        # A degenerate path (σ = 0) steps from 1 to 0 at the mean itself.
        ramp = np.where(plan.std == 0.0, plan.mean, ramp)
    # success < ε  ⟺  hdl > adl − NN·PD − size·(μ + σ·z).  The expression
    # keeps the scalar loop's operation order per element, so horizons
    # are bit-identical to the row-by-row computation.
    return float(np.max(plan.publish_time + plan.adl - plan.nn_pd - plan.size_kb * ramp))
