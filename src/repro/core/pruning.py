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
from repro.core.success import effective_deadline_array, effective_deadline_list
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


def _is_small(entry: QueueEntry) -> bool:
    """Whether ``entry``'s expiry readers take the Python-float small form."""
    return len(entry) <= entry.small_rows


def entry_is_expired(entry: QueueEntry, now: float) -> bool:
    """True iff every (subscription, message) pair's deadline has passed."""
    hdl = entry.message.hdl(now)
    if _is_small(entry):
        adl_list = effective_deadline_list(entry.deadline, entry.message)
        return not any(hdl <= adl for adl in adl_list)
    adl = effective_deadline_array(entry.deadline, entry.message)
    return not bool(np.any(hdl <= adl))


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
# cannot change behaviour.  Any one row's term is a lower bound on the
# max: the index keys a new entry on its first row's term
# (:func:`prune_horizon_floor`) and computes the full horizon only once
# that floor has arrived.
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
        publish_time = entry.message.publish_time
        if _is_small(entry):
            adl_list = effective_deadline_list(entry.deadline, entry.message)
            if any(map(math.isinf, adl_list)):
                return math.inf  # an unbounded pair never expires
            return max(publish_time + adl for adl in adl_list)
        adl = effective_deadline_array(entry.deadline, entry.message)
        if np.any(np.isinf(adl)):
            return math.inf  # an unbounded pair never expires
        return float(np.max(publish_time + adl))
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= 1.0:
        return -math.inf  # every probability is < ε: prunable from the start
    return entry.plan(processing_delay_ms).hopeless_horizon(_std_normal_quantile(epsilon))


def prune_horizon_floor(
    entry: QueueEntry,
    processing_delay_ms: float,
    policy: PruningPolicy,
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """The first row's own term of :func:`prune_horizon`'s max, hence
    never above it: ``publish_time + adl`` under the expiry rule,
    ``publish_time + adl − NN·PD − size·(μ + σ·z_ε)`` (``μ`` alone when
    ``σ = 0``) under Eq. 11, and ``inf`` when the row's ``adl`` is.

    It reads one row's operands as Python floats — no column gather, no
    score plan — in the per-element operation order of both forms of
    :meth:`~repro.core.metrics.ScorePlan.hopeless_horizon`, so the value is
    bit-identical to that row's term.
    """
    if policy is PruningPolicy.NONE:
        return math.inf
    nn, mean, std, deadline, _ = entry.first_row()
    message = entry.message
    msg_dl = message.deadline_ms
    adl = deadline if msg_dl is None else min(deadline, msg_dl)
    if policy is PruningPolicy.EXPIRED:
        return message.publish_time + adl
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= 1.0:
        return -math.inf
    if math.isinf(adl):
        return math.inf  # an unbounded pair always succeeds
    ramp = mean if std == 0.0 else mean + std * _std_normal_quantile(epsilon)
    return message.publish_time + adl - nn * processing_delay_ms - message.size_kb * ramp
