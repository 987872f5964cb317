"""The EB / PC / EBPC scheduling metrics (Section 5, Eqs. 3–10).

Scalar forms (`expected_benefit`, `postponing_cost`) are the readable
reference implementation; :class:`ScorePlan` evaluates one queue entry's
whole subscription set with numpy and is what the broker hot path uses
(the ``*_vec`` functions are its one-shot form).  Property tests assert
scalar/vector agreement.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastpath import erf_array
from repro.core.success import effective_deadline_array, success_probability
from repro.pubsub.message import Message
from repro.pubsub.subscription import RowArrays, TableRow
from repro.stats.normal import SQRT2, normal_cdf_vec


def expected_benefit(
    rows: list[TableRow],
    message: Message,
    now: float,
    processing_delay_ms: float,
    extra_delay_ms: float = 0.0,
) -> float:
    """``EB_m = Σ success(s_i, m) · price(s_i)`` (Eq. 3).

    Unpriced subscriptions count with price 1 (the paper's PSD reduction).
    ``extra_delay_ms > 0`` computes the postponed EB′ of Eq. 8.
    """
    total = 0.0
    for row in rows:
        price = row.price if row.price is not None else 1.0
        total += price * success_probability(
            row, message, now, processing_delay_ms, extra_delay_ms
        )
    return total


def postponing_cost(
    rows: list[TableRow],
    message: Message,
    now: float,
    processing_delay_ms: float,
    ft_ms: float,
) -> float:
    """``PC_m = EB_m − EB'_m`` (Eq. 9)."""
    eb = expected_benefit(rows, message, now, processing_delay_ms)
    eb_postponed = expected_benefit(rows, message, now, processing_delay_ms, ft_ms)
    return eb - eb_postponed


def ebpc_value(eb: float, pc: float, r: float) -> float:
    """``EBPC = r · EB + (1 − r) · PC`` (Eq. 10)."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must be in [0, 1], got {r}")
    return r * eb + (1.0 - r) * pc


# ---------------------------------------------------------------------- #
# Vectorised kernels: the score plan.
# ---------------------------------------------------------------------- #
class ScorePlan:
    """The operands of ``success(s, m)`` that do not depend on ``now``.

    One (row set, message, ``PD``) triple fixes the effective deadlines,
    ``NN_p · PD``, ``μ_p``, ``σ_p · √2``, the prices and the message's size
    and publish time; a queue entry is scored many times while it waits,
    so these are derived once (:meth:`repro.core.strategies.QueueEntry.plan`
    caches the plan) and each decision only does the arithmetic that moves
    with the clock.  This is the single place the vector kernels derive
    their operands: the ``*_vec`` functions below build a throwaway plan.

    ``dense`` is a property of the input — every pair has a finite
    deadline and a non-degenerate rate — and selects the fused evaluation;
    otherwise the masked general form of :func:`normal_cdf_vec` runs.
    Both keep the scalar reference's per-element operation order
    ``((adl − hdl) − extra) − NN_p·PD``, so results are bit-identical to
    evaluating the rows one call at a time.
    """

    __slots__ = (
        "processing_delay_ms", "adl", "unbounded", "nn_pd", "mean", "std",
        "std_sqrt2", "price", "size_kb", "publish_time", "dense",
    )

    def __init__(
        self, arrays: RowArrays, message: Message, processing_delay_ms: float
    ) -> None:
        std = arrays.std
        if (std < 0.0).any():
            raise ValueError("std must be non-negative")
        adl = effective_deadline_array(arrays.deadline, message)
        unbounded = np.isinf(adl)
        self.processing_delay_ms = processing_delay_ms
        self.adl = adl
        self.unbounded = unbounded
        self.nn_pd = arrays.nn * processing_delay_ms
        self.mean = arrays.mean
        self.std = std
        self.std_sqrt2 = std * SQRT2
        self.price = arrays.price
        self.size_kb = message.size_kb
        self.publish_time = message.publish_time
        self.dense = not (unbounded.any() or (std == 0.0).any())

    def _dense_cdf(self, z: np.ndarray) -> np.ndarray:
        """Success probabilities from ``z = adl − hdl − extra`` (any
        leading shape; consumed in place)."""
        z -= self.nn_pd
        z /= self.size_kb
        z -= self.mean
        z /= self.std_sqrt2
        out = erf_array(z)
        out += 1.0
        out *= 0.5
        return out

    def success(self, now: float, extra_delay_ms: float = 0.0) -> np.ndarray:
        """Per-row success probabilities; ``inf`` deadlines yield exactly 1."""
        hdl = now - self.publish_time
        if self.dense:
            z = self.adl - hdl
            if extra_delay_ms != 0.0:  # x − 0.0 is x, bit for bit
                z -= extra_delay_ms
            return self._dense_cdf(z)
        unbounded = self.unbounded
        budget = self.adl - hdl - extra_delay_ms - self.nn_pd
        x = np.where(unbounded, 0.0, budget) / self.size_kb
        probs = normal_cdf_vec(x, self.mean, self.std)
        probs[unbounded] = 1.0
        return probs

    def expected_benefit(self, now: float, extra_delay_ms: float = 0.0) -> float:
        """``EB`` (Eq. 3), or the postponed ``EB′`` of Eq. 8."""
        return float(np.dot(self.success(now, extra_delay_ms), self.price))

    def eb_pair(self, now: float, ft_ms: float) -> tuple[float, float]:
        """``(EB, EB′)`` — the base and postponed expected benefits (Eqs. 3, 8).

        The single place the pair is computed: PC is their difference and
        the scheduling strategies reuse the base EB as the future-score
        bound.  Dense plans evaluate both rows in one pass.
        """
        if not self.dense:
            return self.expected_benefit(now), self.expected_benefit(now, ft_ms)
        z = np.empty((2, self.adl.shape[0]))
        np.subtract(self.adl, now - self.publish_time, out=z[0])
        np.subtract(z[0], ft_ms, out=z[1])
        probs = self._dense_cdf(z)
        price = self.price
        return float(np.dot(probs[0], price)), float(np.dot(probs[1], price))

    def max_success(self, now: float) -> float:
        """Highest per-row success probability — the pruning test input."""
        probs = self.success(now)
        return float(probs.max()) if len(probs) else 0.0


def success_vec(
    arrays: RowArrays,
    message: Message,
    now: float,
    processing_delay_ms: float,
    extra_delay_ms: float = 0.0,
) -> np.ndarray:
    """Per-row success probabilities; ``inf`` deadlines yield exactly 1."""
    return ScorePlan(arrays, message, processing_delay_ms).success(now, extra_delay_ms)


def expected_benefit_vec(
    arrays: RowArrays,
    message: Message,
    now: float,
    processing_delay_ms: float,
    extra_delay_ms: float = 0.0,
) -> float:
    plan = ScorePlan(arrays, message, processing_delay_ms)
    return plan.expected_benefit(now, extra_delay_ms)


def eb_pair_vec(
    arrays: RowArrays,
    message: Message,
    now: float,
    processing_delay_ms: float,
    ft_ms: float,
) -> tuple[float, float]:
    """``(EB, EB′)`` for one row set (see :meth:`ScorePlan.eb_pair`)."""
    return ScorePlan(arrays, message, processing_delay_ms).eb_pair(now, ft_ms)


def postponing_cost_vec(
    arrays: RowArrays,
    message: Message,
    now: float,
    processing_delay_ms: float,
    ft_ms: float,
) -> float:
    eb, eb_postponed = eb_pair_vec(arrays, message, now, processing_delay_ms, ft_ms)
    return eb - eb_postponed


def max_success_vec(
    arrays: RowArrays,
    message: Message,
    now: float,
    processing_delay_ms: float,
) -> float:
    """Highest per-row success probability — the pruning test input."""
    return ScorePlan(arrays, message, processing_delay_ms).max_success(now)
