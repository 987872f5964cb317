"""The EB / PC / EBPC scheduling metrics (Section 5, Eqs. 3–10).

Scalar forms (`expected_benefit`, `postponing_cost`) are the readable
reference implementation; :class:`ScorePlan` evaluates one queue entry's
whole subscription set — on Python floats for small entries, with numpy
for large ones — and is what the broker hot path uses.  Property tests
assert scalar/vector agreement.
"""

from __future__ import annotations

import math
from math import erf

import numpy as np

from repro.core.fastpath import erf_array
from repro.core.success import (
    effective_deadline_array,
    effective_deadline_list,
    success_probability,
)
from repro.pubsub.message import Message
from repro.pubsub.subscription import OperandClasses, RowArrays, TableRow
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
#: Dense entries with at most this many rows — or, handed over as
#: :class:`~repro.pubsub.subscription.OperandClasses`, at most this many
#: distinct operand classes — take the plan's small form: operands as
#: Python floats, one ``math.erf`` call per element in a plain loop.  Below
#: a few dozen rows numpy's per-call overhead, not arithmetic, is the
#: cost; ``eb_pair`` breaks even at about 50 rows.
SMALL_ROWS = 32

#: One small-form row: ``(adl, NN·PD, μ, σ·√2, σ)``.
SmallRow = tuple[float, float, float, float, float]


class ScorePlan:
    """The operands of ``success(s, m)`` that do not depend on ``now``.

    One (row set, message, ``PD``) triple fixes the effective deadlines,
    ``NN_p · PD``, ``μ_p``, ``σ_p · √2``, the prices and the message's size
    and publish time; a queue entry is scored many times while it waits,
    so these are derived once (:meth:`repro.core.strategies.QueueEntry.plan`
    caches the plan) and each decision only does the arithmetic that moves
    with the clock.  This is the single place the vector kernels derive
    their operands.

    ``dense`` is a property of the input — every pair has a finite
    deadline and a non-degenerate rate.  A dense plan of 1 to
    ``small_rows`` rows takes the **small form**: ``small`` holds one
    :data:`SmallRow` of Python floats per row and every reader loops over
    it, calling ``math.erf`` directly (the array-form slots stay unset).
    The rows come as :class:`RowArrays` or, from a table group, as
    :class:`~repro.pubsub.subscription.OperandClasses` whose columns are
    the rows.  A dense plan of more rows given as operand classes with at
    most ``small_rows`` columns takes the **class form**: the small form
    over the class columns, with ``inv`` mapping each row to its class.  Its
    probabilities are expanded by ``take`` before the ``np.dot`` with the
    row prices, in the array form's memory layout, and ``max_success`` /
    ``hopeless_horizon`` take the max over the classes, which hold the
    same set of values as the rows.  Otherwise the **array form** runs:
    the fused ``_dense_cdf`` for dense plans, the masked general form of
    :func:`normal_cdf_vec` for the rest.  Every form keeps the scalar
    reference's per-element operation order ``((adl − hdl) − extra) −
    NN_p·PD``, then ``/ size − μ``, then ``/ σ√2``, and the price sums are
    ``np.dot`` in all three (a Python or segmented sum would not fold like
    BLAS ``ddot``); equal inputs give equal ``erf`` outputs, so results
    are bit-identical across forms and to evaluating the rows one at a
    time.
    """

    __slots__ = (
        "processing_delay_ms", "adl", "unbounded", "nn_pd", "mean", "std",
        "std_sqrt2", "price", "size_kb", "publish_time", "dense", "small", "inv",
    )

    def __init__(
        self,
        arrays: RowArrays | OperandClasses,
        message: Message,
        processing_delay_ms: float,
        small_rows: int = SMALL_ROWS,
    ) -> None:
        self.processing_delay_ms = processing_delay_ms
        self.price = arrays.price
        self.size_kb = message.size_kb
        self.publish_time = message.publish_time
        self.small: list[SmallRow] | None = None
        self.inv: np.ndarray | None = None
        if isinstance(arrays, OperandClasses):
            ops = arrays.ops
            if ops.shape[1] <= small_rows:
                nn, mean, std = ops[:3].tolist()
                self.small = self._small_rows(nn, mean, std, ops[3], message)
                if self.small is not None:
                    self.dense = True
                    self.inv = arrays.inv
                    return
            arrays = arrays.expand()
        elif 0 < len(arrays) <= small_rows:
            self.small = self._small_rows(
                arrays.nn.tolist(), arrays.mean.tolist(), arrays.std.tolist(),
                arrays.deadline, message,
            )
            if self.small is not None:
                self.dense = True
                return
        std = arrays.std
        if (std < 0.0).any():
            raise ValueError("std must be non-negative")
        adl = effective_deadline_array(arrays.deadline, message)
        unbounded = np.isinf(adl)
        self.adl = adl
        self.unbounded = unbounded
        self.nn_pd = arrays.nn * processing_delay_ms
        self.mean = arrays.mean
        self.std = std
        self.std_sqrt2 = std * SQRT2
        self.dense = not (unbounded.any() or (std == 0.0).any())

    def _small_rows(
        self,
        nn: list[float],
        mean: list[float],
        std: list[float],
        deadline: np.ndarray,
        message: Message,
    ) -> list[SmallRow] | None:
        """Small-form rows of these operand columns, or ``None`` unless
        they are dense."""
        if any(s < 0.0 for s in std):
            raise ValueError("std must be non-negative")
        adl_list = effective_deadline_list(deadline, message)
        if 0.0 in std or any(map(math.isinf, adl_list)):
            return None
        pd = self.processing_delay_ms
        return [
            (adl, n * pd, m, s * SQRT2, s) for adl, n, m, s in zip(adl_list, nn, mean, std)
        ]

    def _small_success(
        self, small: list[SmallRow], now: float, extra_delay_ms: float
    ) -> list[float]:
        """Small-form success probabilities (``x − 0.0`` is ``x``, bit for
        bit, so ``extra = 0`` needs no branch)."""
        hdl = now - self.publish_time
        size = self.size_kb
        return [
            (erf(((adl - hdl - extra_delay_ms - nn_pd) / size - mean) / std_sqrt2) + 1.0) * 0.5
            for adl, nn_pd, mean, std_sqrt2, _ in small
        ]

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
        if self.small is not None:
            probs = np.array(self._small_success(self.small, now, extra_delay_ms))
            return probs if self.inv is None else probs.take(self.inv)
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
        small = self.small
        if small is not None:
            hdl = now - self.publish_time
            size = self.size_kb
            base: list[float] = []
            postponed: list[float] = []
            for adl, nn_pd, mean, std_sqrt2, _ in small:
                z = adl - hdl
                base.append((erf(((z - nn_pd) / size - mean) / std_sqrt2) + 1.0) * 0.5)
                postponed.append(
                    (erf(((z - ft_ms - nn_pd) / size - mean) / std_sqrt2) + 1.0) * 0.5
                )
            price = self.price
            if self.inv is not None:
                pair = np.array((base, postponed)).take(self.inv, axis=1)
                return float(np.dot(pair[0], price)), float(np.dot(pair[1], price))
            return float(np.dot(base, price)), float(np.dot(postponed, price))
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
        if self.small is not None:
            return max(self._small_success(self.small, now, 0.0))
        probs = self.success(now)
        return float(probs.max()) if len(probs) else 0.0

    def hopeless_horizon(self, z_epsilon: float) -> float:
        """Earliest time at which every row's success is below ε, given
        ``z_epsilon = Φ⁻¹(ε)`` (``inf`` if an unbounded pair never fails).

        success < ε  ⟺  hdl > adl − NN·PD − size·(μ + σ·z_ε), so each row
        crosses at that publish-relative age and the entry at the latest
        row's.  Both forms keep the scalar loop's operation order per
        element, so horizons are bit-identical to the row-by-row form.
        """
        publish_time, size = self.publish_time, self.size_kb
        if self.small is not None:
            return max(
                publish_time + adl - nn_pd - size * (mean + std * z_epsilon)
                for adl, nn_pd, mean, _, std in self.small
            )
        if not self.dense and self.unbounded.any():
            return math.inf  # an unbounded pair always succeeds
        ramp = self.mean + self.std * z_epsilon
        if not self.dense:
            # A degenerate path (σ = 0) steps from 1 to 0 at the mean itself.
            ramp = np.where(self.std == 0.0, self.mean, ramp)
        return float(np.max(publish_time + self.adl - self.nn_pd - size * ramp))

