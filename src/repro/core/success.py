"""Success probabilities (Section 5.1, Eqs. 4–5).

For message ``m`` on the current broker and subscription ``s`` with
remaining path ``p``:

``fdl(s, m) = NN_p · PD + size(m) · TR_p``  with ``TR_p ~ N(μ_p, σ_p²)``
(the paper assumes zero scheduling delay at downstream nodes), so

``success(s, m) = P(hdl(m) + fdl(s, m) ≤ adl(s))
               = Φ( ((adl − hdl − extra − NN_p · PD) / size − μ_p) / σ_p )``

where ``extra`` is 0 for EB and ``FT`` for the postponed variant EB′
(Eqs. 6–7).  ``adl`` is the subscriber's deadline in SSD, the message's in
PSD, and their minimum when both are present (the paper's "easily
extended" combined case).
"""

from __future__ import annotations

import math

import numpy as np

from repro.pubsub.message import Message
from repro.pubsub.subscription import TableRow
from repro.stats.normal import Normal, normal_cdf


def effective_deadline(row: TableRow, message: Message) -> float:
    """Allowed delay ``adl`` for this (subscription, message) pair.

    ``inf`` when neither side specified one (such pairs never constrain
    scheduling and always "succeed").
    """
    sub_dl = row.deadline_ms
    msg_dl = message.deadline_ms
    if sub_dl is None and msg_dl is None:
        return math.inf
    if sub_dl is None:
        return msg_dl  # type: ignore[return-value]
    if msg_dl is None:
        return sub_dl
    return min(sub_dl, msg_dl)


def effective_deadline_array(deadline_col: np.ndarray, message: Message) -> np.ndarray:
    """Vectorised :func:`effective_deadline` over a deadline column.

    ``deadline_col`` is a table/group column where unspecified subscriber
    deadlines are already ``inf`` (the :class:`~repro.pubsub.subscription.
    RowArrays` convention), so the scalar min-with-None ladder collapses
    to one ``np.minimum`` — identical bit patterns, one pass.
    """
    msg_dl = message.deadline_ms
    if msg_dl is None:
        return deadline_col
    return np.minimum(deadline_col, msg_dl)


def effective_deadline_list(deadline_col: np.ndarray, message: Message) -> list[float]:
    """:func:`effective_deadline_array` as Python floats, for small entries.

    ``min`` picks the same value as ``np.minimum`` when neither side is
    NaN, which construction-time validation guarantees.
    """
    deadlines: list[float] = deadline_col.tolist()
    msg_dl = message.deadline_ms
    if msg_dl is None:
        return deadlines
    return [min(dl, msg_dl) for dl in deadlines]


def fdl_distribution(row: TableRow, size_kb: float, processing_delay_ms: float) -> Normal:
    """Distribution of the future delay ``fdl(s, m)`` (Eq. 4)."""
    return row.rate.scale(size_kb) + row.nn * processing_delay_ms


def success_probability(
    row: TableRow,
    message: Message,
    now: float,
    processing_delay_ms: float,
    extra_delay_ms: float = 0.0,
) -> float:
    """``P(hdl + extra + fdl ≤ adl)`` (Eq. 5; Eq. 7 with ``extra = FT``)."""
    adl = effective_deadline(row, message)
    if math.isinf(adl):
        return 1.0
    budget = adl - message.hdl(now) - extra_delay_ms - row.nn * processing_delay_ms
    # P(size * TR_p <= budget) with TR_p ~ N(mu, sigma^2).
    size = message.size_kb
    return normal_cdf(budget / size, row.rate.mean, row.rate.std)


def remaining_lifetime(row: TableRow, message: Message, now: float) -> float:
    """``adl − hdl`` for the RL baseline (may be negative when expired)."""
    adl = effective_deadline(row, message)
    if math.isinf(adl):
        return math.inf
    return adl - message.hdl(now)
