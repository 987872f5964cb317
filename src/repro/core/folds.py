"""The documented left-fold float helpers (the RL006 contract).

Float totals in this project are *defined* as the sequential
left-to-right chain of float64 additions the scalar oracle performs
(``acc += value`` in arrival order).  Pairwise-reassociating reductions
(``np.sum``, ``ndarray.sum()``) compute a different float in general —
off by an ULP is enough to flip a scheduling comparison or a
differential test — so every metrics-path float total goes through one
of these helpers.  The ledger streams the chain: it folds each slice of
the delivery log with :func:`fold_sum_array` seeded with the running
sum, which is the same chain as one fold over the whole log.

``fold_sum`` is byte-identical to builtin ``sum`` over floats (both are
the left fold from 0) — its value is being *named*: the call site states
the fold order is part of the contract, and ``repro lint`` (RL006) can
tell sanctioned folds from accidental reductions.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def fold_sum(values: Iterable[float], start: float = 0.0) -> float:
    """Sequential left-to-right float sum: ``((start + v0) + v1) + ...``."""
    acc = float(start)
    for value in values:
        acc += value
    return acc


def fold_mean(values: Iterable[float]) -> float:
    """``fold_sum(values) / n`` — 0.0 for an empty iterable."""
    acc = 0.0
    n = 0
    for value in values:
        acc += value
        n += 1
    return acc / n if n else 0.0


#: Elements per ``np.add.accumulate`` call in :func:`fold_sum_array`: the
#: fold's scratch is one block (512 KB), whatever the input's length.
FOLD_BLOCK = 65_536


def fold_sum_array(values: np.ndarray, start: float = 0.0) -> float:
    """The same sequential chain as :func:`fold_sum`, without a Python
    loop per element: ``np.add.accumulate`` is a left-to-right
    *accumulation* (pairwise reassociation applies to reductions, never
    accumulations), so seeding it with ``start`` reproduces the running
    sum byte-for-byte.  The input goes through in blocks of
    :data:`FOLD_BLOCK`, each seeded with the sum carried so far — still
    the one chain, in a fixed-size scratch instead of two copies of the
    input.
    """
    arr = np.asarray(values, dtype=np.float64)
    acc = float(start)
    n = arr.shape[0]
    if n == 0:
        return acc
    scratch = np.empty(min(n, FOLD_BLOCK) + 1)
    for lo in range(0, n, FOLD_BLOCK):
        part = arr[lo:lo + FOLD_BLOCK]
        chain = scratch[: part.shape[0] + 1]
        chain[0] = acc
        chain[1:] = part
        np.add.accumulate(chain, out=chain)
        acc = float(chain[-1])
    return acc
