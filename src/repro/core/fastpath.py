"""Vectorised ``math.erf`` for the array form of the scoring loop.

Array-form score plans — entries with more than
:data:`repro.core.metrics.SMALL_ROWS` distinct operand classes, or rows
where no class ids are at hand, and non-dense entries through the masked
general form, :func:`repro.stats.normal.normal_cdf_vec` — bottom out in
elementwise ``erf`` over z-score arrays.  Dense plans of at most
``SMALL_ROWS`` rows, or of more rows sharing at most ``SMALL_ROWS``
classes, call ``math.erf`` directly in a Python loop, once per row or
class, and never come here.  Stock CPython has no vectorised
``math.erf``, so the implementation is a ``np.frompyfunc`` wrapper — one
Python call per element, bit-identical to a per-element loop
(``tests/stats/test_fastpath.py``).

Saturated inputs are cut before the ufunc: ``math.erf(x)`` returns
exactly ``±1.0`` for ``|x| >= 6`` (true ``erfc(6) ≈ 2.2e-17`` is under
half an ulp of 1.0, so correctly-rounded and fdlibm-style implementations
both round to 1).  That claim is *verified at import time* against this
platform's libm; if any spot check disagrees the threshold collapses to
``inf`` and every element goes through the ufunc.  Only array-form
entries reach the cut: at paper scale most of their pair deadlines sit
far in a distribution's tail, so it removes the bulk of their
per-element calls without touching a single output bit.  The small and
class forms need no cut, since the verified claim is exactly that
``math.erf`` itself returns ±1.0 there.
"""

from __future__ import annotations

import math

import numpy as np

#: Saturation threshold: smallest |z| for which ``math.erf`` is exactly
#: ±1.0 on this platform (``inf`` disables the cut if the spot checks
#: fail — correctness never depends on the libm's rounding).
ERF_SATURATION = 6.0 if all(
    math.erf(v) == 1.0 and math.erf(-v) == -1.0
    for v in (6.0, 6.5, 8.0, 16.0, 1e6, math.inf)
) else math.inf

_ERF_UFUNC = np.frompyfunc(math.erf, 1, 1)


def _erf_dense(z: np.ndarray) -> np.ndarray:
    """Elementwise erf: one ``math.erf`` call per element (object-dtype
    ufunc cast back to float64)."""
    return _ERF_UFUNC(z).astype(np.float64)


def erf_array(z: np.ndarray) -> np.ndarray:
    """Elementwise ``math.erf`` over a float64 array, bit-identical to a
    per-element Python loop; saturated tails short-circuit to ±1.0.

    NaNs never satisfy the saturation comparison, so they fall through to
    the ufunc and come back NaN exactly as ``math.erf`` returns them.
    """
    sat = np.abs(z) >= ERF_SATURATION
    if not sat.any():
        return _erf_dense(z)
    out = np.copysign(1.0, z)
    live = ~sat
    if live.any():
        out[live] = _erf_dense(z[live])
    return out
