"""Normal distribution with the additive algebra used for overlay paths.

The paper models the transmission rate of overlay link ``l_i`` (time in
milliseconds to push one kilobyte) as ``TR_i ~ N(mu_i, sigma_i^2)`` and
assumes link rates are independent, so a path ``p = l_1 .. l_n`` has
``TR_p ~ N(sum mu_i, sum sigma_i^2)``.  :class:`Normal` implements exactly
that algebra plus the CDF evaluations needed by the ``success(s, m)``
probability of Section 5.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.fastpath import erf_array

SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float, mean: float = 0.0, std: float = 1.0) -> float:
    """Exact CDF of ``N(mean, std^2)`` evaluated at ``x`` via ``erf``.

    For a degenerate distribution (``std == 0``) this is the step function,
    which arises legitimately when a path has zero measured variance.
    """
    if std < 0.0:
        raise ValueError(f"std must be non-negative, got {std}")
    if std == 0.0:
        return 1.0 if x >= mean else 0.0
    return 0.5 * (1.0 + math.erf((x - mean) / (std * SQRT2)))


def normal_sf(x: float, mean: float = 0.0, std: float = 1.0) -> float:
    """Survival function ``P(X > x)`` of ``N(mean, std^2)``."""
    return 1.0 - normal_cdf(x, mean, std)


def normal_cdf_vec(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Vectorised normal CDF over numpy arrays (degenerate stds allowed).

    Used by the vectorised EB/PC metric kernels where one message is scored
    against every matching subscription at once.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    if np.any(std < 0.0):
        raise ValueError("std must be non-negative")
    if not (std == 0.0).any():
        # Hot path: no degenerate stds (the overwhelmingly common case on
        # the scoring kernels) — same operations, fewer array passes and
        # no where/broadcast scaffolding.  In-place arithmetic on the
        # freshly allocated intermediates changes no result bits.
        z = (x - mean) / (std * SQRT2)
        out = _erf_vec(z)
        out += 1.0
        out *= 0.5
        return out
    out = np.empty(np.broadcast_shapes(x.shape, mean.shape, std.shape), dtype=np.float64)
    x, mean, std = np.broadcast_arrays(x, mean, std)
    degenerate = std == 0.0
    safe_std = np.where(degenerate, 1.0, std)
    z = (x - mean) / (safe_std * SQRT2)
    np.multiply(0.5, 1.0 + _erf_vec(z), out=out)
    out[degenerate] = (x[degenerate] >= mean[degenerate]).astype(np.float64)
    return out


# Elementwise erf lives in core.fastpath: portable frompyfunc wrapper (or
# the numba-compiled ufunc under the [fast] extra), with the verified
# saturation cut that skips per-element calls for |z| >= 6.  math.erf is
# scalar-only, and scipy.special.erf is NOT bit-compatible with it.
_erf_vec = erf_array


@dataclass(frozen=True, slots=True)
class Normal:
    """An immutable normal distribution ``N(mean, variance)``.

    ``variance`` may be zero (degenerate / deterministic), which shows up
    when a path estimate has not accumulated any spread yet.
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError(f"variance must be non-negative, got {self.variance}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.variance)

    # ------------------------------------------------------------------ #
    # Algebra: the operations path composition needs.
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Normal | float") -> "Normal":
        """Sum of independent normals, or a deterministic shift."""
        if isinstance(other, Normal):
            return Normal(self.mean + other.mean, self.variance + other.variance)
        return Normal(self.mean + float(other), self.variance)

    __radd__ = __add__

    def scale(self, k: float) -> "Normal":
        """Distribution of ``k * X`` — message-size scaling of a rate.

        A message of ``m`` kilobytes on a path with rate ``TR_p`` has
        propagation delay ``m * TR_p ~ N(m * mu, m^2 * sigma^2)``.
        """
        return Normal(k * self.mean, (k * k) * self.variance)

    @staticmethod
    def sum(parts: Iterable["Normal"]) -> "Normal":
        """Sum of independent normals (empty sum is the degenerate zero)."""
        mean = 0.0
        variance = 0.0
        for part in parts:
            mean += part.mean
            variance += part.variance
        return Normal(mean, variance)

    # ------------------------------------------------------------------ #
    # Probabilities.
    # ------------------------------------------------------------------ #
    def cdf(self, x: float) -> float:
        """``P(X <= x)``."""
        return normal_cdf(x, self.mean, self.std)

    def sf(self, x: float) -> float:
        """``P(X > x)``."""
        return normal_sf(x, self.mean, self.std)

    def quantile(self, q: float) -> float:
        """Inverse CDF by bisection (exact enough for tests and pruning)."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        if self.variance == 0.0:
            return self.mean
        lo = self.mean - 12.0 * self.std
        hi = self.mean + 12.0 * self.std
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw samples (unconstrained; see :mod:`repro.stats.sampling` for
        the positivity-truncated variant used by links)."""
        return rng.normal(self.mean, self.std, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Normal(mean={self.mean:.6g}, variance={self.variance:.6g})"
