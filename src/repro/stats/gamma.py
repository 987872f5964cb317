"""Shifted-gamma one-way IP packet delay model.

The paper (Section 3.2) cites measurement studies [17, 18] showing that
one-way Internet packet delay follows a *shifted gamma* distribution with
surprisingly small variation (e.g. a 22-hop transatlantic path with mean
108.2 ms and standard error 3.083 ms).  The scheduling strategies never use
this distribution directly — they work on the normal approximation of TCP
throughput — but the measurement substrate uses it to synthesise realistic
per-packet delay samples when emulating the "estimate link parameters from
measured data" pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class ShiftedGamma:
    """``shift + Gamma(shape, scale)`` with shape/scale parameterisation.

    ``mean = shift + shape * scale`` and ``variance = shape * scale^2``.
    """

    shape: float
    scale: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.shape <= 0.0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    # ------------------------------------------------------------------ #
    # Moments.
    # ------------------------------------------------------------------ #
    @property
    def mean(self) -> float:
        return self.shift + self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale * self.scale

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    # ------------------------------------------------------------------ #
    # Distribution functions.
    # ------------------------------------------------------------------ #
    def pdf(self, x: float) -> float:
        y = x - self.shift
        if y <= 0.0:
            return 0.0
        k, theta = self.shape, self.scale
        return (
            y ** (k - 1.0)
            * math.exp(-y / theta)
            / (math.gamma(k) * theta**k)
        )

    def cdf(self, x: float) -> float:
        y = x - self.shift
        if y <= 0.0:
            return 0.0
        # The package's only scipy call: imported here so ``import repro``
        # neither pays for scipy nor needs it installed.
        from scipy import special

        return float(special.gammainc(self.shape, y / self.scale))

    def sf(self, x: float) -> float:
        return 1.0 - self.cdf(x)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return self.shift + rng.gamma(self.shape, self.scale, size=size)

    # ------------------------------------------------------------------ #
    # Construction helpers.
    # ------------------------------------------------------------------ #
    @classmethod
    def from_moments(cls, mean: float, std: float, shift: float = 0.0) -> "ShiftedGamma":
        """Fit shape/scale from target (mean, std) above a known shift.

        This is the method-of-moments fit one would apply to measured
        one-way delays after subtracting the deterministic propagation
        floor (the shift).
        """
        excess = mean - shift
        if excess <= 0.0:
            raise ValueError("mean must exceed shift")
        if std <= 0.0:
            raise ValueError("std must be positive")
        scale = std * std / excess
        shape = excess / scale
        return cls(shape=shape, scale=scale, shift=shift)

    @classmethod
    def transatlantic_path(cls) -> "ShiftedGamma":
        """The reference path from Corlett et al. quoted in the paper:
        mean 108.2 ms, standard error 3.083 ms, 22 hops.  We take the shift
        as the speed-of-light floor at ~90 ms."""
        return cls.from_moments(mean=108.2, std=3.083, shift=90.0)
