"""Probability substrate for the bounded-delay pub/sub reproduction.

The scheduling strategies of Wang et al. (ICPP 2006) consume only two
statistical facts about the overlay: per-link transmission rates are
normally distributed and independent, so per-path rates are normal with
additive mean and variance.  This package provides:

* :class:`~repro.stats.normal.Normal` — the normal distribution with exact
  erf-based CDF (no scipy required on the hot path) and the additive algebra
  used for path composition.
* Online estimators (:mod:`~repro.stats.estimators`) reproducing the
  "parameters estimated from measured data" pipeline: Welford, sliding
  window, and EWMA.
* Truncated sampling helpers (:mod:`~repro.stats.sampling`) so that sampled
  transmission times are always positive.
"""

from repro.stats.estimators import (
    EwmaEstimator,
    RateEstimator,
    SlidingWindowEstimator,
    WelfordEstimator,
)
from repro.stats.normal import Normal, normal_cdf, normal_sf
from repro.stats.sampling import TruncatedNormalSampler, sample_positive_normal

__all__ = [
    "Normal",
    "normal_cdf",
    "normal_sf",
    "RateEstimator",
    "WelfordEstimator",
    "SlidingWindowEstimator",
    "EwmaEstimator",
    "TruncatedNormalSampler",
    "sample_positive_normal",
]
