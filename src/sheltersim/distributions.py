"""Random-variate samplers for the shelter model.

Each sampler is a pure function of its parameters and a single uniform draw,
so distribution math stays decoupled from generator choice and statistical
tests are deterministic. Continuous samplers use the inverse-CDF transform,
which is also monotone in u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TriangularParams:
    """Triangular distribution on [low, high] with the given mode, in days."""

    low: float
    mode: float
    high: float

    def __post_init__(self):
        if not (self.low <= self.mode <= self.high):
            raise ValueError(f"triangular needs low <= mode <= high, got {self}")
        if not self.low < self.high:
            raise ValueError(f"triangular needs low < high, got {self}")

    @property
    def mean(self) -> float:
        return (self.low + self.mode + self.high) / 3.0

    @property
    def variance(self) -> float:
        a, m, b = self.low, self.mode, self.high
        return (a * a + m * m + b * b - a * m - a * b - m * b) / 18.0


@dataclass(frozen=True)
class ExponentialParams:
    """Exponential distribution with the given mean, in days."""

    mean: float

    def __post_init__(self):
        if not self.mean > 0:
            raise ValueError(f"exponential mean must be positive, got {self.mean}")


def sample_triangular(p: TriangularParams, u: float) -> float:
    """Inverse-CDF draw from a triangular distribution. Requires 0 <= u < 1."""
    span = p.high - p.low
    cut = (p.mode - p.low) / span
    # Rounding can carry x across the mode (or, at the ends, the support);
    # keeping each branch on its own side of the mode keeps x monotone in u.
    if u < cut:
        return min(p.low + math.sqrt(u * span * (p.mode - p.low)), p.mode)
    return max(p.high - math.sqrt((1.0 - u) * span * (p.high - p.mode)), p.mode)


def sample_exponential(p: ExponentialParams, u: float) -> float:
    """Inverse-CDF draw from an exponential distribution. Requires 0 < u <= 1."""
    return -p.mean * math.log(u)


def sample_bernoulli(prob: float, u: float) -> bool:
    """True with probability ``prob``."""
    return u < prob


def sample_uniform_int(lo: int, hi: int, u: float) -> int:
    """Equiprobable integer in [lo, hi]."""
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    return min(lo + int(u * (hi - lo + 1)), hi)
