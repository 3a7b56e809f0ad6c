"""Random-variate samplers for the shelter model.

Each sampler is a pure function of its parameters and a single uniform draw,
so distribution math stays decoupled from generator choice and statistical
tests are deterministic. Continuous samplers use the inverse-CDF transform,
which is also monotone in u.

``triangular_array`` and ``uniform_int_array`` apply the same formulas to an
array of draws at once. They use only numpy's ``+ - * sqrt minimum maximum
<`` and a truncating ``astype``, whose results IEEE 754 fixes to the last
bit as it does the scalar operations', so each element equals the scalar
sampler's value for its draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    low, mode, high = p.low, p.mode, p.high
    span, left = high - low, mode - low
    # Rounding can carry x across the mode (or, at the ends, the support);
    # keeping each branch on its own side of the mode keeps x monotone in u.
    if u < left / span:
        return min(low + math.sqrt(u * span * left), mode)
    return max(high - math.sqrt((1.0 - u) * span * (high - mode)), mode)


def triangular_array(p: TriangularParams, u: np.ndarray) -> np.ndarray:
    """``sample_triangular`` of every draw in ``u``."""
    low, mode, high = p.low, p.mode, p.high
    span, left = high - low, mode - low
    return np.where(u < left / span,
                    np.minimum(low + np.sqrt(u * span * left), mode),
                    np.maximum(high - np.sqrt((1.0 - u) * span * (high - mode)), mode))


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


def uniform_int_array(lo: int, hi: int, u: np.ndarray) -> np.ndarray:
    """``sample_uniform_int`` of every draw in ``u``, as int64."""
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    return np.minimum(lo + (u * (hi - lo + 1)).astype(np.int64), hi)
