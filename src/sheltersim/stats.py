"""Cross-replication estimators: the mean and Student-t confidence
half-width of a metric, and the t quantile behind it, in pure Python."""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add


def estimate(values) -> tuple[float | None, float | None]:
    """Mean of the ``values`` that are not None, and the half-width of its
    95% Student-t confidence interval. The half-width is None with fewer
    than two values, and the mean too with none."""
    values = [v for v in values if v is not None]
    n = len(values)
    if not n:
        return None, None
    mean = _total(values) / n
    if n < 2:
        return mean, None
    var = _total((v - mean) ** 2 for v in values) / (n - 1)
    return mean, t_quantile(0.975, n - 1) * math.sqrt(var / n)


# Cached because ``estimate`` asks for the same quantile for every metric.
@lru_cache(maxsize=256)
def t_quantile(p: float, df: float) -> float:
    """The ``p``-quantile of Student's t distribution with ``df`` degrees of
    freedom, for 0.5 <= p < 1 and df > 0.

    Newton steps on log t against the log of a tail mass, from a
    Cornish-Fisher starting value; each step evaluates the mass with the
    continued fraction of the regularized incomplete beta function, whose
    length does not grow with df. The result is within about 1e-14 relative
    of the exact quantile at the 90-99.9% levels, for any df.
    """
    if not (0.5 <= p < 1.0 and df > 0.0):
        raise ValueError(f"t_quantile needs 0.5 <= p < 1 and df > 0, got p={p}, df={df}")
    if p == 0.5:
        return 0.0
    t = _cornish_fisher(1.0 - p, df)
    if t <= 0.0:  # the start's normal quantile is off by up to 4.5e-4
        t = p - 0.5
    for _ in range(50):
        mass, upper, density = _t_mass(t, df)
        target = 1.0 - p if upper else p - 0.5
        step = math.log(mass / target) * mass / (t * density)
        t *= math.exp(step if upper else -step)
        # Convergence is quadratic: once a step is below 1e-9 the error left
        # is of order its square, far below double precision.
        if abs(step) < 1e-9:
            return t
    raise ArithmeticError(f"t_quantile did not converge for p={p}, df={df}")


def _cornish_fisher(q: float, df: float) -> float:
    """Approximate upper-q point of Student's t: the normal quantile of
    Abramowitz & Stegun 26.2.23 (error < 4.5e-4) corrected by the
    Cornish-Fisher series in 1/df of A&S 26.7.5."""
    s = math.sqrt(-2.0 * math.log(q))
    z = s - (2.515517 + s * (0.802853 + s * 0.010328)) / (
        1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def _t_mass(t: float, df: float) -> tuple[float, bool, float]:
    """``(mass, upper, density)`` of Student's t at ``t > 0``.

    ``mass`` is the upper tail P(T > t) when ``upper``, else the central
    part P(0 < T < t); whichever is returned is the one computed without
    cancellation. With x = df / (df + t^2), P(T > t) = I_x(df/2, 1/2) / 2.
    """
    a = 0.5 * df
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)
    inv_beta = math.sqrt(a / math.pi) * _half_gamma_ratio(a)  # 1 / B(a, 1/2)
    x_pow_a = math.exp(-a * math.log1p(t2 / df))
    front = x_pow_a * math.sqrt(y) * inv_beta
    density = x_pow_a * math.sqrt(x) * inv_beta / math.sqrt(df)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_fraction(a, 0.5, x, y) / a, True, density
    return front * _beta_fraction(0.5, a, y, x), False, density


def _half_gamma_ratio(a: float) -> float:
    """Gamma(a + 1/2) / (Gamma(a) sqrt(a)), to a few ulp for any a > 0."""
    if a < 20.0:
        return math.gamma(a + 0.5) / (math.gamma(a) * math.sqrt(a))
    # Stirling series of the log ratio; the first omitted term is below 1e-16.
    r = 1.0 / (a * a)
    return math.exp((-1.0 / 8.0 + r * (1.0 / 192.0 + r * (-1.0 / 640.0 + r * (
        17.0 / 14336.0 - r * 31.0 / 18432.0)))) / a)


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction h of I_x(a, b) = x^a y^b h / (a B(a, b)), y = 1 - x.

    Uses the even contraction of the classical fraction (Abramowitz & Stegun
    26.5.8) under the modified Lentz method. For x > 1/2 each partial
    denominator 1 + d_odd is formed from y, so none cancels when a is large.
    """
    ab = a + b
    d_odd = -ab * x / (a + 1.0)
    f = 1.0 + d_odd if x <= 0.5 else ((1.0 - b) + ab * y) / (a + 1.0)
    c, d = f, 0.0
    for m in range(1, 1000):
        am = a + 2 * m
        d_even = m * (b - m) * x / ((am - 1.0) * am)
        den = am * (am + 1.0)
        num = (a + m) * (ab + m)
        if x <= 0.5:
            one_plus_odd = 1.0 - num * x / den
        else:
            one_plus_odd = (a * (2 * m + 1 - b) + m * (3 * m + 2 - b) + num * y) / den
        an = -d_odd * d_even
        bn = one_plus_odd + d_even
        d_odd = -num * x / den
        d = 1.0 / (bn + an * d)
        c = bn + an / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= 2.0 ** -52:
            return 1.0 / f
    raise ArithmeticError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


def _total(values) -> float:
    """The float sum of ``values``, added left to right. From Python 3.12
    ``sum()`` compensates the rounding of floats, so its result would depend
    on the Python version."""
    return reduce(add, values, 0.0)
