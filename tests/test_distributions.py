"""Sampler contracts: inverse-CDF spot values, parameter validation, range
containment and monotonicity properties, and Monte Carlo moment checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheltersim.distributions import (
    ExponentialParams,
    TriangularParams,
    sample_bernoulli,
    sample_exponential,
    sample_triangular,
    sample_uniform_int,
)
from support import (
    check_exponential_mean,
    check_triangular_moments,
    check_uniform_int_frequencies,
)


def test_triangular_lower_bound():
    assert sample_triangular(TriangularParams(3, 5, 7), 0.0) == 3.0


def test_triangular_symmetric_median_is_mode():
    # F(5) = (5-3)/(7-3) = 0.5 for the symmetric case.
    assert sample_triangular(TriangularParams(3, 5, 7), 0.5) == pytest.approx(5.0)


def test_triangular_approaches_upper_bound():
    value = sample_triangular(TriangularParams(3, 5, 7), 1.0 - 1e-12)
    assert value == pytest.approx(7.0, abs=1e-4)


def test_triangular_edge_modes():
    # Degenerate mode at either end still samples inside the support.
    left = TriangularParams(0, 0, 2)
    right = TriangularParams(0, 2, 2)
    for u in (0.0, 0.25, 0.5, 0.75, 0.999999):
        assert 0.0 <= sample_triangular(left, u) <= 2.0
        assert 0.0 <= sample_triangular(right, u) <= 2.0


def test_triangular_param_validation():
    with pytest.raises(ValueError):
        TriangularParams(5, 4, 7)
    with pytest.raises(ValueError):
        TriangularParams(3, 8, 7)
    with pytest.raises(ValueError):
        TriangularParams(3, 3, 3)


def test_triangular_moments_match_analytic_values():
    # Mean (30+75+90)/3 = 65 within the 3-sigma band at a million draws.
    check_triangular_moments(TriangularParams(30, 75, 90), n=10**6, seed=41)


def test_exponential_spot_values():
    assert sample_exponential(ExponentialParams(1.0), 1.0 / math.e) == pytest.approx(1.0)
    assert sample_exponential(ExponentialParams(2.0), 1.0) == 0.0


def test_exponential_param_validation():
    with pytest.raises(ValueError):
        ExponentialParams(0.0)
    with pytest.raises(ValueError):
        ExponentialParams(-1.0)


def test_exponential_mean_matches():
    check_exponential_mean(0.261, n=10**6, seed=42)


def test_bernoulli_extremes():
    u = np.random.default_rng(7).random(1000)
    assert all(sample_bernoulli(1.0, ui) for ui in u)
    assert not any(sample_bernoulli(0.0, ui) for ui in u)


def test_bernoulli_frequency():
    u = np.random.default_rng(43).random(10**6)
    freq = sum(sample_bernoulli(0.4, ui) for ui in u) / len(u)
    assert abs(freq - 0.4) < 0.002


def test_uniform_int_degenerate_range():
    for u in (0.0, 0.3, 0.999999):
        assert sample_uniform_int(1, 1, u) == 1


def test_uniform_int_containment_and_frequencies():
    check_uniform_int_frequencies(2, 4, n=10**6, seed=44)


def test_uniform_int_full_range_reachable():
    u = np.random.default_rng(45).random(10**5)
    values = {sample_uniform_int(1, 5, ui) for ui in u}
    assert values == {1, 2, 3, 4, 5}


def test_uniform_int_rejects_inverted_range():
    with pytest.raises(ValueError):
        sample_uniform_int(5, 2, 0.5)


# -- property tests ------------------------------------------------------------

def _triangle(low: float, mode_per_mille: float, width: float) -> TriangularParams:
    high = low + width
    # Rounding can put the mode one ulp above high, e.g. at
    # (0, 1000, 0.8171003297942315).
    return TriangularParams(low, min(low + mode_per_mille * width / 1e3, high), high)


triangles = st.tuples(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=0, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
).map(lambda t: _triangle(*t))

unit_draws = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@given(triangles, unit_draws)
@settings(max_examples=300)
def test_triangular_range_containment(params, u):
    assert params.low <= sample_triangular(params, u) <= params.high


@given(triangles, unit_draws, unit_draws)
@settings(max_examples=300)
def test_triangular_monotone_in_u(params, u1, u2):
    lo, hi = sorted((u1, u2))
    assert sample_triangular(params, lo) <= sample_triangular(params, hi)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-12, max_value=1.0),
       st.floats(min_value=1e-12, max_value=1.0))
@settings(max_examples=300)
def test_exponential_positive_and_monotone(mean, u1, u2):
    params = ExponentialParams(mean)
    assert sample_exponential(params, u1) >= 0.0
    lo, hi = sorted((u1, u2))
    # Inverse CDF by -ln(u) is decreasing in u.
    assert sample_exponential(params, hi) <= sample_exponential(params, lo)


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=0, max_value=50),
       unit_draws)
@settings(max_examples=300)
def test_uniform_int_containment(lo, width, u):
    value = sample_uniform_int(lo, lo + width, u)
    assert lo <= value <= lo + width
