"""Shared helpers for the test suite: a small scaled-down scenario, scripted
youth construction, JSON value strategies for fuzzing configs, and reusable
statistical checks."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from sheltersim.distributions import (
    ExponentialParams,
    TriangularParams,
    sample_exponential,
    sample_triangular,
    sample_uniform_int,
)
from sheltersim.experiment import ScenarioConfig
from sheltersim.kernel import Simulator
from sheltersim.model import (
    AgeGroup,
    ServiceSpec,
    ShelterModel,
    Youth,
    YouthKind,
)


def mini_config(**overrides) -> ScenarioConfig:
    """A roughly 1:8 scale shelter that keeps the load ratios of the full one
    but runs in a fraction of the time."""
    base = dict(
        bed_capacity=8,
        services=(
            ServiceSpec("case_management", 50, 1.0, 2, 4),
            ServiceSpec("drug_counseling", 8, 0.40, 1, 4),
            ServiceSpec("insurance_enrollment", 5, 0.50, 1, 1),
            ServiceSpec("psychiatric", 7, 0.50, 1, 4),
            ServiceSpec("medical", 24, 0.90, 1, 5),
        ),
        annual_arrivals=175.0,
        warmup_days=120.0,
        stats_window_days=180.0,
        replications=4,
        master_seed=777,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def scripted_youth(youth_id: int, kind: str, los: float, service_patience: float,
                   needs: dict[str, int], bed_patience: float | None = None,
                   age: str | None = None, exits: bool = False) -> Youth:
    """Build a youth with fixed attributes instead of drawn ones; see
    ``scripted_model`` for how ``needs`` reaches the model."""
    kind_enum = YouthKind.BED_SEEKING if kind == "bed_seeking" else YouthKind.SERVICE_ONLY
    age_enum = {None: None, "16-20": AgeGroup.AGE_16_20, "21-24": AgeGroup.AGE_21_24}[age]
    return Youth(youth_id, kind_enum, age_enum, los, bed_patience,
                 service_patience, dict(needs), exits_on_bed_renege=exits)


def scripted_model(bed_capacity: int, services: list[tuple[str, int]],
                   admissions: list[tuple[float, Youth]], **options):
    """A shelter with no arrival process, fed the given (time, youth) list.

    Each youth's needs, given as a dict by service name, become the list in
    service order that the model reads. ``options`` go to ``ShelterModel``.
    """
    sim = Simulator()
    specs = [ServiceSpec(name, cap, 1.0, 1, max(1, cap)) for name, cap in services]
    trace: list = []
    model = ShelterModel(sim, bed_capacity, specs, trace=trace, **options)
    for t, youth in admissions:
        youth.needs = [youth.needs[name] for name, _ in services]
        sim.schedule(t, model.admit, youth)
    return sim, model, trace


# JSON values of every kind, at the extremes a config file or --set can hold.
numbers = (st.integers(min_value=-10 ** 400, max_value=10 ** 400)
           | st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=8) | numbers,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


# -- distribution checks (3-sigma Monte Carlo bands) -----------------------------


def check_triangular_moments(params: TriangularParams, n: int, seed: int) -> None:
    u = np.random.default_rng(seed).random(n)
    samples = np.fromiter((sample_triangular(params, ui) for ui in u),
                          dtype=float, count=n)
    sigma = math.sqrt(params.variance)
    assert abs(samples.mean() - params.mean) < 3.0 * sigma / math.sqrt(n)
    # Sample-variance sampling error: roughly sigma^2 * sqrt(2 / n) for
    # short-tailed distributions; triangular kurtosis is below 3.
    assert abs(samples.var(ddof=1) - params.variance) < 3.0 * params.variance * math.sqrt(2.0 / n)
    assert samples.min() >= params.low
    assert samples.max() <= params.high


def check_exponential_mean(mean: float, n: int, seed: int) -> None:
    u = 1.0 - np.random.default_rng(seed).random(n)
    params = ExponentialParams(mean)
    samples = np.fromiter((sample_exponential(params, ui) for ui in u),
                          dtype=float, count=n)
    assert abs(samples.mean() - mean) < 3.0 * mean / math.sqrt(n)
    assert samples.min() >= 0.0


def check_uniform_int_frequencies(lo: int, hi: int, n: int, seed: int) -> None:
    u = np.random.default_rng(seed).random(n)
    samples = [sample_uniform_int(lo, hi, ui) for ui in u]
    values, counts = np.unique(samples, return_counts=True)
    assert values.min() >= lo and values.max() <= hi
    k = hi - lo + 1
    p = 1.0 / k
    band = 3.0 * math.sqrt(p * (1.0 - p) / n)
    for value in range(lo, hi + 1):
        freq = counts[list(values).index(value)] / n if value in values else 0.0
        assert abs(freq - p) < band, f"value {value}: freq {freq} vs {p}"
