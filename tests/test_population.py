"""The population drawn a window of youths at a time against the per-youth
reference draw in ``support``, column for column, and its peak memory."""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from sheltersim.config import ServiceSpec
from sheltersim.distributions import ExponentialParams, sample_exponential
from sheltersim.experiment import build_streams
from sheltersim.model import DAYS_PER_YEAR, WINDOW, draw_population
from support import reference_population
from test_golden import POPULATION_COLUMNS

fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def service_specs(draw, index):
    appt_min = draw(st.integers(1, 10 ** 9) | st.integers(1, 4))
    appt_max = draw(st.just(appt_min) | st.integers(appt_min, appt_min + 4)
                    | st.integers(appt_min, 10 ** 9))
    return ServiceSpec(f"s{index}", appt_max, draw(fractions), appt_min, appt_max)


@st.composite
def populations(draw):
    """Arguments of ``draw_population`` for a population of a chosen size,
    sizes at and around the window's included."""
    specs = [draw(service_specs(i)) for i in range(draw(st.integers(1, 8)))]
    annual_arrivals = draw(st.floats(10.0, 5000.0))
    seed = draw(st.integers(0, 2 ** 32))
    size = draw(st.sampled_from([0, 1, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW])
                | st.integers(0, 3 * WINDOW))
    # The horizon is the size-th arrival time, so exactly ``size`` arrive.
    gap = ExponentialParams(DAYS_PER_YEAR / annual_arrivals)
    stream = build_streams(seed, 0)["arrivals"]
    horizon = 0.0
    for _ in range(size):
        horizon = horizon + sample_exponential(gap, 1.0 - stream.uniform())
    return (specs, annual_arrivals, draw(fractions), draw(fractions),
            draw(fractions), seed, horizon, size)


def _columns(population):
    # As ``test_population_digest`` hashes them.
    return {name: repr(list(getattr(population, name))) for name in POPULATION_COLUMNS}


@given(populations())
@settings(max_examples=60, deadline=None)
def test_window_draw_equals_per_youth_draw(case):
    *args, seed, horizon, size = case
    population = draw_population(*args, build_streams(seed, 0), horizon)
    assert len(population) == size
    assert _columns(population) == _columns(
        reference_population(*args, build_streams(seed, 0), horizon))


@given(st.lists(service_specs(0), min_size=1, max_size=3), fractions, st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_zero_arrival_rate_draws_nobody(specs, fraction, seed):
    population = draw_population(specs, 0.0, fraction, fraction, fraction,
                                 build_streams(seed, 0), 1000.0)
    assert _columns(population) == _columns(
        reference_population(specs, 0.0, fraction, fraction, fraction,
                             build_streams(seed, 0), 1000.0))
    assert len(population) == 0


def test_peak_memory_is_the_population_itself():
    # About 200k arrivals: the window's scratch arrays must stay small beside
    # the columns, which at the arrival limit reach hundreds of MB.
    specs = [ServiceSpec(f"s{i}", 10, 0.5, 1, 5) for i in range(5)]
    streams = build_streams(3, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        population = draw_population(specs, 100_000.0, 1 / 3, 0.92, 0.25, streams, 730.5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(population) > 190_000
    assert peak - before <= 1.1 * (kept - before)
