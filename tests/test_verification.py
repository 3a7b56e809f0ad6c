"""Verification: statistics the kernel accumulates inline, recomputed from
nothing but the events a replication records, and occupancy and abandonment
checked against the queueing laws the pools must obey."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sheltersim.config import ScenarioConfig
from sheltersim.experiment import run_replication, run_scenario
from sheltersim.kernel import Resource, Simulator
from sheltersim.model import (
    BED_RESOURCE,
    DAYS_PER_YEAR,
    LOS_BED_SEEKING_16_20,
    LOS_BED_SEEKING_21_24,
    LOS_SERVICE_ONLY,
)
from sheltersim.stats import estimate
from support import mini_config


def busy_unit_days(trace: list, window_start: float, window_end: float) -> dict[str, float]:
    """Unit-days each pool was held within [window_start, window_end].

    Every grant holds its units (one bed, or the units of the matching
    service request) from the grant until the youth departs, or until the
    window ends for a youth still in the shelter.
    """
    requested = {}  # (youth, service) -> units asked for
    grants = []  # (youth, pool, units, grant time)
    departures = {}
    for entry in trace:
        kind, t, youth = entry[:3]
        if kind == "bed_grant":
            grants.append((youth, BED_RESOURCE, 1, t))
        elif kind == "service_request":
            requested[youth, entry[3]] = entry[4]
        elif kind == "service_grant":
            grants.append((youth, entry[3], requested[youth, entry[3]], t))
        elif kind == "depart":
            departures[youth] = t
    busy = {}
    for youth, pool, units, granted in grants:
        held = (min(departures.get(youth, window_end), window_end)
                - max(granted, window_start))
        if held > 0:
            busy[pool] = busy.get(pool, 0.0) + units * held
    return busy


@pytest.mark.parametrize("make_config, replication",
                         [(ScenarioConfig, rep) for rep in range(3)]
                         + [(mini_config, rep) for rep in range(4)])
def test_utilization_equals_busy_time_recomputed_from_the_trace(make_config, replication):
    config = make_config()
    trace = []
    stats = run_replication(config, replication, trace=trace)
    start = config.warmup_days
    busy = busy_unit_days(trace, start, start + config.stats_window_days)
    capacities = {BED_RESOURCE: config.bed_capacity,
                  **{s.name: s.capacity_units for s in config.services}}
    assert set(stats.resources) == set(capacities)
    for name, res in stats.resources.items():
        expected = busy.get(name, 0.0) / (capacities[name] * config.stats_window_days)
        assert res.utilization == pytest.approx(expected, rel=1e-9, abs=0.0), name


def mean_bed_stay(config: ScenarioConfig) -> float:
    """A bed seeker's mean stay, over both age bands (69.40 d by default)."""
    young = config.age_16_20_fraction
    return young * LOS_BED_SEEKING_16_20.mean + (1.0 - young) * LOS_BED_SEEKING_21_24.mean


def test_busy_beds_without_contention_match_the_infinite_server_mean():
    # With far more beds than seekers, no bed seeker waits and each holds
    # its bed for its whole stay: the bed pool is an M/G/inf queue, whose
    # mean busy servers in steady state are lambda_b E[LOS] (1.2768/d x
    # 69.40 d = 88.61 at the defaults). A stay is at most 180 days, so the
    # 365.25-day warm-up starts the window in steady state.
    beds = 1000
    config = replace(ScenarioConfig(), bed_capacity=beds, replications=20)
    bed_rate = config.annual_arrivals * config.bsy_fraction / DAYS_PER_YEAR
    expected = bed_rate * mean_bed_stay(config)
    assert expected == pytest.approx(88.61, abs=0.01)
    summary = run_scenario(config).resources[BED_RESOURCE]
    assert summary.avg_wait == 0.0
    busy, half_width = beds * summary.utilization, beds * summary.utilization_ci
    assert abs(busy - expected) <= 3 * half_width, (busy, half_width, expected)


def test_busy_service_units_without_contention_match_the_infinite_server_mean():
    # With no capacity binding, every youth is granted each service it asks
    # for on arrival and holds it until it leaves at arrival + stay: each
    # service pool is an M/G/inf queue whose mean busy units are
    # lambda p E[count] E[LOS], lambda counting every arrival and E[LOS]
    # averaged over bed seekers and service-only youth.
    units = 10 ** 6
    base = ScenarioConfig()
    config = replace(base, bed_capacity=1000, replications=20,
                     services=tuple(replace(s, capacity_units=units) for s in base.services))
    rate = config.annual_arrivals / DAYS_PER_YEAR
    mean_stay = (config.bsy_fraction * mean_bed_stay(config)
                 + (1.0 - config.bsy_fraction) * LOS_SERVICE_ONLY.mean)
    assert mean_stay == pytest.approx(34.467, abs=0.001)
    summary = run_scenario(config)
    for spec in config.services:
        res = summary.resources[spec.name]
        assert res.avg_wait == 0.0, spec.name
        mean_count = (spec.appt_min + spec.appt_max) / 2.0
        expected = rate * spec.request_prob * mean_count * mean_stay
        busy, half_width = units * res.utilization, units * res.utilization_ci
        assert abs(busy - expected) <= 3 * half_width, (spec.name, busy, half_width, expected)


def test_littles_law_on_the_beds_holds_for_the_stay_less_the_wait():
    # A bed holder leaves at arrival + stay, so it holds its bed for
    # stay - wait, and Little's law reads busy beds = grant rate x
    # E[stay - wait]. Per replication, the grants and their holding times
    # come from the trace. With the stay alone as the holding time the law
    # overstates the busy beds by the grant rate x E[wait].
    config = ScenarioConfig()
    start = config.warmup_days
    end = start + config.stats_window_days
    gaps = {"stay - wait": [], "stay": []}
    for rep in range(20):
        trace = []
        stats = run_replication(config, rep, trace=trace)
        stays = {entry[2]: entry[5] for entry in trace if entry[0] == "arrival"}
        grants = [(stays[entry[2]], entry[3]) for entry in trace
                  if entry[0] == "bed_grant" and start < entry[1] <= end]
        busy = config.bed_capacity * stats.resources[BED_RESOURCE].utilization
        rate = len(grants) / config.stats_window_days
        gaps["stay - wait"].append(
            busy - rate * sum(stay - wait for stay, wait in grants) / len(grants))
        gaps["stay"].append(busy - rate * sum(stay for stay, _ in grants) / len(grants))
    mean, half_width = estimate(gaps["stay - wait"])
    assert abs(mean) <= 3 * half_width, (mean, half_width)
    mean, half_width = estimate(gaps["stay"])
    assert abs(mean) > 3 * half_width, (mean, half_width)


def erlang_a(lam: float, c: int, mu: float, theta: float,
             states: int = 2000) -> tuple[float, float]:
    """The abandonment fraction theta E[queue] / lam and the utilization
    E[busy] / c of the M/M/c+M (Erlang-A) queue, from the stationary
    distribution of its birth-death chain truncated at ``states`` states."""
    weights = [1.0]
    for n in range(1, states):
        weights.append(weights[-1] * lam / (min(n, c) * mu + max(n - c, 0) * theta))
    total = math.fsum(weights)
    queue = math.fsum(max(n - c, 0) * w for n, w in enumerate(weights)) / total
    busy = math.fsum(min(n, c) * w for n, w in enumerate(weights)) / total
    return theta * queue / lam, busy / c


def erlang_a_run(lam: float, c: int, mu: float, theta: float, seed: int,
                 warmup: float, window: float) -> tuple[float, float]:
    """One ``Resource`` of ``c`` units fed single-unit requests at Poisson
    rate ``lam``, each holding its unit for an exponential time of rate
    ``mu`` and abandoning after an exponential patience of rate ``theta``:
    the window's abandonment fraction and utilization."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    pool = Resource(sim, "pool", c)

    def arrive(customer: int) -> None:
        pool.request(customer, 1, rng.exponential(1 / theta), hold, lambda *_: None)
        sim.schedule(sim.now + rng.exponential(1 / lam), arrive, customer + 1)

    def hold(customer: int, pool: Resource, wait: float) -> None:
        sim.schedule(sim.now + rng.exponential(1 / mu), pool.release, customer)

    sim.schedule(rng.exponential(1 / lam), arrive, 0)
    sim.run_until(warmup)
    pool.reset_statistics()
    sim.run_until(warmup + window)
    stats = pool.window_stats()
    return stats.reneges / stats.requests, stats.utilization


@pytest.mark.parametrize("case", [(12, 10, 1, 0.5), (9, 10, 1, 2)])
def test_resource_abandonment_and_utilization_match_erlang_a(case):
    # Strict FIFO has a standard closed form for single-unit requests only.
    runs = [erlang_a_run(*case, seed, warmup=100.0, window=1000.0) for seed in range(20)]
    for quantity, exact, values in zip(("abandonment", "utilization"), erlang_a(*case),
                                       zip(*runs)):
        mean, half_width = estimate(values)
        assert abs(mean - exact) <= 3 * half_width, (quantity, case, mean, half_width, exact)
