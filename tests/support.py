"""Shared helpers for the test suite: a small scaled-down scenario, scripted
youth construction, the per-youth reference draw of a population, trace
filters and window counts, the bed pool recomputed without the calendar,
strategies for fuzzing configs, and reusable statistical checks."""

from __future__ import annotations

import heapq
import math
from collections import Counter

import numpy as np
from hypothesis import strategies as st

from sheltersim.distributions import (
    ExponentialParams,
    TriangularParams,
    sample_exponential,
    sample_triangular,
    sample_uniform_int,
)
from sheltersim.config import RESERVED_NAMES, ScenarioConfig, ServiceSpec
from sheltersim.kernel import Simulator
from sheltersim.model import (
    BED_PATIENCE,
    BED_RESOURCE,
    DAYS_PER_YEAR,
    FLOW_LABELS,
    LOS_BED_SEEKING_16_20,
    LOS_BED_SEEKING_21_24,
    LOS_SERVICE_ONLY,
    SERVICE_PATIENCE,
    Population,
    ShelterModel,
    Youth,
)
from sheltersim.stats import _total


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
    return Youth(youth_id, kind, age, los, bed_patience, service_patience,
                 dict(needs), exits_on_bed_renege=exits)


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


def reference_population(specs, annual_arrivals, bsy_fraction, age_16_20_fraction,
                         renege_exit_prob, streams, horizon) -> Population:
    """``draw_population`` one youth and one draw at a time, with the scalar
    samplers: the oracle for the window-at-a-time draw."""
    population = Population(tuple(s.name for s in specs))
    if annual_arrivals <= 0:
        return population
    gap = ExponentialParams(DAYS_PER_YEAR / annual_arrivals)
    arrival, attr, need = (streams[name].uniform for name in ("arrivals", "attributes", "needs"))
    t = 0.0
    while (t := t + sample_exponential(gap, 1.0 - arrival())) <= horizon:
        population.times.append(t)
        bed_seeking = attr() < bsy_fraction
        if bed_seeking:
            young = attr() < age_16_20_fraction
            los = sample_triangular(LOS_BED_SEEKING_16_20 if young else LOS_BED_SEEKING_21_24,
                                    attr())
            bed_patience = sample_triangular(BED_PATIENCE, attr())
            exits = attr() < renege_exit_prob
        else:
            young = exits = False
            los = sample_triangular(LOS_SERVICE_ONLY, attr())
            bed_patience = 0.0
        population.bed_seeking.append(bed_seeking)
        population.age_16_20.append(young)
        population.exits.append(exits)
        population.length_of_stay.append(los)
        population.bed_patience.append(bed_patience)
        population.service_patience.append(sample_triangular(SERVICE_PATIENCE, attr()))
        population.needs.extend(sample_uniform_int(spec.appt_min, spec.appt_max, need())
                                if need() < spec.request_prob else 0
                                for spec in specs)
    return population


def arrival_log(trace: list) -> list:
    """Arrival entries of a trace: epoch plus every drawn youth attribute."""
    return [entry for entry in trace if entry[0] == "arrival"]


# The counts and waits of a pool that ``window_counts`` recomputes.
POOL_COUNTS = ("requests", "served", "reneges", "still_queued", "avg_wait", "max_wait")

# The flow counter of each way a bed seeker gives up, as the trace words it.
BED_RENEGE_FLOWS = {"exit": "bed_renege_exit", "stay": "bed_renege_stayed"}


def window_counts(trace: list, pools, start: float, end: float) -> tuple[dict, dict]:
    """The flow counters, and each of ``pools``'s ``POOL_COUNTS``, of the
    statistics window (start, end], recomputed from a replication's
    ``trace`` alone.

    An arrival or a request counts when its time is after ``start``, and a
    youth's flows count when its arrival does. A wait is the time of a
    counted request's grant minus its own, summed with ``_total`` in trace
    order; a request with neither a grant nor a renege is still queued.
    """
    flows = dict.fromkeys(FLOW_LABELS, 0)
    counted = set()  # the youths who arrived in the window
    queued = {}  # (pool, youth) -> time, of every counted request not yet resolved
    requests, reneges = Counter(), Counter()
    waits = {pool: [] for pool in pools}
    for event, t, youth, *rest in trace:
        if t > end:
            break
        subject, _, step = event.partition("_")  # e.g. "bed", "_", "request"
        pool = BED_RESOURCE if subject == "bed" else rest[0]
        if event == "arrival" and t > start:
            counted.add(youth)
            flows["arrivals"] += 1
            flows["still_in_system"] += 1
            flows[f"arrivals_{rest[0]}"] += 1
        elif step == "request" and t > start:
            queued[pool, youth] = t
            requests[pool] += 1
        elif step == "grant" and (pool, youth) in queued:
            waits[pool].append(t - queued.pop((pool, youth)))
        elif step == "renege" and (pool, youth) in queued:
            del queued[pool, youth]
            reneges[pool] += 1
        if event == "bed_renege" and youth in counted:
            flows[BED_RENEGE_FLOWS[rest[0]]] += 1
        elif event == "depart" and youth in counted:
            flows[rest[0]] += 1
            flows["still_in_system"] -= 1
    still_queued = Counter(pool for pool, _ in queued)
    return flows, {pool: {
        "requests": requests[pool], "served": len(waits[pool]), "reneges": reneges[pool],
        "still_queued": still_queued[pool],
        "avg_wait": _total(waits[pool]) / len(waits[pool]) if waits[pool] else None,
        "max_wait": max(waits[pool], default=None)} for pool in pools}


def bed_pool_counts(population: Population, beds: int, start: float, end: float) -> dict:
    """The bed pool's ``POOL_COUNTS`` over the window (start, end], from the
    population alone: no calendar, no queue.

    A bed holder leaves at exactly arrival + stay, since a stay is at least
    30 days and bed plus service patience at most 21. So the pool is a
    first-come-first-served queue of ``beds`` servers with impatient
    customers, and a heap of the times at which beds come free gives each
    bed seeker, in arrival order, the time a bed would take them.
    """
    free = [0.0] * beds  # a heap
    requests, reneges, still_queued, grants = 0, 0, 0, []
    for i, arrival in enumerate(population.times):
        if arrival > end:
            break
        if not population.bed_seeking[i]:
            continue
        granted = max(arrival, free[0])
        deadline = arrival + population.bed_patience[i]
        if granted <= deadline:
            heapq.heapreplace(free, arrival + population.length_of_stay[i])
        if arrival <= start:
            continue
        requests += 1
        if min(granted, deadline) > end:
            still_queued += 1
        elif granted <= deadline:
            grants.append((granted, granted - arrival))
        else:
            reneges += 1
    # In grant order, as the pool sums them; a tie is granted first come first served.
    waits = [wait for _, wait in sorted(grants, key=lambda grant: grant[0])]
    return {"requests": requests, "served": len(waits), "reneges": reneges,
            "still_queued": still_queued,
            "avg_wait": _total(waits) / len(waits) if waits else None,
            "max_wait": max(waits, default=None)}


# The names of the bed pool's and the flows' rows, which no service may take.
reserved_names = st.sampled_from(RESERVED_NAMES)

# JSON values of every kind, at the extremes a config file or --set can hold.
numbers = (st.integers(min_value=-10 ** 400, max_value=10 ** 400)
           | st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=8) | numbers,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def shaped_like(default):
    """JSON values of the kind a field with this ``to_dict`` value takes,
    mixed with values of any kind."""
    if isinstance(default, list):
        entry = st.fixed_dictionaries({}, optional={
            key: shaped_like(value) for key, value in default[0].items()})
        kind = st.lists(entry | json_values, max_size=3)
    elif isinstance(default, bool):
        kind = st.booleans()
    elif isinstance(default, str):
        kind = st.text(max_size=8) | reserved_names
    else:
        kind = numbers
    return kind | json_values


def mostly(usual, rest):
    """``usual`` nine draws in ten, ``rest`` otherwise."""
    return st.integers(0, 9).flatmap(lambda k: rest if k == 0 else usual)


@st.composite
def service_entry(draw, name: str) -> dict:
    """A valid service entry: every key given, appointments within capacity."""
    appt_min = draw(st.integers(1, 5))
    appt_max = draw(st.integers(appt_min, appt_min + 4))
    return {"name": name, "capacity_units": draw(st.integers(appt_max, 500)),
            "request_prob": draw(st.floats(0.0, 1.0)),
            "appt_min": appt_min, "appt_max": appt_max}


# Unique service names; now and then the first is one the results reserve.
fresh_names = st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=8,
                       unique=True)
service_names = mostly(fresh_names, st.builds(
    lambda names, name: [name, *names[1:]], fresh_names, reserved_names))

# A usual value for every declared key. A config of these alone is valid
# unless a service takes a reserved name, and expects at most about 4,400
# arrivals per replication, so runs stay short.
fractions = st.floats(0.0, 1.0)
days = st.floats(0.0, 400.0)
usual_values = {
    "bed_capacity": st.integers(1, 200),
    "services": service_names.flatmap(
        lambda names: st.tuples(*map(service_entry, names)).map(list)),
    "annual_arrivals": st.floats(0.0, 2000.0),
    "bsy_fraction": fractions,
    "age_16_20_fraction": fractions,
    "renege_exit_prob": fractions,
    "redraw_los_on_bed_renege": st.booleans(),
    "warmup_days": days,
    "stats_window_days": days.filter(lambda d: d > 0.0),
    "replications": st.integers(1, 1000),
    "master_seed": st.integers(0, 2 ** 64 - 1),
}
assert usual_values.keys() == ScenarioConfig().to_dict().keys()

# Config objects over the declared keys. Each value is mostly a valid one;
# the rest are shaped like the field's value or of any JSON kind, so about
# six drawn configs in ten validate.
config_dicts = st.fixed_dictionaries({}, optional={
    key: mostly(usual_values[key], shaped_like(value))
    for key, value in ScenarioConfig().to_dict().items()})


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
