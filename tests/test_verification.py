"""Verification against the trace: statistics the kernel accumulates inline,
recomputed from nothing but the events a replication records."""

import pytest

from sheltersim.experiment import ScenarioConfig, run_replication
from sheltersim.model import BED_RESOURCE
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
