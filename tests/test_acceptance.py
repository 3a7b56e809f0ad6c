"""Acceptance suite: every release criterion at shipped defaults, one printed
pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. The scenario runs reuse
module-scoped fixtures, so the whole suite costs three scenario batches: the
100-replication baseline, a bed-capacity sweep, and a psychiatric sweep, both
sweeps under common random numbers at 30 replications per scenario.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from sheltersim.distributions import TriangularParams, sample_triangular
from sheltersim.experiment import (
    ScenarioConfig,
    available_cpus,
    run_replication,
    run_scenario,
    sweep,
)
from sheltersim.kernel import Resource, Simulator
from support import (
    arrival_log,
    check_exponential_mean,
    check_triangular_moments,
    check_uniform_int_frequencies,
)
from test_traces import FIXTURES, load_fixture, run_fixture

BED = "crisis_beds"
SWEEP_REPLICATIONS = 30


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def baseline():
    config = ScenarioConfig()
    start = time.perf_counter()
    summary = run_scenario(config)
    elapsed = time.perf_counter() - start
    return summary, elapsed


# The sweeps use every CPU: their results do not depend on the worker count
# (test_sweep_grid_matches_per_value_scenarios). The baseline stays serial for
# the time gate of criterion 1.
@pytest.fixture(scope="module")
def bed_sweep():
    config = replace(ScenarioConfig(), replications=SWEEP_REPLICATIONS)
    return sweep(config, "bed_capacity", list(range(66, 107, 5)), jobs=available_cpus())


@pytest.fixture(scope="module")
def psych_sweep():
    config = replace(ScenarioConfig(), replications=SWEEP_REPLICATIONS)
    return sweep(config, "service:psychiatric", list(range(56, 169, 16)),
                 jobs=available_cpus())


def test_criterion_1_baseline_flow_counts(baseline):
    summary, elapsed = baseline
    arrivals = summary.flows["arrivals"][0]
    bed_seekers = summary.flows["arrivals_bed_seeking"][0]
    ok = (abs(arrivals - 1399) <= 25 and abs(bed_seekers - 466) <= 15
          and elapsed < 60.0)
    report("criterion 1 (baseline flow counts)", ok,
           f"mean arrivals {arrivals:.1f} (target 1399±25), "
           f"mean bed seekers {bed_seekers:.1f} (target 466±15), "
           f"100 replications in {elapsed:.1f}s (< 60s)")


def test_criterion_2_baseline_bed_statistics(baseline):
    summary, _ = baseline
    beds = summary.resources[BED]
    ok = (beds.utilization >= 0.95
          and abs(beds.renege_pct - 25.3) <= 5.0
          and 1.5 <= beds.avg_wait <= 4.5)
    report("criterion 2 (baseline bed statistics)", ok,
           f"utilization {beds.utilization:.3f} (>= 0.95), "
           f"renege {beds.renege_pct:.1f}% (25.3 +/- 5), "
           f"avg wait {beds.avg_wait:.2f}d (in [1.5, 4.5])")


def test_criterion_3_service_ordering(baseline):
    summary, _ = baseline
    services = [name for name in summary.resources if name != BED]
    holds = 0
    for rep in summary.replications:
        renege = {s: rep.resources[s].renege_pct for s in services}
        wait = {s: rep.resources[s].avg_wait for s in services}
        if any(v is None for v in renege.values()) or any(v is None for v in wait.values()):
            continue
        psych_top = (all(renege["psychiatric"] > renege[s] for s in services
                         if s != "psychiatric")
                     and all(wait["psychiatric"] > wait[s] for s in services
                             if s != "psychiatric"))
        cm_shortest = all(wait["case_management"] < wait[s] for s in services
                          if s != "case_management")
        holds += psych_top and cm_shortest
    n = len(summary.replications)
    report("criterion 3 (service ordering)", holds >= 90,
           f"psychiatric worst renege+wait and case management shortest wait "
           f"in {holds}/{n} replications (need >= 90)")


def test_criterion_4_bed_sweep_trend(bed_sweep):
    reneges = [s.resources[BED].renege_pct for _, s in bed_sweep]
    monotone = all(a >= b - 1e-9 for a, b in zip(reneges, reneges[1:]))
    _, final = bed_sweep[-1]
    final_renege = final.resources[BED].renege_pct
    final_wait = final.resources[BED].avg_wait
    # The reference table reports whole-percent reneging, so "zero" at the
    # top capacity means a share that displays as 0% at that precision.
    ok = monotone and final_renege < 0.5 and final_wait <= 0.1
    path = " -> ".join(f"{r:.1f}" for r in reneges)
    report("criterion 4 (bed sweep trend)", ok,
           f"renege% {path} (non-increasing: {monotone}); at 106 beds "
           f"renege {final_renege:.2f}% (rounds to 0%), wait {final_wait:.3f}d (<= 0.1)")


def test_criterion_5_psych_sweep_trend(psych_sweep):
    waits = [s.resources["psychiatric"].avg_wait for _, s in psych_sweep]
    reneges = [s.resources["psychiatric"].renege_pct for _, s in psych_sweep]
    decreasing = all(a > b for a, b in zip(waits, waits[1:]))
    drop = reneges[0] - reneges[-1]
    ok = decreasing and waits[0] >= 5.0 and waits[-1] <= 1.0 and drop >= 15.0
    path = " -> ".join(f"{w:.2f}" for w in waits)
    report("criterion 5 (psychiatric sweep trend)", ok,
           f"avg wait {path} (strictly decreasing: {decreasing}, "
           f"{waits[0]:.2f} >= 5, {waits[-1]:.2f} <= 1); "
           f"renege {reneges[0]:.1f}% -> {reneges[-1]:.1f}% (drop {drop:.1f} >= 15)")


# -- criterion 6: randomized kernel property suite ---------------------------------


def _case_params(case_index: int):
    rng = np.random.default_rng((987654321, case_index))
    capacity = int(rng.integers(1, 6))
    requests = []
    for i in range(int(rng.integers(1, 9))):
        requests.append((
            float(np.round(rng.uniform(0.0, 20.0), 6)),
            i,
            int(rng.integers(1, capacity + 1)),
            float(np.round(rng.uniform(0.05, 10.0), 6)),
            float(np.round(rng.uniform(0.2, 12.0), 6)),
        ))
    requests.sort()
    return capacity, requests


def _run_case(capacity: int, requests) -> list[tuple]:
    sim = Simulator()
    resource = Resource(sim, "pool", capacity)
    log: list[tuple] = []

    def issue(entity, units, patience, hold):
        log.append(("request", sim.now, entity, units, patience))
        resource.request(
            entity, units, patience,
            lambda wait: granted(entity, units, hold, wait),
            lambda: log.append(("renege", sim.now, entity)),
        )

    def granted(entity, units, hold, wait):
        log.append(("grant", sim.now, entity, units, wait))
        sim.schedule(sim.now + hold, released, entity, units)

    def released(entity, units):
        log.append(("release", sim.now, entity, units))
        resource.release(entity)

    for t, entity, units, patience, hold in requests:
        sim.schedule(t, issue, entity, units, patience, hold)
    sim.run_until(100.0)
    return log, resource


def _check_case(capacity, requests, log, resource):
    request_times = {e: t for t, e, _, _, _ in requests}
    patience_by = {e: p for _, e, _, p, _ in requests}
    busy = 0
    granted_order = []
    reneged = set()
    for entry in log:
        kind = entry[0]
        if kind == "grant":
            _, t, entity, units, wait = entry
            busy += units
            granted_order.append(entity)
            assert wait == t - request_times[entity]
            assert wait <= patience_by[entity], "served wait beyond patience"
        elif kind == "release":
            busy -= entry[3]
        elif kind == "renege":
            _, t, entity = entry
            reneged.add(entity)
            assert t == request_times[entity] + patience_by[entity], \
                "renege not at the exact deadline"
        assert 0 <= busy <= capacity, "capacity exceeded"
    # Strict FIFO: grants happen in request order, skipping reneged entities.
    expected_order = [e for _, e, _, _, _ in requests if e not in reneged]
    assert granted_order == expected_order, "grant order violates FIFO"
    assert len(granted_order) + len(reneged) == len(requests), "conservation"
    assert resource.busy == 0 and not resource.queue
    stats = resource.stats
    assert stats.request_count == len(requests)
    assert stats.renege_count == len(reneged)
    assert sorted(stats.served_waits) == sorted(
        t - request_times[e] for _, t, e, _, _ in
        ((None,) + entry[1:] for entry in log if entry[0] == "grant"))


def test_criterion_6_kernel_property_suite():
    cases = 10_000
    total_events = 0
    for case_index in range(cases):
        capacity, requests = _case_params(case_index)
        log, resource = _run_case(capacity, requests)
        _check_case(capacity, requests, log, resource)
        rerun_log, _ = _run_case(capacity, requests)
        assert rerun_log == log, "kernel run is not deterministic"
        total_events += len(log)
    report("criterion 6 (kernel property suite)", True,
           f"{cases} randomized cases, {total_events} events: capacity bounds, "
           f"exact renege deadlines, waits <= patience, strict FIFO, "
           f"conservation, and bit-exact determinism all held")


def test_criterion_7_trace_fixtures():
    assert len(FIXTURES) == 3
    checked = []
    for path in FIXTURES:
        fixture = load_fixture(path)
        _, trace = run_fixture(fixture)
        assert json.loads(json.dumps(trace)) == fixture["expected_trace"], path.stem
        checked.append(f"{path.stem} ({len(trace)} events)")
    report("criterion 7 (hand-traced micro-scenarios)", True, "; ".join(checked))


def test_criterion_8_distribution_suite():
    draws = 10**6
    assert sample_triangular(TriangularParams(3, 5, 7), 0.0) == 3.0
    assert sample_triangular(TriangularParams(3, 5, 7), 0.5) == pytest.approx(5.0)
    check_triangular_moments(TriangularParams(30, 75, 90), n=draws, seed=2001)
    check_triangular_moments(TriangularParams(1, 7, 14), n=draws, seed=2002)
    check_exponential_mean(0.261, n=draws, seed=2003)
    check_uniform_int_frequencies(2, 4, n=draws, seed=2004)
    report("criterion 8 (distribution suite)", True,
           f"spot values exact; moment and range checks inside 3-sigma bands "
           f"at {draws} draws")


def test_criterion_9_crn_coupling(bed_sweep):
    config = replace(ScenarioConfig(), replications=SWEEP_REPLICATIONS)
    low = replace(config, bed_capacity=66)
    high = replace(config, bed_capacity=86)
    for rep in range(2):
        low_trace: list = []
        run_replication(low, rep, low_trace)
        high_trace: list = []
        run_replication(high, rep, high_trace)
        assert arrival_log(low_trace) == arrival_log(high_trace), \
            "arrival logs diverge between coupled scenarios"
    by_capacity = {cap: [r.resources[BED].reneges for r in s.replications]
                   for cap, s in bed_sweep}
    capacities = sorted(by_capacity)
    violations = 0
    for rep in range(SWEEP_REPLICATIONS):
        counts = [by_capacity[c][rep] for c in capacities]
        violations += any(a < b for a, b in zip(counts, counts[1:]))
    report("criterion 9 (CRN coupling)", violations == 0,
           f"arrival logs identical across capacities; per-replication bed "
           f"renege counts non-increasing over {capacities} in all "
           f"{SWEEP_REPLICATIONS} replications ({violations} violations)")
