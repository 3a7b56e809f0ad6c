"""Shelter-flow tests: attribute distributions, needs profiles, the youth
state machine on scripted entities, and arrival generation."""

import math
import re

import pytest

from sheltersim.config import ServiceSpec, default_services
from sheltersim.distributions import sample_triangular
from sheltersim.experiment import build_streams, run_replication
from sheltersim.model import (
    LOS_SERVICE_ONLY,
    Population,
    ShelterModel,
    assign_attributes,
    build_needs_profile,
    draw_population,
)
from sheltersim.kernel import Simulator
from sheltersim.streams import RngStream
from support import mini_config, scripted_model, scripted_youth


def _streams(seed=11, rep=0):
    return build_streams(seed, rep)


def _youths(n, bed_seeking, seed):
    """``n`` youths of one kind from fresh streams: a bed-seeker fraction of
    1 or 0 makes every kind coin come out the same."""
    streams = _streams(seed)
    specs = default_services()
    population = Population(tuple(s.name for s in specs))
    assign_attributes(population, n, 1.0 if bed_seeking else 0.0, 0.5, 0.25,
                      streams["attributes"].take(6 * n))
    return [population.youth(i) for i in range(n)]


def _profiles(specs, n, stream):
    """``n`` consecutive needs profiles, each a dict by service name."""
    profile, _ = build_needs_profile(specs, n, stream.take(2 * len(specs) * n))
    return [dict(zip((s.name for s in specs), row)) for row in profile.tolist()]


def test_service_only_length_of_stay_range():
    for youth in _youths(2000, False, 11):
        assert 7.0 <= youth.length_of_stay <= 30.0
        assert youth.bed_patience is None
        assert youth.age_group is None
        assert 1.0 <= youth.service_patience <= 14.0


def test_bed_seeking_attribute_ranges():
    seen_ages = set()
    for youth in _youths(2000, True, 12):
        assert 3.0 <= youth.bed_patience <= 7.0
        seen_ages.add(youth.age_group)
        if youth.age_group == "16-20":
            assert 30.0 <= youth.length_of_stay <= 90.0
        else:
            assert 60.0 <= youth.length_of_stay <= 180.0
    assert seen_ages == {"16-20", "21-24"}


def test_service_only_mean_length_of_stay():
    # Analytic mean of the service-only stay distribution is (7+14+30)/3 = 17.
    n = 10**5
    total = 0.0
    for youth in _youths(n, False, 13):
        total += youth.length_of_stay
    assert abs(total / n - 17.0) < 0.1


def test_needs_profile_invariants():
    streams = _streams(14)
    specs = default_services()
    n = 10**5
    insurance_ones = 0
    requests = {s.name: 0 for s in specs}
    for needs in _profiles(specs, n, streams["needs"]):
        assert needs["case_management"] >= 2
        assert needs["insurance_enrollment"] in (0, 1)
        for spec in specs:
            count = needs[spec.name]
            assert 0 <= count <= spec.appt_max
            if count:
                assert count >= spec.appt_min
                requests[spec.name] += 1
        insurance_ones += needs["insurance_enrollment"]
    # Insurance is a coin flip; a binomial 3-sigma band at n=1e5 is ~0.0047.
    assert abs(insurance_ones / n - 0.5) < 0.005
    for spec in specs:
        p = spec.request_prob
        band = 3.0 * math.sqrt(p * (1.0 - p) / n) + 1e-9
        assert abs(requests[spec.name] / n - p) <= band, spec.name


def test_weekly_psychiatric_profile_possible():
    # A youth needing a psychiatrist weekly holds four appointments per month.
    streams = _streams(15)
    specs = default_services()
    seen = set()
    for needs in _profiles(specs, 5000, streams["needs"]):
        seen.add(needs["psychiatric"])
    assert seen == {0, 1, 2, 3, 4}


# -- scripted youth processes ----------------------------------------------------


def test_uncontended_youth_gets_everything_at_wait_zero():
    youth = scripted_youth(1, "bed_seeking", los=40.0, service_patience=14.0,
                           needs={"case_management": 2, "psychiatric": 1},
                           bed_patience=5.0, age="16-20")
    sim, model, trace = scripted_model(
        66, [("case_management", 400), ("psychiatric", 56)], [(0.0, youth)])
    sim.run_until(100.0)
    waits = [e[4] for e in trace if e[0] == "service_grant"]
    assert waits == [0.0, 0.0]
    assert ("bed_grant", 0.0, 1, 0.0) in trace
    assert [e for e in trace if e[0] == "depart"] == [("depart", 40.0, 1, "served_then_left")]
    assert all(pool.busy == 0 for pool in model.pools)


def test_all_reneged_service_only_youth_leaves_unserved():
    blocker = scripted_youth(1, "service_only", los=50.0, service_patience=99.0,
                             needs={"psychiatric": 2})
    victim = scripted_youth(2, "service_only", los=20.0, service_patience=3.0,
                            needs={"psychiatric": 1})
    sim, model, trace = scripted_model(0, [("psychiatric", 2)],
                                       [(0.0, blocker), (1.0, victim)])
    sim.run_until(100.0)
    assert ("service_renege", 4.0, 2, "psychiatric") in trace
    # Leaves at the renege instant, holding nothing.
    assert ("depart", 4.0, 2, "left_unserved") in trace
    assert model.service_pools[0].held_by(victim) == 0


def test_pool_ledger_is_keyed_by_the_youth_and_names_it_by_id():
    youth = scripted_youth(3, "service_only", los=20.0, service_patience=3.0,
                           needs={"psychiatric": 2})
    sim, model, trace = scripted_model(0, [("psychiatric", 2)], [(0.0, youth)])
    sim.run_until(1.0)
    pool = model.service_pools[0]
    assert repr(youth) == "Youth(id=3)"
    assert pool.held_by(youth) == 2
    assert pool.held_by(3) == 0
    sim.run_until(30.0)
    assert pool.held_by(youth) == 0
    with pytest.raises(ValueError, match=re.escape("psychiatric: entity Youth(id=3) holds no units")):
        pool.release(youth)


def test_bed_granted_all_bypassed_stays_full_los():
    youth = scripted_youth(1, "bed_seeking", los=33.0, service_patience=14.0,
                           needs={"psychiatric": 0}, bed_patience=5.0, age="16-20")
    sim, model, trace = scripted_model(2, [("psychiatric", 5)], [(2.0, youth)])
    sim.run_until(100.0)
    assert ("service_bypass", 2.0, 1, "psychiatric") in trace
    assert ("depart", 35.0, 1, "served_then_left") in trace


def test_departure_is_max_of_stay_and_batch_resolution():
    # Sign-up resolves after arrival + stay; departure waits for the batch.
    blocker = scripted_youth(1, "service_only", los=9.0, service_patience=99.0,
                             needs={"psychiatric": 2})
    late = scripted_youth(2, "service_only", los=3.0, service_patience=20.0,
                          needs={"psychiatric": 1})
    sim, model, trace = scripted_model(0, [("psychiatric", 2)],
                                       [(0.0, blocker), (1.0, late)])
    sim.run_until(100.0)
    # Blocker frees units at t=9; "late" is granted then, departs at
    # max(1 + 3, 9) = 9 rather than at 4.
    assert ("service_grant", 9.0, 2, "psychiatric", 8.0) in trace
    assert ("depart", 9.0, 2, "served_then_left") in trace


def test_bed_renege_split_exit_and_stay():
    holder = scripted_youth(1, "bed_seeking", los=50.0, service_patience=9.0,
                            needs={"case_management": 2}, bed_patience=5.0,
                            age="16-20")
    leaver = scripted_youth(2, "bed_seeking", los=40.0, service_patience=9.0,
                            needs={"case_management": 2}, bed_patience=4.0,
                            age="16-20", exits=True)
    stayer = scripted_youth(3, "bed_seeking", los=40.0, service_patience=9.0,
                            needs={"case_management": 2}, bed_patience=6.0,
                            age="21-24", exits=False)
    sim, model, trace = scripted_model(1, [("case_management", 10)],
                                       [(0.0, holder), (1.0, leaver), (2.0, stayer)])
    sim.run_until(100.0)
    assert ("bed_renege", 5.0, 2, "exit") in trace
    assert ("depart", 5.0, 2, "left_unserved") in trace
    assert not [e for e in trace if e[0].startswith("service_") and e[2] == 2]

    assert ("bed_renege", 8.0, 3, "stay") in trace
    # Stays on as a service user with the original stay length: 2 + 40.
    assert ("service_grant", 8.0, 3, "case_management", 0.0) in trace
    assert ("depart", 42.0, 3, "served_then_left") in trace


def test_renege_to_stay_can_redraw_stay_length():
    holder = scripted_youth(1, "bed_seeking", los=200.0, service_patience=9.0,
                            needs={"case_management": 1}, bed_patience=5.0,
                            age="21-24")
    stayer = scripted_youth(2, "bed_seeking", los=170.0, service_patience=9.0,
                            needs={"case_management": 1}, bed_patience=4.0,
                            age="21-24", exits=False)
    sim, model, trace = scripted_model(
        1, [("case_management", 10)], [(0.0, holder), (1.0, stayer)],
        redraw=RngStream(99, 0, "redraw"))
    sim.run_until(300.0)
    # The stayer reads the redraw stream's first draw, through the
    # service-only row: far below 170 days.
    assert stayer.length_of_stay == sample_triangular(
        LOS_SERVICE_ONLY, RngStream(99, 0, "redraw").uniform())
    assert 7.0 <= stayer.length_of_stay <= 30.0
    assert ("depart", 1.0 + stayer.length_of_stay, 2, "served_then_left") in trace


def test_no_arrivals_at_zero_rate():
    sim = Simulator()
    population = draw_population(default_services(), 0.0, 1 / 3, 0.92, 0.25,
                                 _streams(1), 365.25)
    assert len(population) == 0
    model = ShelterModel(sim, 5, default_services(), population=population)
    sim.run_until(365.25)
    assert model.counters.arrivals == 0
    assert sim.now == 365.25


def test_building_the_model_feeds_its_population():
    # Construction is the model's only step: a run to the horizon admits
    # every youth of the population at its drawn time.
    sim = Simulator()
    cfg = mini_config()
    population = draw_population(
        list(cfg.services), cfg.annual_arrivals, cfg.bsy_fraction,
        cfg.age_16_20_fraction, cfg.renege_exit_prob, _streams(3), 300.0)
    assert len(population) > 0
    trace: list = []
    ShelterModel(sim, cfg.bed_capacity, list(cfg.services),
                 population=population, trace=trace)
    sim.run_until(300.0)
    arrivals = [(e[2], e[1]) for e in trace if e[0] == "arrival"]
    assert arrivals == list(enumerate(population.times))


def test_poisson_arrival_count_single_replication():
    # One replication's arrivals land within 3 sqrt(1399) of the annual rate.
    trace: list = []
    stats = run_replication(mini_config(
        annual_arrivals=1399.0, bed_capacity=66,
        services=tuple(default_services()), warmup_days=0.0,
        stats_window_days=365.25), 0, trace)
    assert abs(stats.arrivals - 1399) <= 3 * math.sqrt(1399)
    arrival_ids = [e[2] for e in trace if e[0] == "arrival"]
    # Repeat visitors are new entities: ids never recur.
    assert len(arrival_ids) == len(set(arrival_ids))


def test_granted_units_match_needs_profile():
    trace: list = []
    run_replication(mini_config(replications=1), 0, trace)
    needs_by_youth = {e[2]: e[8] for e in trace if e[0] == "arrival"}
    order = [s.name for s in mini_config().services]
    for entry in trace:
        if entry[0] == "service_request":
            _, _, youth_id, name, units = entry
            assert units == needs_by_youth[youth_id][order.index(name)]


def test_conservation_after_drain():
    # Cut arrivals off and run far past the horizon: everyone departs, all
    # units return, and the flow identity closes exactly.
    sim = Simulator()
    cfg = mini_config()
    streams = _streams(555)
    population = draw_population(
        list(cfg.services), cfg.annual_arrivals, cfg.bsy_fraction,
        cfg.age_16_20_fraction, cfg.renege_exit_prob, streams, 200.0)
    trace: list = []
    model = ShelterModel(
        sim, cfg.bed_capacity, list(cfg.services), population=population,
        trace=trace,
    )
    model.reset_statistics()
    sim.run_until(2000.0)
    counters = model.counters
    assert counters.arrivals > 0
    assert counters.arrivals == counters.served_then_left + counters.left_unserved
    for pool in model.pools:
        assert pool.busy == 0, pool.name
        assert len(pool.queue) == 0, pool.name
        w = pool.window_stats()
        assert w.requests == w.served + w.reneges + w.still_queued, pool.name
    # Every recorded served wait obeys the youth's patience.
    assert all(e[3] >= 0.0 for e in trace if e[0] == "bed_grant")


def test_bed_renege_exit_fraction_matches_coin():
    # Pooled over replications, the share of bed-queue abandoners who exit
    # outright sits inside the 3-sigma binomial band around 0.25.
    from sheltersim.config import ScenarioConfig

    exits = stays = 0
    for rep in range(4):
        stats = run_replication(ScenarioConfig(), rep)
        exits += stats.bed_renege_exit
        stays += stats.bed_renege_stayed
    n = exits + stays
    assert n > 200
    band = 3.0 * math.sqrt(0.25 * 0.75 / n)
    assert abs(exits / n - 0.25) < band


def test_each_youth_departs_exactly_once():
    trace: list = []
    run_replication(mini_config(), 1, trace)
    departed = [e[2] for e in trace if e[0] == "depart"]
    assert len(departed) == len(set(departed))
    # Departures only happen for admitted youth.
    arrived = {e[2] for e in trace if e[0] == "arrival"}
    assert set(departed) <= arrived


def test_left_unserved_iff_holding_nothing():
    trace: list = []
    run_replication(mini_config(), 0, trace)
    granted = {e[2] for e in trace if e[0] in ("bed_grant", "service_grant")}
    departs = [e for e in trace if e[0] == "depart"]
    assert departs
    for _, _, youth_id, kind in departs:
        assert (kind == "left_unserved") == (youth_id not in granted)
    # Every grant carries its wait.
    assert all(e[-1] >= 0.0 for e in trace if e[0] in ("bed_grant", "service_grant"))


def test_randomized_scripted_scenarios_keep_invariants():
    # Random attribute combinations through a cramped two-service shelter:
    # every youth departs exactly once, never before arrival, and all units
    # come back, off both the youth's list and the pools' ledger.
    import numpy as np

    rng = np.random.default_rng(31415)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        admissions = []
        for i in range(n):
            kind = "bed_seeking" if rng.random() < 0.5 else "service_only"
            youth = scripted_youth(
                i, kind,
                los=float(np.round(rng.uniform(0.5, 30.0), 3)),
                service_patience=float(np.round(rng.uniform(0.1, 10.0), 3)),
                needs={"case_management": int(rng.integers(0, 4)),
                       "psychiatric": int(rng.integers(0, 3))},
                bed_patience=(float(np.round(rng.uniform(0.1, 8.0), 3))
                              if kind == "bed_seeking" else None),
                age="16-20" if kind == "bed_seeking" else None,
                exits=bool(rng.random() < 0.25),
            )
            admissions.append((float(np.round(rng.uniform(0.0, 15.0), 3)), youth))
        sim, model, trace = scripted_model(
            2, [("case_management", 3), ("psychiatric", 2)], admissions)
        sim.run_until(200.0)
        departs = [e for e in trace if e[0] == "depart"]
        assert len(departs) == n
        assert len({e[2] for e in departs}) == n
        admitted_at = {youth.id: t for t, youth in admissions}
        for _, t, youth_id, _kind in departs:
            assert t >= admitted_at[youth_id]
        for pool in model.pools:
            assert pool.busy == 0, pool.name
            assert not pool.queue, pool.name
        for _t, youth in admissions:
            assert youth.held == [], youth.id
            assert all(pool.held_by(youth) == 0 for pool in model.pools), youth.id
