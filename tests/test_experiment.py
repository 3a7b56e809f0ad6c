"""Experiment harness tests: replication determinism, warm-up behavior,
summary math, config handling, and common-random-number coupling."""

import gc
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from sheltersim.experiment import (
    FLOW_LABELS,
    MAX_CAPACITY_UNITS,
    MAX_EXPECTED_ARRIVALS,
    MAX_GRID_PAIRS,
    ConfigError,
    ScenarioConfig,
    apply_parameter,
    build_streams,
    replication_population,
    run_replication,
    run_scenario,
    summarize,
    sweep,
    worker_count,
)
from sheltersim.model import BED_RESOURCE
from sheltersim.stats import _total, estimate, t_quantile
from support import arrival_log, config_dicts, mini_config


def test_replication_is_deterministic():
    cfg = mini_config()
    first = run_replication(cfg, 0)
    second = run_replication(cfg, 0)
    assert first == second


def test_replications_differ_from_each_other():
    cfg = mini_config()
    assert run_replication(cfg, 0) != run_replication(cfg, 1)


def test_traced_runs_are_bit_identical():
    cfg = mini_config()
    trace_a: list = []
    stats_a = run_replication(cfg, 3, trace_a)
    trace_b: list = []
    stats_b = run_replication(cfg, 3, trace_b)
    assert stats_a == stats_b
    assert trace_a == trace_b


def test_finished_replication_leaves_no_reference_cycles():
    # The calendar and the queues are cleared after collecting, so a run's
    # objects are freed by reference counting, not by the cycle collector.
    gc.collect()
    gc.disable()
    try:
        run_replication(mini_config(), 0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_zero_warmup_zero_window_yields_zero_counters():
    cfg = mini_config(warmup_days=0.0, stats_window_days=0.0)
    stats = run_replication(cfg, 0)
    assert stats.arrivals == 0
    assert stats.served_then_left == 0
    assert stats.left_unserved == 0
    for res in stats.resources.values():
        assert res.requests == 0
        assert res.served == 0
        assert res.reneges == 0
        assert res.utilization is None


def test_zero_capacity_pool_has_no_utilization():
    stats = run_replication(mini_config(bed_capacity=0, bsy_fraction=0.0), 0)
    assert stats.resources["crisis_beds"].utilization is None


def test_flow_conservation_every_replication():
    cfg = mini_config(replications=6)
    summary = run_scenario(cfg)
    for rep in summary.replications:
        assert rep.arrivals == (rep.served_then_left + rep.left_unserved +
                                rep.still_in_system)
        assert rep.arrivals == rep.arrivals_bed_seeking + rep.arrivals_service_only
        for name, res in rep.resources.items():
            assert res.requests == res.served + res.reneges + res.still_queued, name


def test_single_replication_summary_has_no_ci():
    cfg = mini_config(replications=1)
    summary = run_scenario(cfg)
    rep = summary.replications[0]
    for name, res in summary.resources.items():
        assert res.avg_wait_ci is None
        assert res.utilization_ci is None
        assert res.avg_wait == rep.resources[name].avg_wait
        assert res.max_wait == rep.resources[name].max_wait
    assert summary.flows["arrivals"] == (float(rep.arrivals), None)


def test_summary_means_lie_within_replication_extremes():
    cfg = mini_config(replications=5)
    summary = run_scenario(cfg)
    for name, res in summary.resources.items():
        values = [r.resources[name].avg_wait for r in summary.replications
                  if r.resources[name].avg_wait is not None]
        if values and res.avg_wait is not None:
            assert min(values) <= res.avg_wait <= max(values)


def test_estimate_known_value():
    # Hand-computed: mean 2.5, s = sqrt(5/3), t(0.975, 3) = 3.182446,
    # so the half-width is 3.182446 * 1.290994 / 2 = 2.054257.
    mean, half_width = estimate([1.0, 2.0, 3.0, 4.0])
    assert mean == 2.5
    assert half_width == pytest.approx(2.054257, abs=1e-5)
    assert estimate([5.0]) == (5.0, None)
    assert estimate([]) == (None, None)
    assert estimate([2.0, 2.0, 2.0]) == (2.0, 0.0)


def test_estimate_drops_undefined_values():
    assert estimate([None, 1.0, None, 2.0, 3.0, 4.0]) == estimate([1.0, 2.0, 3.0, 4.0])
    assert estimate([None, 5.0]) == (5.0, None)
    assert estimate([None, None]) == (None, None)


def test_statistics_total_left_to_right():
    # From Python 3.12, sum() compensates float rounding and gives 2.0 here.
    # Left to right, each 1.0 is lost against 1e100, as sum() does on 3.10
    # and 3.11, so statistics are the same bits on every version.
    values = [1.0, 1e100, 1.0, -1e100]
    assert _total(values) == 0.0
    assert estimate(values)[0] == 0.0


def test_t_quantile_matches_scipy_fixture():
    # Reference quantiles from scipy.special.stdtrit, kept as a fixture so the
    # package itself needs no scipy.
    path = Path(__file__).parent / "fixtures" / "t_quantiles.json"
    fixture = json.loads(path.read_text(encoding="utf-8"))
    assert [row[0] for row in fixture["rows"][:200]] == list(range(1, 201))
    assert fixture["rows"][-1][0] == 10 ** 7
    for df, *expected in fixture["rows"]:
        for p, reference in zip(fixture["p"], expected):
            assert t_quantile(p, df) == pytest.approx(reference, rel=1e-12, abs=0.0), (p, df)


def test_t_quantile_closed_forms_and_domain():
    # df = 1 is the Cauchy distribution and df = 2 has a closed form.
    for p in (0.6, 0.9, 0.999):
        assert t_quantile(p, 1) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-13)
        assert t_quantile(p, 2) == pytest.approx(
            (2 * p - 1) / math.sqrt(2 * p * (1 - p)), rel=1e-13)
    assert t_quantile(0.5, 7) == 0.0
    for p, df in ((0.4, 5), (1.0, 5), (0.9, 0)):
        with pytest.raises(ValueError):
            t_quantile(p, df)


def test_warmup_loads_the_system():
    cold = mini_config(warmup_days=0.0, replications=3)
    warm = mini_config(warmup_days=365.25, replications=3)
    cold_util = run_scenario(cold).resources["crisis_beds"].utilization
    warm_util = run_scenario(warm).resources["crisis_beds"].utilization
    # An empty start under-measures utilization relative to a loaded start.
    assert warm_util > cold_util


def test_long_warmup_agrees_with_one_year():
    one = run_scenario(mini_config(warmup_days=365.25, replications=6))
    two = run_scenario(mini_config(warmup_days=730.5, replications=6))
    a, b = one.resources["crisis_beds"], two.resources["crisis_beds"]
    assert abs(a.utilization - b.utilization) <= (a.utilization_ci + b.utilization_ci)
    assert abs(a.renege_pct - b.renege_pct) <= (a.renege_pct_ci + b.renege_pct_ci)


def test_crn_arrival_logs_identical_across_capacities():
    low = mini_config(replications=2)
    high = apply_parameter(low, "bed_capacity", 12)
    for rep in range(2):
        trace_low: list = []
        run_replication(low, rep, trace_low)
        trace_high: list = []
        run_replication(high, rep, trace_high)
        assert arrival_log(trace_low) == arrival_log(trace_high)


def test_crn_bed_reneges_monotone_in_capacity():
    caps = [8, 10, 12]
    per_capacity = []
    for cap in caps:
        summary = run_scenario(mini_config(replications=4, bed_capacity=cap))
        per_capacity.append(
            [r.resources["crisis_beds"].reneges for r in summary.replications])
    for rep in range(4):
        counts = [per_capacity[i][rep] for i in range(len(caps))]
        assert counts == sorted(counts, reverse=True)


def test_sweep_single_value_equals_run_scenario():
    cfg = mini_config(replications=2)
    [(value, swept)] = sweep(cfg, "bed_capacity", [8])
    direct = run_scenario(cfg)
    assert value == 8
    assert swept == direct


def test_sweep_rejects_bad_input():
    cfg = mini_config()
    with pytest.raises(ValueError):
        sweep(cfg, "bed_capacity", [])
    with pytest.raises(ValueError):
        sweep(cfg, "unknown_parameter", [1, 2])
    with pytest.raises(ValueError):
        sweep(cfg, "service:chiropractic", [1, 2])
    # Too many (value, replication) pairs fail before any list is built:
    # ranges stand in for lists too long to allocate.
    for values in (range(10 ** 12), range(MAX_GRID_PAIRS // cfg.replications + 1)):
        with pytest.raises(ConfigError, match="above the limit of 100,000"):
            sweep(cfg, "bed_capacity", values)
    # A repeated value fails before any replication, and after the pair count.
    for values in ([8, 8], [6, 8, 10, 8]):
        with pytest.raises(ConfigError, match="values: 8 is repeated"):
            sweep(cfg, "bed_capacity", values)
    with pytest.raises(ConfigError, match="above the limit of 100,000"):
        sweep(cfg, "bed_capacity", [8] * (MAX_GRID_PAIRS // cfg.replications + 1))


def test_sweep_sets_service_capacity():
    cfg = mini_config()
    swept = apply_parameter(cfg, "service:psychiatric", 44)
    by_name = {s.name: s for s in swept.services}
    assert by_name["psychiatric"].capacity_units == 44
    assert by_name["medical"] == {s.name: s for s in cfg.services}["medical"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_grid_matches_per_value_scenarios(jobs):
    cfg = mini_config(replications=3)
    values = [6, 8, 10]
    swept = sweep(cfg, "bed_capacity", values, jobs=jobs)
    assert [value for value, _ in swept] == values
    for value, summary in swept:
        direct = run_scenario(apply_parameter(cfg, "bed_capacity", value))
        assert summary.replications == direct.replications
        assert summary == direct


def test_population_is_shared_only_across_capacities():
    cfg = mini_config()

    def population(config, rep=0):
        return replication_population(config, rep, build_streams(config.master_seed, rep))

    first = population(cfg)
    assert population(apply_parameter(cfg, "bed_capacity", 12)) is first
    assert population(apply_parameter(cfg, "service:psychiatric", 9)) is first
    services = list(cfg.services)
    services[3] = replace(services[3], request_prob=0.6)
    changed = [
        (replace(cfg, master_seed=778), 0),
        (cfg, 1),
        (replace(cfg, annual_arrivals=176.0), 0),
        (replace(cfg, services=tuple(services)), 0),
        (replace(cfg, stats_window_days=181.0), 0),
        (replace(cfg, warmup_days=119.0), 0),
    ]
    for other, rep in changed:
        base = population(cfg)
        assert population(other, rep) is not base, (other, rep)
    # A redraw after a miss gives the same population again.
    again = population(cfg)
    assert again is not first
    assert again.times == first.times and again.needs == first.needs


def test_parallel_jobs_match_serial():
    cfg = mini_config(replications=4)
    assert run_scenario(cfg, jobs=2) == run_scenario(cfg, jobs=1)


def test_worker_count_is_bounded_by_tasks_and_cpus():
    assert worker_count(1, 100, 8) == 1
    assert worker_count(4, 100, 8) == 4
    assert worker_count(4, 2, 8) == 2
    assert worker_count(64, 100, 2) == 2
    assert worker_count(10 ** 6, 100, 8) == 8
    assert worker_count(2, 2, 2) == 2
    for jobs in (0, -3):
        with pytest.raises(ConfigError) as excinfo:
            worker_count(jobs, 100, 8)
        assert "jobs" in str(excinfo.value)


def test_summarize_empty_reps_is_safe():
    summary = summarize([])
    assert summary.resources == {}
    assert summary.flows == {name: (None, None) for name in FLOW_LABELS}


# -- config handling ------------------------------------------------------------


def test_config_roundtrip_and_digest():
    cfg = ScenarioConfig()
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.digest() == cfg.digest()
    changed = replace(cfg, bed_capacity=67)
    assert changed.digest() != cfg.digest()


def test_config_defaults_are_valid():
    ScenarioConfig().validate()


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError) as excinfo:
        ScenarioConfig.from_dict({"bed_capactiy": 66})
    assert "bed_capactiy" in str(excinfo.value)


def test_config_validation_reports_field_paths():
    cfg = ScenarioConfig(bsy_fraction=1.3)
    errors = cfg.validation_errors()
    assert any(e.startswith("bsy_fraction") for e in errors)

    services = list(ScenarioConfig().services)
    services[3] = replace(services[3], request_prob=1.3)
    errors = ScenarioConfig(services=tuple(services)).validation_errors()
    assert any(e.startswith("services[3].request_prob") for e in errors)

    services = list(ScenarioConfig().services)
    services[2] = replace(services[2], appt_max=50)
    errors = ScenarioConfig(services=tuple(services)).validation_errors()
    assert any("appt_max" in e and "services[2]" in e for e in errors)

    assert ScenarioConfig(bed_capacity=MAX_CAPACITY_UNITS).validation_errors() == []
    for capacity in (MAX_CAPACITY_UNITS + 1, 10 ** 400):
        assert ScenarioConfig(bed_capacity=capacity).validation_errors() == [
            f"bed_capacity: must be at most {MAX_CAPACITY_UNITS:,}"]
        services = list(ScenarioConfig().services)
        services[4] = replace(services[4], capacity_units=capacity)
        assert ScenarioConfig(services=tuple(services)).validation_errors() == [
            f"services[4].capacity_units: must be at most {MAX_CAPACITY_UNITS:,}"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["annual_arrivals", "bsy_fraction", "age_16_20_fraction",
                                  "renege_exit_prob", "warmup_days", "stats_window_days",
                                  "bed_capacity"])
def test_config_rejects_non_finite_numbers(name, value):
    errors = replace(ScenarioConfig(), **{name: value}).validation_errors()
    assert errors == [f"{name}: must be a finite number, got {value}"]


def test_service_rejects_non_finite_numbers():
    services = list(ScenarioConfig().services)
    services[1] = replace(services[1], capacity_units=math.nan, request_prob=math.inf)
    errors = ScenarioConfig(services=tuple(services)).validation_errors()
    assert errors == ["services[1].capacity_units: must be a finite number, got nan",
                      "services[1].request_prob: must be a finite number, got inf"]


def test_config_rejects_non_integer_capacity():
    with pytest.raises(ConfigError) as excinfo:
        ScenarioConfig.from_dict({"bed_capacity": 66.5})
    assert "bed_capacity" in str(excinfo.value)


def test_expected_arrivals_bounded():
    # Exactly the limit: 1e6 a year over one year.
    at_limit = ScenarioConfig(annual_arrivals=MAX_EXPECTED_ARRIVALS, warmup_days=0.0,
                              stats_window_days=365.25)
    assert at_limit.validation_errors() == []
    above = replace(at_limit, annual_arrivals=MAX_EXPECTED_ARRIVALS + 0.5)
    [error] = above.validation_errors()
    assert "1e+06 expected arrivals per replication" in error
    assert ScenarioConfig(warmup_days=1e12).validation_errors()
    # A horizon that overflows to infinity, with no arrivals to bound it.
    [error] = ScenarioConfig(annual_arrivals=0.0, warmup_days=1e308,
                             stats_window_days=1e308).validation_errors()
    assert error == "warmup_days + stats_window_days: must be a finite number, got inf"


@pytest.mark.parametrize("data", [
    {"annual_arrivals": True},
    {"renege_exit_prob": False},
    {"services": [{"name": "medical", "capacity_units": 10, "request_prob": True,
                   "appt_min": 1, "appt_max": 2}]},
    {"bed_capacity": True},
    {"annual_arrivals": 10 ** 400},
    {"annual_arrivals": "1399"},
    {"bed_capacity": "66"},
    {"services": [{"name": "medical", "appt_max": "2"}]},
])
def test_config_rejects_booleans_as_numbers(data):
    with pytest.raises(ConfigError) as excinfo:
        ScenarioConfig.from_dict(data)
    assert "must be a number" in str(excinfo.value)


@pytest.mark.parametrize("name", [BED_RESOURCE, *FLOW_LABELS.values()])
def test_config_rejects_reserved_service_names(name):
    # Results key every pool and flow by name: a service under one of their
    # names would report its numbers in that row and lose the other's.
    services = list(ScenarioConfig().services)
    services[4] = replace(services[4], name=name)
    assert ScenarioConfig(services=tuple(services)).validation_errors() == [
        f"services[4].name: {name!r} is reserved for the bed pool or a youth flow"]


def test_invalid_window_rejected():
    errors = ScenarioConfig(stats_window_days=0.0).validation_errors()
    assert any(e.startswith("stats_window_days") for e in errors)
    for replications in (0, MAX_GRID_PAIRS + 1):
        errors = ScenarioConfig(replications=replications).validation_errors()
        assert any(e.startswith("replications") for e in errors)
    assert ScenarioConfig(replications=MAX_GRID_PAIRS).validation_errors() == []




@given(config_dicts)
@settings(max_examples=300, deadline=None)
def test_from_dict_accepts_or_rejects_cleanly(data):
    # Any JSON object over the declared keys gives a ConfigError or a config
    # that validates without raising and survives a round trip. Runs no
    # replication, to keep the suite fast.
    try:
        config = ScenarioConfig.from_dict(data)
    except ConfigError:
        return
    assert isinstance(config.validation_errors(), list)
    assert ScenarioConfig.from_dict(config.to_dict()).digest() == config.digest()
