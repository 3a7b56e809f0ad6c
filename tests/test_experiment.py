"""Experiment harness tests: replication determinism, warm-up behavior,
summary math, config handling, and common-random-number coupling."""

import copy
import gc
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sheltersim
from sheltersim import experiment
from sheltersim.config import (
    MAX_CAPACITY_UNITS,
    MAX_EXPECTED_ARRIVALS,
    MAX_GRID_PAIRS,
    RESERVED_NAMES,
    ConfigError,
    ScenarioConfig,
    ServiceSpec,
    set_field,
)
from sheltersim.experiment import (
    build_streams,
    metric_columns,
    replication_population,
    run_replication,
    run_scenario,
    summarize,
    sweep,
    worker_count,
)
from sheltersim.kernel import ResourceWindowStats
from sheltersim.model import BED_RESOURCE, DAYS_PER_YEAR, FLOW_LABELS
from sheltersim.stats import _t_mass, _total, estimate, t_quantile
from support import (
    POOL_COUNTS,
    arrival_log,
    bed_pool_counts,
    config_dicts,
    mini_config,
    printable_names,
    window_counts,
)


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


def _assert_record_follows_from_trace(config: ScenarioConfig, replication: int) -> None:
    trace: list = []
    stats = run_replication(config, replication, trace)
    start, end = config.warmup_days, config.warmup_days + config.stats_window_days
    flows, pools = window_counts(trace, stats.resources, start, end)
    assert flows == {name: getattr(stats, name) for name in FLOW_LABELS}
    assert pools == {name: {key: getattr(window, key) for key in POOL_COUNTS}
                     for name, window in stats.resources.items()}
    # The bed pool's counts also follow from the population alone, by a
    # recursion that shares neither the calendar nor the queue with the run.
    population = replication_population(config, replication,
                                        build_streams(config.master_seed, replication))
    assert bed_pool_counts(population, config.bed_capacity, start, end) == pools[BED_RESOURCE]


@pytest.mark.parametrize("replication", range(3))
def test_baseline_record_follows_from_its_trace(replication):
    # Every count and wait of the record, all but utilization, is
    # recomputed from the trace alone.
    _assert_record_follows_from_trace(ScenarioConfig(), replication)


@pytest.mark.parametrize("bed_capacity", [40, 81, 106])
@pytest.mark.parametrize("replication", range(3))
def test_record_follows_from_its_trace_under_more_or_less_bed_contention(bed_capacity,
                                                                          replication):
    _assert_record_follows_from_trace(replace(ScenarioConfig(), bed_capacity=bed_capacity),
                                      replication)


@given(config_dicts)
@settings(max_examples=100, deadline=None)
def test_record_follows_from_its_trace(data):
    try:
        config = ScenarioConfig.from_dict(data)
    except ConfigError:
        assume(False)
    # At most 2,000 expected arrivals, so a run stays short. Capping the rate,
    # not filtering, keeps Hypothesis's share of discarded draws low.
    horizon = config.warmup_days + config.stats_window_days
    config = replace(config, annual_arrivals=min(config.annual_arrivals,
                                                 2000 * DAYS_PER_YEAR / horizon))
    _assert_record_follows_from_trace(config, 0)


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


def test_replication_whose_last_renege_entry_fired_leaves_no_reference_cycles():
    # At a low arrival rate the queues often empty before the window ends,
    # so the simulator's latest renege entry has fired and holds its pool.
    gc.collect()
    gc.disable()
    try:
        for replication in range(4):
            run_replication(mini_config(annual_arrivals=20.0), replication)
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
    columns = metric_columns(summary.replications)
    assert summary.estimates.keys() == columns.keys()
    for key, (mean, half_width) in summary.estimates.items():
        assert half_width is None, key
        assert mean == columns[key][0], key
    assert summary.estimates["arrivals"] == (float(summary.replications[0].arrivals), None)


def test_summary_means_lie_within_replication_extremes():
    cfg = mini_config(replications=5)
    summary = run_scenario(cfg)
    columns = metric_columns(summary.replications)
    for key, (mean, _) in summary.estimates.items():
        values = [v for v in columns[key] if v is not None]
        assert (mean is None) == (not values), key
        if values:
            assert min(values) <= mean <= max(values), key


# The fields of a pool's record that are metric columns.
WINDOW_METRICS = [*(f.name for f in fields(ResourceWindowStats)), "renege_pct"]

# Service names a config accepts, among them names with dots and the field
# names of flows.
accepted_names = st.lists(
    st.sampled_from(list(FLOW_LABELS)) | st.text(".a", min_size=1, max_size=4)
    | printable_names, min_size=1, max_size=6, unique=True,
).filter(lambda names: not set(names) & set(RESERVED_NAMES))


@given(accepted_names)
@settings(max_examples=50, deadline=None)
def test_every_metric_key_names_one_column(names):
    config = mini_config(annual_arrivals=40.0, warmup_days=10.0, stats_window_days=60.0,
                         services=tuple(ServiceSpec(name, 3, 0.5, 1, 2) for name in names))
    config.validate()
    reps = [run_replication(config, rep) for rep in range(2)]
    columns = metric_columns(reps)
    pools = [BED_RESOURCE, *names]
    assert len(columns) == len(pools) * len(WINDOW_METRICS) + len(FLOW_LABELS)
    for key, column in columns.items():
        if "." in key:
            pool, _, metric = key.rpartition(".")
            assert pool in pools and metric in WINDOW_METRICS, key
            assert column == [getattr(r.resources[pool], metric) for r in reps], key
        else:
            assert key in FLOW_LABELS
            assert column == [getattr(r, key) for r in reps], key


def test_summary_is_its_metric_columns_aggregated():
    summary = run_scenario(mini_config(replications=5))
    columns = metric_columns(summary.replications)
    assert summary.estimates == {key: estimate(column) for key, column in columns.items()}


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
    # Below df = 1 the tail mass overflows or divides by zero far out.
    for p, df in ((0.4, 5), (1.0, 5), (0.9, 0), (0.975, 0.5)):
        with pytest.raises(ValueError):
            t_quantile(p, df)


@given(st.floats(min_value=0.5, max_value=1 - 1e-12, exclude_min=True, exclude_max=True),
       st.integers(min_value=1, max_value=100_000) | st.floats(min_value=1.0, max_value=1e7))
@settings(max_examples=200, deadline=None)
def test_t_quantile_is_the_first_float_past_its_tail_mass_crossing(p, df):
    def beyond(t):
        mass, upper = _t_mass(t, df)
        return mass <= 1 - p if upper else mass >= p - 0.5

    t = t_quantile(p, df)
    assert beyond(t)
    assert not beyond(math.nextafter(t, 0.0))


def test_warmup_loads_the_system():
    cold = mini_config(warmup_days=0.0, replications=3)
    warm = mini_config(warmup_days=365.25, replications=3)
    cold_util, _ = run_scenario(cold).estimates["crisis_beds.utilization"]
    warm_util, _ = run_scenario(warm).estimates["crisis_beds.utilization"]
    # An empty start under-measures utilization relative to a loaded start.
    assert warm_util > cold_util


def test_long_warmup_agrees_with_one_year():
    one = run_scenario(mini_config(warmup_days=365.25, replications=6))
    two = run_scenario(mini_config(warmup_days=730.5, replications=6))
    for key in ("crisis_beds.utilization", "crisis_beds.renege_pct"):
        (a, a_ci), (b, b_ci) = one.estimates[key], two.estimates[key]
        assert abs(a - b) <= a_ci + b_ci, key


def test_crn_arrival_logs_identical_across_capacities():
    low = mini_config(replications=2)
    high = replace(low, bed_capacity=12)
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
        per_capacity.append(metric_columns(summary.replications)["crisis_beds.reneges"])
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
    # ``service:<name>`` is another spelling of the service's capacity key.
    cfg = mini_config()
    swept = []
    for key in ("service:psychiatric", "services.psychiatric.capacity_units"):
        data = cfg.to_dict()
        set_field(data, key, 44)
        swept.append(ScenarioConfig.from_dict(data))
    assert swept[0] == swept[1]
    by_name = {s.name: s for s in swept[0].services}
    assert by_name["psychiatric"].capacity_units == 44
    assert by_name["medical"] == {s.name: s for s in cfg.services}["medical"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_grid_matches_per_value_scenarios(jobs):
    # A capacity, whose values share each replication's population, and a
    # float field that is no capacity, whose values each draw their own.
    cfg = mini_config(replications=3)
    for parameter, values in (("bed_capacity", [6, 8, 10]),
                              ("age_16_20_fraction", [0.5, 0.85])):
        swept = sweep(cfg, parameter, values, jobs=jobs)
        assert [value for value, _ in swept] == values
        for value, summary in swept:
            direct = run_scenario(replace(cfg, **{parameter: value}))
            assert summary.replications == direct.replications
            assert summary == direct


@pytest.mark.parametrize("parameter, service, values", [
    ("services.psychiatric.capacity_units", "psychiatric", [4, 7, 30]),
    ("service:case_management", "case_management", [4, 50, 200]),
])
@pytest.mark.parametrize("jobs", [1, 2])
def test_bed_pool_does_not_depend_on_service_pools(parameter, service, values, jobs):
    # A bed holder leaves at exactly arrival + stay: a bed stay is at least
    # 30 days, and bed plus service patience at most 21. So a sweep of a
    # service capacity leaves every replication's bed record as it was.
    swept = [summary.replications for _, summary in sweep(mini_config(), parameter, values,
                                                          jobs=jobs)]
    beds = [[r.resources[BED_RESOURCE] for r in reps] for reps in swept]
    assert beds[1:] == beds[:1] * (len(values) - 1)
    # The swept pool itself does change.
    assert swept[0][0].resources[service] != swept[-1][0].resources[service]


def test_population_is_shared_only_across_capacities():
    cfg = mini_config()

    def population(config, rep=0):
        return replication_population(config, rep, build_streams(config.master_seed, rep))

    first = population(cfg)
    services = list(cfg.services)
    assert population(replace(cfg, bed_capacity=12)) is first
    services[3] = replace(services[3], capacity_units=9)
    assert population(replace(cfg, services=tuple(services))) is first
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


def test_a_finished_serial_run_keeps_no_population():
    # At the largest accepted arrival rate a population holds about 76 MB.
    run_scenario(mini_config(replications=2))
    assert experiment._population_cache is None


def test_parallel_jobs_match_serial():
    cfg = mini_config(replications=4)
    assert run_scenario(cfg, jobs=2) == run_scenario(cfg, jobs=1)


@pytest.mark.parametrize("reps, chunksize", [(2, 3), (1, 2)])
def test_grid_chunks_hold_whole_replications(monkeypatch, reps, chunksize):
    # A worker keeps the population it drew last, so chunks of whole
    # replications draw each replication once per grid; with fewer
    # replications than workers a replication is split, so that both workers
    # get a chunk. The fake pool runs each chunk as if in a fresh process.
    chunksizes, drawn = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables, chunksize=1):
            chunksizes.append(chunksize)
            pairs = list(zip(*iterables))
            for start in range(0, len(pairs), chunksize):
                experiment._population_cache = None
                yield from (fn(*pair) for pair in pairs[start:start + chunksize])

    draw_population = experiment.draw_population

    def counted_draw(*args):
        drawn.append(args)
        return draw_population(*args)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment, "available_cpus", lambda: 2)
    monkeypatch.setattr(experiment, "draw_population", counted_draw)
    monkeypatch.setattr(experiment, "_population_cache", None)
    configs = [mini_config(bed_capacity=capacity, replications=reps)
               for capacity in (6, 8, 10)]
    grid = experiment._run_grid(configs, jobs=2)
    assert chunksizes == [chunksize]
    assert len(drawn) == 2
    assert grid == [[run_replication(cfg, rep) for rep in range(reps)] for cfg in configs]


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
    assert summary.estimates == {name: (None, None) for name in FLOW_LABELS}


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


@pytest.mark.parametrize("data, errors", [
    ({1: 2, "a": 3}, ["1: unknown field", "a: unknown field"]),
    ({"services": [{"name": "x", 1: 2, "a": 3}]},
     ["services[0].1: unknown field", "services[0].a: unknown field"]),
])
def test_keys_of_mixed_types_are_unknown_fields(data, errors):
    # Only a config built in Python has keys that are not strings.
    with pytest.raises(ConfigError) as excinfo:
        ScenarioConfig.from_dict(data)
    assert excinfo.value.errors == errors


def test_config_validation_reports_field_paths():
    cfg = ScenarioConfig(bsy_fraction=1.3)
    errors = cfg.validation_errors()
    assert any(e.startswith("bsy_fraction") for e in errors)

    services = list(ScenarioConfig().services)
    services[3] = replace(services[3], request_prob=1.3)
    errors = ScenarioConfig(services=tuple(services)).validation_errors()
    assert any(e.startswith("services.psychiatric.request_prob") for e in errors)

    services = list(ScenarioConfig().services)
    services[2] = replace(services[2], appt_max=50)
    errors = ScenarioConfig(services=tuple(services)).validation_errors()
    assert any("appt_max" in e and "services.insurance_enrollment" in e for e in errors)

    assert ScenarioConfig(bed_capacity=MAX_CAPACITY_UNITS).validation_errors() == []
    above = MAX_CAPACITY_UNITS + 1
    for capacity, bed_error, units_error in [
            (above, f"must be within [0, {MAX_CAPACITY_UNITS:,}], got {above}",
             f"must be within [1, {MAX_CAPACITY_UNITS:,}], got {above}"),
            (10 ** 400, "must be a number within float range",
             "must be a number within float range")]:
        assert ScenarioConfig(bed_capacity=capacity).validation_errors() == [
            f"bed_capacity: {bed_error}"]
        services = list(ScenarioConfig().services)
        services[4] = replace(services[4], capacity_units=capacity)
        assert ScenarioConfig(services=tuple(services)).validation_errors() == [
            f"services.medical.capacity_units: {units_error}"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["annual_arrivals", "bsy_fraction", "age_16_20_fraction",
                                  "renege_exit_prob", "warmup_days", "stats_window_days",
                                  "bed_capacity"])
def test_config_rejects_non_finite_numbers(name, value):
    errors = replace(ScenarioConfig(), **{name: value}).validation_errors()
    if name == "bed_capacity":  # an int field, which no float can fill
        assert errors == [f"{name}: must be an integer, got {value!r}"]
    else:
        assert errors == [f"{name}: must be a finite number, got {value}"]


def test_service_rejects_non_finite_numbers():
    services = list(ScenarioConfig().services)
    services[1] = replace(services[1], capacity_units=math.nan, request_prob=math.inf)
    errors = ScenarioConfig(services=tuple(services)).validation_errors()
    assert errors == ["services.drug_counseling.capacity_units: must be an integer, got nan",
                      "services.drug_counseling.request_prob: must be a finite number, got inf"]


@pytest.mark.parametrize("value", [2.0, 2.5, True, "2"])
@pytest.mark.parametrize("name", ["bed_capacity", "replications", "master_seed",
                                  "capacity_units", "appt_min", "appt_max"])
def test_int_fields_built_in_python_must_hold_ints(name, value):
    # A config built in Python skips the JSON coercion: a float in an int
    # field would run truncated, under a digest of its own, or fail mid-run.
    config = ScenarioConfig()
    if name in ("capacity_units", "appt_min", "appt_max"):
        services = list(config.services)
        services[0] = replace(services[0], **{name: value})
        config = replace(config, services=tuple(services))
        path = f"services.case_management.{name}"
    else:
        config, path = replace(config, **{name: value}), name
    if isinstance(value, float):
        assert config.validation_errors() == [f"{path}: must be an integer, got {value!r}"]
    else:
        assert config.validation_errors() == [f"{path}: must be a number"]


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
        f"services.{name}.name: {name!r} is reserved for the bed pool or a youth flow"]


@pytest.mark.parametrize("char", ["\r", "\n", "\t", "\x00", "\u2028"], ids=[
    "carriage_return", "line_feed", "tab", "nul", "line_separator"])
def test_config_rejects_an_unprintable_service_name(char):
    # The CSV quotes a name only if it holds a comma, a quote or a line
    # feed, so a carriage return would end the name's row early; a line
    # break splits the name's line of the stdout table.
    services = list(ScenarioConfig().services)
    services[4] = replace(services[4], name=f"med{char}ical")
    assert ScenarioConfig(services=tuple(services)).validation_errors() == [
        f"services.med{char}ical.name: must be printable "
        "(no line breaks, tabs or other control characters)"]


def test_invalid_window_rejected():
    errors = ScenarioConfig(stats_window_days=0.0).validation_errors()
    assert any(e.startswith("stats_window_days") for e in errors)
    for replications in (0, MAX_GRID_PAIRS + 1):
        errors = ScenarioConfig(replications=replications).validation_errors()
        assert any(e.startswith("replications") for e in errors)
    assert ScenarioConfig(replications=MAX_GRID_PAIRS).validation_errors() == []


def _config_with(path: str, value) -> ScenarioConfig:
    """The default config with the field at ``path`` (a top-level field, or
    ``services[0].<field>``) set to ``value``, unchecked."""
    if path.startswith("services[0]."):
        services = list(ScenarioConfig().services)
        services[0] = replace(services[0], **{path.removeprefix("services[0]."): value})
        return ScenarioConfig(services=tuple(services))
    return ScenarioConfig(**{path: value})


# Every field with each value of the wrong kind or out of range, set in
# Python, where no JSON conversion runs first; a bool and a str field each
# take one of them as valid.
PYTHON_VALUES = {"None": None, "x": "x", "True": True, "10**400": 10 ** 400, "[]": []}
PYTHON_CASES = [
    pytest.param(path, value, id=f"{path}={label}")
    for path in ([f.name for f in fields(ScenarioConfig)]
                 + [f"services[0].{f.name}" for f in fields(ServiceSpec)])
    for label, value in PYTHON_VALUES.items()
    if (path, label) not in {("redraw_los_on_bed_renege", "True"), ("services[0].name", "x")}
] + [pytest.param("services[0].name", 5, id="services[0].name=5")]


@pytest.mark.parametrize("path, value", PYTHON_CASES)
def test_config_built_in_python_is_checked_like_json(path, value):
    config = _config_with(path, value)
    errors = config.validation_errors()
    assert errors
    # The first service goes by its key, unless its name is what is wrong.
    if not path.endswith(".name"):
        path = path.replace("services[0].", "services.case_management.")
    assert all(error.startswith(path) for error in errors), errors
    with pytest.raises(ConfigError):
        run_scenario(config)


def test_whole_number_in_float_field_has_the_digest_of_its_float():
    assert (ScenarioConfig(warmup_days=365).digest()
            == ScenarioConfig(warmup_days=365.0).digest())
    assert ScenarioConfig(warmup_days=365).to_dict()["warmup_days"] == 365.0


def _python_built(data: dict) -> ScenarioConfig:
    """A config built in Python straight from the raw values of a config
    dict: each service object whose keys are fields becomes a
    ``ServiceSpec``, and nothing is converted."""
    services = data.get("services")
    if isinstance(services, list):
        keys = {f.name for f in fields(ServiceSpec)}
        data = {**data, "services": tuple(
            ServiceSpec(**entry) if isinstance(entry, dict) and entry.keys() <= keys
            else entry for entry in services)}
    return ScenarioConfig(**data)


@given(config_dicts)
@settings(max_examples=300, deadline=None)
def test_config_built_in_python_validates_without_raising(data):
    config = _python_built(data)
    if not config.validation_errors():
        assert ScenarioConfig.from_dict(config.to_dict()).digest() == config.digest()


def _readme_table(header: str) -> list[list[str]]:
    """The body rows of the README table under ``header``, split in cells."""
    lines = Path("README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2
    end = next(i for i in range(start, len(lines) + 1)
               if i == len(lines) or not lines[i].startswith("|"))
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines[start:end]]


@pytest.mark.parametrize("cls, header", [
    (ScenarioConfig, "| field | default | range | meaning |"),
    (ServiceSpec, "| service field | default | range | meaning |"),
])
def test_readme_lists_every_field_with_its_declared_range(cls, header):
    rows = _readme_table(header)
    assert [name for name, *_ in rows] == [f"`{f.name}`" for f in fields(cls)]
    declared = ["[{:,}, {:,}]".format(*f.metadata["range"]) if "range" in f.metadata
                else "" for f in fields(cls)]
    assert [span for _, _, span, _ in rows] == declared


def test_readme_library_example_runs(monkeypatch, capsys):
    # The README's Python block under "Library use", with every config it
    # builds capped at two replications so that it runs in about a second.
    text = Path("README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    block = block[:block.index("```")]

    def capped(*args, **kwargs):
        config = ScenarioConfig(*args, **kwargs)
        return replace(config, replications=min(config.replications, 2))

    monkeypatch.setattr(sheltersim, "ScenarioConfig", capped)
    exec(block, {})
    assert capsys.readouterr().out




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


def _assert_service_paths_are_set_keys(data: dict) -> None:
    try:
        ScenarioConfig.from_dict(data)
        return
    except ConfigError as exc:
        errors = exc.errors
    for error in errors:
        if error.startswith("services."):
            key = error.rsplit(": ", 1)[0]  # no message holds ": "
            assert "=" not in key  # --set splits at the first "="
            probe, marker = copy.deepcopy(data), object()
            set_field(probe, key, marker)
            [entry] = [data["services"][i] for i, probed in enumerate(probe["services"])
                       if isinstance(probed, dict) and marker in probed.values()]
            with pytest.raises(ConfigError) as alone:
                ScenarioConfig.from_dict({"services": [entry]})
            assert error in alone.value.errors
        elif error.startswith("services["):
            # By its index, a service that a key could name is a later one
            # of its name.
            i = int(error.removeprefix("services[").partition("]")[0])
            entry = data["services"][i]
            if isinstance(entry, dict) and all(
                    isinstance(key, str) and key and not {".", "="} & set(key)
                    for key in [entry.get("name"), *entry]):
                assert any(isinstance(earlier, dict) and earlier.get("name") == entry["name"]
                           for earlier in data["services"][:i])


@given(config_dicts)
@settings(max_examples=300, deadline=None)
def test_service_error_paths_are_set_keys(data):
    # An error names a service by a key where ``set_field`` reaches it: the
    # key sets a field of the entry the error is about, and that entry alone,
    # in an otherwise default config, gives the same error. The services are
    # also checked alone, where no other field's error hides theirs.
    _assert_service_paths_are_set_keys(data)
    if "services" in data:
        _assert_service_paths_are_set_keys({"services": data["services"]})
