"""Replication runner with warm-up truncation, cross-replication summaries,
and one-parameter sweeps under common random numbers.

A scenario is one shelter configuration. Each replication builds a fresh
kernel, seeds its streams from (master seed, replication index, stream name),
runs warm-up plus one statistics window, and reports window statistics.
Its arrivals and youth attributes are drawn up front into a population
(``model.Population``) that depends on neither capacity nor contention.

Sweeps rerun the same scenario with one config field changed and the master
seed fixed; when the field is a capacity, arrival epochs and youth attributes
are identical across swept values and only contention differs. A sweep
validates every swept config first, then runs all (value, replication) pairs
as one grid, replication by replication, on a single worker pool that keeps
each replication in one process where it can, so the values of one
replication in a capacity sweep share a single draw.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, fields, replace

from .config import MAX_GRID_PAIRS, ConfigError, ScenarioConfig, set_field
from .kernel import ResourceWindowStats, Simulator
from .model import FLOW_LABELS, FlowCounters, Population, ShelterModel, draw_population
from .stats import estimate
from .streams import RngStream

# Streams a replication may consume, in no particular order.
STREAM_NAMES = ("arrivals", "attributes", "needs", "redraw")


def __getattr__(name: str):
    # ``ProcessPoolExecutor`` is imported on first use: ``concurrent.futures``
    # pulls in ``multiprocessing`` (about 18 ms of import), and a serial run
    # never starts a pool. The import binds it here, where code outside may
    # also replace it.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


@dataclass(kw_only=True)
class ReplicationStats(FlowCounters):
    """Everything measured in one replication's statistics window: the
    youth flows and each resource's statistics."""

    replication: int
    resources: dict[str, ResourceWindowStats]


@dataclass(frozen=True)
class ScenarioSummary:
    """Scenario results: the mean and 95% half-width (``stats.estimate``) of
    every ``metric_columns`` key, and the per-replication records they were
    built from. ``estimates["<pool>.max_wait"]`` is thus the mean of the
    replications' maxima; the CSV's ``max_wait_days`` is the largest of
    them."""

    estimates: dict[str, tuple[float | None, float | None]]
    replications: list[ReplicationStats]


def build_streams(master_seed: int, replication: int) -> dict[str, RngStream]:
    return {name: RngStream(master_seed, replication, name) for name in STREAM_NAMES}


# The last population drawn in this process, under the key it was drawn for.
_population_cache: tuple[tuple, Population] | None = None


def replication_population(config: ScenarioConfig, replication: int,
                           streams: dict[str, RngStream]) -> Population:
    """The replication's arrivals and youth attributes up to the horizon.

    Draws from ``streams`` unless this process drew the same key last: the
    config with every capacity blanked, and the replication index. The values
    of a capacity sweep differ only in capacities, so consecutive runs of one
    replication share a single draw.
    """
    global _population_cache
    key = replace(config, bed_capacity=0, services=tuple(
        replace(s, capacity_units=0) for s in config.services)), replication
    if _population_cache is None or _population_cache[0] != key:
        _population_cache = key, draw_population(
            list(config.services), config.annual_arrivals, config.bsy_fraction,
            config.age_16_20_fraction, config.renege_exit_prob, streams,
            config.warmup_days + config.stats_window_days)
    return _population_cache[1]


def run_replication(config: ScenarioConfig, replication: int,
                    trace: list | None = None) -> ReplicationStats:
    """Run one seeded replication: build, warm up, reset the statistics,
    run the window, collect. Every event is appended to ``trace`` when one
    is given (see ``ShelterModel``).
    """
    streams = build_streams(config.master_seed, replication)
    sim = Simulator()
    model = ShelterModel(
        sim, config.bed_capacity, list(config.services),
        population=replication_population(config, replication, streams),
        redraw=streams["redraw"] if config.redraw_los_on_bed_renege else None,
        trace=trace,
    )
    sim.run_until(config.warmup_days)
    model.reset_statistics()
    sim.run_until(config.warmup_days + config.stats_window_days)
    stats = ReplicationStats(replication=replication, **vars(model.counters),
                             resources={p.name: p.window_stats() for p in model.pools})
    # The calendar and the arrival feed hold the model's methods, the
    # latest renege entry (pending or fired) holds its pool's method and the
    # requests that joined it, and each pool's ledger holds the youths that
    # hold the pool: emptying them lets reference counting free the run at
    # once.
    sim._heap.clear()
    sim._renege_entry = None
    sim.feed((), None)
    for pool in model.pools:
        pool.queue.clear()
        pool._held.clear()
    return stats


def metric_columns(reps: list[ReplicationStats]) -> dict[str, list]:
    """Each metric's values in replication order, ``None`` where undefined:
    per pool in record order, ``<pool>.<field>`` for each ``ResourceWindowStats``
    field and ``renege_pct``; then each flow, keyed by its ``FlowCounters`` field.
    A field holds no dot, so a key's pool is all before its last dot; no flow key has one."""
    names = [*(f.name for f in fields(ResourceWindowStats)), "renege_pct"]
    columns = {f"{pool}.{name}": [getattr(r.resources[pool], name) for r in reps]
               for pool in (reps[0].resources if reps else ()) for name in names}
    return columns | {name: [getattr(r, name) for r in reps] for name in FLOW_LABELS}


def summarize(reps: list[ReplicationStats]) -> ScenarioSummary:
    """Aggregate replication records into a scenario summary, column by column."""
    return ScenarioSummary(estimates={key: estimate(column) for key, column
                                      in metric_columns(reps).items()}, replications=reps)


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(jobs: int, tasks: int, cpus: int) -> int:
    """Worker processes to start: the requested ``jobs``, but never more
    than there are tasks or CPUs. ``jobs < 1`` is a configuration error."""
    if jobs < 1:
        raise ConfigError([f"jobs: must be >= 1, got {jobs}"])
    return min(jobs, tasks, cpus)


def _run_grid(configs: list[ScenarioConfig], jobs: int) -> list[list[ReplicationStats]]:
    """Run every (config, replication) pair and return each config's records
    in replication order.

    The configs share their replication count. Pairs run replication-major,
    so in one process the configs of a replication follow each other and
    share its population. With ``jobs > 1`` all pairs go to one pool of
    ``worker_count(jobs, pairs, available_cpus())`` workers in chunks of
    whole replications, about four per worker, so each replication's
    population is drawn once per grid. With fewer replications than workers,
    chunks split replications instead, so that no worker idles.
    """
    width = len(configs)
    reps = configs[0].replications
    grid_configs = configs * reps
    grid_reps = [rep for rep in range(reps) for _ in configs]
    pairs = len(grid_reps)
    workers = worker_count(jobs, pairs, available_cpus())
    if workers > 1:
        chunk = min(width * max(1, reps // (4 * workers)), -(-pairs // workers))
        executor = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        from concurrent.futures.process import BrokenProcessPool
        try:
            with executor(max_workers=workers) as pool:
                stats = list(pool.map(run_replication, grid_configs, grid_reps, chunksize=chunk))
        except BrokenProcessPool as exc:  # a worker was killed, e.g. out of memory
            raise ChildProcessError(f"a worker process exited abruptly: {exc}") from exc
    else:
        global _population_cache
        try:
            stats = list(map(run_replication, grid_configs, grid_reps))
        finally:  # a later grid seldom redraws the last key: let its population go
            _population_cache = None
    return [stats[i::width] for i in range(width)]


def run_scenario(config: ScenarioConfig, jobs: int = 1) -> ScenarioSummary:
    """Run every replication of a scenario and aggregate the results.

    Replications are independent; with ``jobs > 1`` they run in up to
    ``worker_count(jobs, replications, available_cpus())`` worker processes
    and are merged in index order, so results do not depend on scheduling.
    """
    config.validate()
    return summarize(_run_grid([config], jobs)[0])


def sweep(config: ScenarioConfig, parameter: str, values: list[float],
          jobs: int = 1) -> list[tuple[float, ScenarioSummary]]:
    """Run one scenario per value of the field ``parameter`` (a key as
    ``set_field`` takes it), all else fixed, same master seed.

    Sharing the seed couples the scenarios through common random numbers:
    a capacity sweep gives every value identical arrivals and youth
    attributes, so only contention differs. The pair count is checked
    against ``MAX_GRID_PAIRS``, repeats rejected and every swept config
    built (``set_field``, then ``ScenarioConfig.from_dict``) and validated
    before anything runs; then all (value, replication) pairs run as one
    grid (see ``_run_grid``), and a capacity sweep draws each replication's
    population once, not once per value.
    """
    if not values:
        raise ConfigError(["values: must be non-empty"])
    if parameter == "replications":
        raise ConfigError(["replications: cannot be swept; every value runs the "
                           "config's replication count"])
    pairs = len(values) * config.replications
    if pairs > MAX_GRID_PAIRS:
        raise ConfigError([f"values x replications: {pairs:,} (value, replication) "
                           f"pairs, above the limit of {MAX_GRID_PAIRS:,}"])
    if repeated := [value for value, count in Counter(values).items() if count > 1]:
        raise ConfigError([f"values: {value} is repeated" for value in repeated])
    swept, errors = [], []
    for value in values:
        data = config.to_dict()
        set_field(data, parameter, value)  # a bad key fails alike for every value
        try:
            swept.append(ScenarioConfig.from_dict(data))
        except ConfigError as exc:
            errors.extend(f"{parameter}={value}: {error}" for error in exc.errors)
    if errors:
        raise ConfigError(errors)
    grid = _run_grid(swept, jobs)
    return [(value, summarize(reps)) for value, reps in zip(values, grid)]
