"""Replication runner with warm-up truncation, cross-replication summaries,
and one-parameter capacity sweeps under common random numbers.

A scenario is one shelter configuration. Each replication builds a fresh
kernel, seeds its streams from (master seed, replication index, stream name),
runs warm-up plus one statistics window, and reports window statistics.
Its arrivals and youth attributes are drawn up front into a population
(``model.Population``) that depends on neither capacity nor contention.

Sweeps rerun the same scenario with one capacity changed and the master seed
fixed, so arrival epochs and youth attributes are identical across swept
values and only contention differs. A sweep validates every swept config
first, then runs all (value, replication) pairs as one grid, replication
by replication, on a single worker pool. Each process keeps the last
population it drew, so the values of one replication share a single draw.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from typing import get_args, get_type_hints

from .kernel import Simulator
from .model import (
    BED_RESOURCE,
    DAYS_PER_YEAR,
    MAX_CAPACITY_UNITS,
    FlowCounters,
    Population,
    ServiceSpec,
    ShelterModel,
    default_services,
    draw_population,
    nonfinite_errors,
)
from .stats import _total, estimate
from .streams import RngStream

# Streams a replication may consume, in no particular order.
STREAM_NAMES = ("arrivals", "attributes", "needs", "redraw")

# Bound on one replication's work (and its population's memory): baseline
# replications expect about 2.8k arrivals.
MAX_EXPECTED_ARRIVALS = 1e6

# Bound on the (value, replication) pairs one command runs, and so on its
# lists of pairs and of kept records (about 2.5 KB per replication).
MAX_GRID_PAIRS = 10 ** 5

# Each flow and the label of its mean in the CSV, in CSV order.
FLOW_LABELS = {f.name: f.metadata["label"] for f in fields(FlowCounters)}

# Names no service may take: the results key every pool and flow by name.
RESERVED_NAMES = (BED_RESOURCE, *FLOW_LABELS.values())


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


class ConfigError(ValueError):
    """Invalid scenario configuration; ``errors`` lists field-path messages."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one shelter configuration.

    ``age_16_20_fraction`` is a calibrated modeling input, not an observed
    quantity: it is chosen so the baseline bed-abandonment rate lands near
    one quarter of bed seekers (see README for the calibration procedure).
    """

    bed_capacity: int = 66
    services: tuple[ServiceSpec, ...] = field(
        default_factory=lambda: tuple(default_services()))
    annual_arrivals: float = 1399.0
    bsy_fraction: float = 1.0 / 3.0
    age_16_20_fraction: float = 0.92
    renege_exit_prob: float = 0.25
    redraw_los_on_bed_renege: bool = False
    warmup_days: float = 365.25
    stats_window_days: float = 365.25
    replications: int = 100
    master_seed: int = 20240501

    def validation_errors(self) -> list[str]:
        errors = nonfinite_errors(self)
        if errors:
            return errors
        if self.bed_capacity < 0 or int(self.bed_capacity) != self.bed_capacity:
            errors.append("bed_capacity: must be a non-negative integer")
        elif self.bed_capacity > MAX_CAPACITY_UNITS:
            errors.append(f"bed_capacity: must be at most {MAX_CAPACITY_UNITS:,}")
        if self.bsy_fraction > 0 and self.bed_capacity < 1:
            errors.append("bed_capacity: must be >= 1 when bsy_fraction > 0 "
                          "(bed requests could never be satisfied)")
        if not self.services:
            errors.append("services: must list at least one service")
        names = [s.name for s in self.services]
        if len(set(names)) != len(names):
            errors.append("services: names must be unique")
        for i, spec in enumerate(self.services):
            errors.extend(spec.validation_errors(path=f"services[{i}]."))
            if spec.name in RESERVED_NAMES:
                errors.append(f"services[{i}].name: {spec.name!r} is reserved "
                              f"for the bed pool or a youth flow")
        if self.annual_arrivals < 0:
            errors.append("annual_arrivals: must be >= 0")
        for name in ("bsy_fraction", "age_16_20_fraction", "renege_exit_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                errors.append(f"{name}: must be within [0, 1], got {value}")
        if self.warmup_days < 0:
            errors.append("warmup_days: must be >= 0")
        if not self.stats_window_days > 0:
            errors.append("stats_window_days: must be > 0")
        horizon = self.warmup_days + self.stats_window_days
        expected = self.annual_arrivals * horizon / DAYS_PER_YEAR
        if not math.isfinite(horizon):
            errors.append(f"warmup_days + stats_window_days: must be a finite number, "
                          f"got {horizon}")
        elif expected > MAX_EXPECTED_ARRIVALS:
            errors.append(
                f"annual_arrivals x (warmup_days + stats_window_days) / {DAYS_PER_YEAR}: "
                f"{expected:.6g} expected arrivals per replication, above the limit "
                f"of {MAX_EXPECTED_ARRIVALS:,.0f}")
        if not 1 <= self.replications <= MAX_GRID_PAIRS:
            errors.append(f"replications: must be within [1, {MAX_GRID_PAIRS:,}]")
        if not 0 <= self.master_seed < 2 ** 64:
            errors.append("master_seed: must fit in an unsigned 64-bit integer")
        return errors

    def validate(self) -> None:
        errors = self.validation_errors()
        if errors:
            raise ConfigError(errors)

    def to_dict(self) -> dict:
        """The config as JSON data: its fields in declared order, services
        as a list of objects."""
        return asdict(self, dict_factory=lambda items: {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in items})

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Inverse of ``to_dict``; missing keys take their defaults. Every
        error found is raised at once as one ``ConfigError``."""
        errors: list[str] = []
        config = _from_object(cls, data, "", errors)
        if errors:
            raise ConfigError(errors)
        return config

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _from_object(cls, data, path: str, errors: list[str]):
    """Build the dataclass ``cls`` from a JSON object whose keys name its
    fields, coercing each value by the field's declared type. Messages go to
    ``errors``, prefixed with ``path``; the result is then meaningless."""
    if not isinstance(data, dict):
        errors.append(f"{path.rstrip('.') or 'config'}: must be an object")
        return None
    types = get_type_hints(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        errors.extend(f"{path}{key}: unknown field" for key in unknown)
        return None
    return cls(**{key: _coerce(types[key], value, f"{path}{key}", errors)
                  for key, value in data.items()})


def _coerce(kind, value, path: str, errors: list[str]):
    """``value`` as the declared type ``kind``: a number field takes a JSON
    number (not a boolean, though Python counts it as an int), and a tuple
    of dataclasses a JSON array of objects."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number:
        try:
            return float(value)
        except OverflowError:
            errors.append(f"{path}: must be a number within float range")
    elif kind is int and number:
        if isinstance(value, int) or value.is_integer():
            return int(value)
        errors.append(f"{path}: must be an integer, got {value!r}")
    elif kind is float or kind is int:
        errors.append(f"{path}: must be a number")
    elif kind is bool or kind is str:
        if isinstance(value, kind):
            return value
        errors.append(f"{path}: must be a {'boolean' if kind is bool else 'string'}")
    elif isinstance(value, list):
        return tuple(_from_object(get_args(kind)[0], entry, f"{path}[{i}].", errors)
                     for i, entry in enumerate(value))
    else:
        errors.append(f"{path}: must be an array")
    return None


@dataclass(frozen=True)
class ResourceWindowStats:
    """One resource's statistics over one replication's window."""

    requests: int
    served: int
    reneges: int
    still_queued: int
    avg_wait: float | None
    max_wait: float | None
    utilization: float | None

    @property
    def renege_pct(self) -> float | None:
        if self.requests == 0:
            return None
        return 100.0 * self.reneges / self.requests


@dataclass(kw_only=True)
class ReplicationStats(FlowCounters):
    """Everything measured in one replication's statistics window: the
    youth flows and each resource's statistics."""

    replication: int
    resources: dict[str, ResourceWindowStats]


def _column(label: str, decimals: int, scale: float = 1.0):
    return field(metadata={"label": label, "decimals": decimals, "scale": scale})


@dataclass(frozen=True)
class ResourceSummary:
    """Cross-replication aggregate for one resource; the one declaration of
    its metrics. A field the CSV shows carries its column label, decimals and
    scale, in CSV order. ``<metric>_ci`` is the half-width of ``<metric>``."""

    avg_wait: float | None = _column("avg_wait_days", 2)
    max_wait: float | None = _column("max_wait_days", 2)
    utilization: float | None = _column("utilization_pct", 1, scale=100.0)
    renege_pct: float | None = _column("pct_reneged", 1)
    avg_wait_ci: float | None = _column("ci_halfwidth_wait_days", 2)
    utilization_ci: float | None
    renege_pct_ci: float | None


# The resource metrics with a half-width: each the ``stats.estimate`` of the
# ``ResourceWindowStats`` attribute of the same name over the replications.
ESTIMATED_METRICS = tuple(f.name.removesuffix("_ci") for f in fields(ResourceSummary)
                          if f.name.endswith("_ci"))


@dataclass(frozen=True)
class ScenarioSummary:
    """Scenario results: per-resource aggregates, youth-flow means, and the
    per-replication records they were built from."""

    resources: dict[str, ResourceSummary]
    flows: dict[str, tuple[float | None, float | None]]
    replications: list[ReplicationStats]


def build_streams(master_seed: int, replication: int) -> dict[str, RngStream]:
    return {name: RngStream(master_seed, replication, name) for name in STREAM_NAMES}


# The last population drawn in this process, under its ``_population_key``.
_population_cache: tuple[tuple, Population] | None = None


def _population_key(config: ScenarioConfig, replication: int) -> tuple:
    """What a replication's population depends on: the config with every
    capacity blanked, and the replication index."""
    blank = replace(config, bed_capacity=0, services=tuple(
        replace(s, capacity_units=0) for s in config.services))
    return blank, replication


def replication_population(config: ScenarioConfig, replication: int,
                           streams: dict[str, RngStream]) -> Population:
    """The replication's arrivals and youth attributes up to the horizon.

    Draws from ``streams`` unless this process drew the same key last; a
    sweep's values differ only in capacities, so consecutive runs of one
    replication share a single draw.
    """
    global _population_cache
    key = _population_key(config, replication)
    if _population_cache is None or _population_cache[0] != key:
        _population_cache = key, draw_population(
            list(config.services), config.annual_arrivals, config.bsy_fraction,
            config.age_16_20_fraction, config.renege_exit_prob, streams,
            config.warmup_days + config.stats_window_days)
    return _population_cache[1]


def _collect(replication: int, model: ShelterModel) -> ReplicationStats:
    resources = {}
    for res in model.pools:
        s = res.stats
        waits = s.served_waits
        resources[res.name] = ResourceWindowStats(
            requests=s.request_count,
            served=len(waits),
            reneges=s.renege_count,
            still_queued=res.still_queued_counted(),
            avg_wait=_total(waits) / len(waits) if waits else None,
            max_wait=max(waits) if waits else None,
            utilization=res.utilization(),
        )
    return ReplicationStats(replication=replication, resources=resources,
                            **vars(model.counters))


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
    stats = _collect(replication, model)
    # Pending entries and the arrival feed hold the model's methods, queued
    # requests hold their timers, and each pool's ledger holds the youths
    # that hold the pool: emptying them lets reference counting free the
    # run at once.
    for entry in sim._heap:
        entry.cancel()
    sim.feed((), None)
    for pool in model.pools:
        pool.queue.clear()
        pool._held.clear()
    return stats


def summarize(reps: list[ReplicationStats]) -> ScenarioSummary:
    """Aggregate replication records into a scenario summary."""
    resource_names = list(reps[0].resources) if reps else []
    resources = {}
    for name in resource_names:
        per_rep = [r.resources[name] for r in reps]
        values = {"max_wait": max((s.max_wait for s in per_rep if s.max_wait is not None),
                                  default=None)}
        for metric in ESTIMATED_METRICS:
            values[metric], values[f"{metric}_ci"] = estimate(
                getattr(s, metric) for s in per_rep)
        resources[name] = ResourceSummary(**values)
    flows = {name: estimate(getattr(r, name) for r in reps) for name in FLOW_LABELS}
    return ScenarioSummary(resources=resources, flows=flows, replications=reps)


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
    ``worker_count(jobs, pairs, available_cpus())`` workers in about four
    chunks per worker; a replication split between two chunks is drawn in
    each process that runs part of it.
    """
    width = len(configs)
    grid_configs = configs * configs[0].replications
    grid_reps = [rep for rep in range(configs[0].replications) for _ in configs]
    workers = worker_count(jobs, len(grid_reps), available_cpus())
    if workers > 1:
        executor = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with executor(max_workers=workers) as pool:
            stats = list(pool.map(run_replication, grid_configs, grid_reps,
                                  chunksize=max(1, len(grid_reps) // (4 * workers))))
    else:
        stats = list(map(run_replication, grid_configs, grid_reps))
    return [stats[i::width] for i in range(width)]


def run_scenario(config: ScenarioConfig, jobs: int = 1) -> ScenarioSummary:
    """Run every replication of a scenario and aggregate the results.

    Replications are independent; with ``jobs > 1`` they run in up to
    ``worker_count(jobs, replications, available_cpus())`` worker processes
    and are merged in index order, so results do not depend on scheduling.
    """
    config.validate()
    return summarize(_run_grid([config], jobs)[0])


def apply_parameter(config: ScenarioConfig, parameter: str, value: int) -> ScenarioConfig:
    """Return a copy of the config with one swept capacity replaced.

    ``parameter`` is either ``bed_capacity`` or ``service:<name>``.
    """
    if parameter == "bed_capacity":
        return replace(config, bed_capacity=int(value))
    if parameter.startswith("service:"):
        target = parameter.split(":", 1)[1]
        names = [s.name for s in config.services]
        if target not in names:
            raise ConfigError([
                f"unknown service {target!r}; expected one of {', '.join(names)}"])
        services = tuple(
            replace(s, capacity_units=int(value)) if s.name == target else s
            for s in config.services
        )
        return replace(config, services=services)
    raise ConfigError([
        f"unknown sweep parameter {parameter!r}; expected bed_capacity or service:<name>"])


def sweep(config: ScenarioConfig, parameter: str, values: list[int],
          jobs: int = 1) -> list[tuple[int, ScenarioSummary]]:
    """Run one scenario per value, all else fixed, same master seed.

    Sharing the seed couples the scenarios through common random numbers:
    identical arrivals and youth attributes, different contention only.
    The pair count is checked against ``MAX_GRID_PAIRS``, repeats rejected
    and every swept config validated before anything runs; then all (value,
    replication) pairs run as one grid (see ``_run_grid``), and each
    replication's population is drawn once per process, not once per value.
    """
    if not values:
        raise ConfigError(["values: must be non-empty"])
    pairs = len(values) * config.replications
    if pairs > MAX_GRID_PAIRS:
        raise ConfigError([f"values x replications: {pairs:,} (value, replication) "
                           f"pairs, above the limit of {MAX_GRID_PAIRS:,}"])
    repeated = [value for value, count in Counter(values).items() if count > 1]
    if repeated:
        raise ConfigError([f"values: {value} is repeated" for value in repeated])
    swept = [apply_parameter(config, parameter, value) for value in values]
    errors = [f"{parameter}={value}: {error}"
              for value, cfg in zip(values, swept) for error in cfg.validation_errors()]
    if errors:
        raise ConfigError(errors)
    grid = _run_grid(swept, jobs)
    return [(value, summarize(reps)) for value, reps in zip(values, grid)]
