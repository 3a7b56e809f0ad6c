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
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache, reduce
from operator import add
from typing import get_args, get_type_hints

from .kernel import Simulator
from .model import (
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


@dataclass(frozen=True)
class ResourceSummary:
    """Cross-replication aggregate for one resource."""

    avg_wait: float | None
    avg_wait_ci: float | None
    max_wait: float | None
    utilization: float | None
    utilization_ci: float | None
    renege_pct: float | None
    renege_pct_ci: float | None


@dataclass(frozen=True)
class ScenarioSummary:
    """Scenario results: per-resource aggregates, youth-flow means, and the
    per-replication records they were built from."""

    resources: dict[str, ResourceSummary]
    flows: dict[str, tuple[float, float | None]]
    replications: list[ReplicationStats]


def t_halfwidth(values: list[float], confidence: float = 0.95) -> float | None:
    """Half-width of the Student-t confidence interval for the mean.

    Undefined (None) with fewer than two values.
    """
    n = len(values)
    if n < 2:
        return None
    mean = _total(values) / n
    var = _total((v - mean) ** 2 for v in values) / (n - 1)
    if var == 0.0:
        return 0.0
    crit = t_quantile(0.5 + confidence / 2.0, n - 1)
    return crit * math.sqrt(var / n)


# Cached because ``summarize`` asks for the same quantile for every metric.
@lru_cache(maxsize=256)
def t_quantile(p: float, df: float) -> float:
    """The ``p``-quantile of Student's t distribution with ``df`` degrees of
    freedom, for 0.5 <= p < 1 and df > 0.

    Newton steps on log t against the log of a tail mass, from a
    Cornish-Fisher starting value; each step evaluates the mass with the
    continued fraction of the regularized incomplete beta function, whose
    length does not grow with df. The result is within about 1e-14 relative
    of the exact quantile at the 90-99.9% levels, for any df.
    """
    if not (0.5 <= p < 1.0 and df > 0.0):
        raise ValueError(f"t_quantile needs 0.5 <= p < 1 and df > 0, got p={p}, df={df}")
    if p == 0.5:
        return 0.0
    t = _cornish_fisher(1.0 - p, df)
    if t <= 0.0:  # the start's normal quantile is off by up to 4.5e-4
        t = p - 0.5
    for _ in range(50):
        mass, upper, density = _t_mass(t, df)
        target = 1.0 - p if upper else p - 0.5
        step = math.log(mass / target) * mass / (t * density)
        t *= math.exp(step if upper else -step)
        # Convergence is quadratic: once a step is below 1e-9 the error left
        # is of order its square, far below double precision.
        if abs(step) < 1e-9:
            return t
    raise ArithmeticError(f"t_quantile did not converge for p={p}, df={df}")


def _cornish_fisher(q: float, df: float) -> float:
    """Approximate upper-q point of Student's t: the normal quantile of
    Abramowitz & Stegun 26.2.23 (error < 4.5e-4) corrected by the
    Cornish-Fisher series in 1/df of A&S 26.7.5."""
    s = math.sqrt(-2.0 * math.log(q))
    z = s - (2.515517 + s * (0.802853 + s * 0.010328)) / (
        1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def _t_mass(t: float, df: float) -> tuple[float, bool, float]:
    """``(mass, upper, density)`` of Student's t at ``t > 0``.

    ``mass`` is the upper tail P(T > t) when ``upper``, else the central
    part P(0 < T < t); whichever is returned is the one computed without
    cancellation. With x = df / (df + t^2), P(T > t) = I_x(df/2, 1/2) / 2.
    """
    a = 0.5 * df
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)
    inv_beta = math.sqrt(a / math.pi) * _half_gamma_ratio(a)  # 1 / B(a, 1/2)
    x_pow_a = math.exp(-a * math.log1p(t2 / df))
    front = x_pow_a * math.sqrt(y) * inv_beta
    density = x_pow_a * math.sqrt(x) * inv_beta / math.sqrt(df)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_fraction(a, 0.5, x, y) / a, True, density
    return front * _beta_fraction(0.5, a, y, x), False, density


def _half_gamma_ratio(a: float) -> float:
    """Gamma(a + 1/2) / (Gamma(a) sqrt(a)), to a few ulp for any a > 0."""
    if a < 20.0:
        return math.gamma(a + 0.5) / (math.gamma(a) * math.sqrt(a))
    # Stirling series of the log ratio; the first omitted term is below 1e-16.
    r = 1.0 / (a * a)
    return math.exp((-1.0 / 8.0 + r * (1.0 / 192.0 + r * (-1.0 / 640.0 + r * (
        17.0 / 14336.0 - r * 31.0 / 18432.0)))) / a)


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction h of I_x(a, b) = x^a y^b h / (a B(a, b)), y = 1 - x.

    Uses the even contraction of the classical fraction (Abramowitz & Stegun
    26.5.8) under the modified Lentz method. For x > 1/2 each partial
    denominator 1 + d_odd is formed from y, so none cancels when a is large.
    """
    ab = a + b
    d_odd = -ab * x / (a + 1.0)
    f = 1.0 + d_odd if x <= 0.5 else ((1.0 - b) + ab * y) / (a + 1.0)
    c, d = f, 0.0
    for m in range(1, 1000):
        am = a + 2 * m
        d_even = m * (b - m) * x / ((am - 1.0) * am)
        den = am * (am + 1.0)
        num = (a + m) * (ab + m)
        if x <= 0.5:
            one_plus_odd = 1.0 - num * x / den
        else:
            one_plus_odd = (a * (2 * m + 1 - b) + m * (3 * m + 2 - b) + num * y) / den
        an = -d_odd * d_even
        bn = one_plus_odd + d_even
        d_odd = -num * x / den
        d = 1.0 / (bn + an * d)
        c = bn + an / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= 2.0 ** -52:
            return 1.0 / f
    raise ArithmeticError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


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
    """Run one seeded replication: build, start, warm up, reset the
    statistics, run the window, collect. Every event is appended to
    ``trace`` when one is given (see ``ShelterModel``).
    """
    streams = build_streams(config.master_seed, replication)
    sim = Simulator()
    model = ShelterModel(
        sim, config.bed_capacity, list(config.services),
        population=replication_population(config, replication, streams),
        redraw=streams["redraw"] if config.redraw_los_on_bed_renege else None,
        trace=trace,
    )
    model.start()
    sim.run_until(config.warmup_days)
    model.reset_statistics()
    sim.run_until(config.warmup_days + config.stats_window_days)
    stats = _collect(replication, model)
    # Pending entries hold the model's methods and queued requests hold their
    # timers: emptying both lets reference counting free the run at once.
    for entry in sim._heap:
        entry.cancel()
    for pool in model.pools:
        pool.queue.clear()
    return stats


def summarize(reps: list[ReplicationStats]) -> ScenarioSummary:
    """Aggregate replication records into a scenario summary."""
    resource_names = list(reps[0].resources) if reps else []
    resources = {}
    for name in resource_names:
        per_rep = [r.resources[name] for r in reps]
        avg_waits = [s.avg_wait for s in per_rep if s.avg_wait is not None]
        max_waits = [s.max_wait for s in per_rep if s.max_wait is not None]
        utils = [s.utilization for s in per_rep if s.utilization is not None]
        renege_pcts = [s.renege_pct for s in per_rep if s.renege_pct is not None]
        resources[name] = ResourceSummary(
            avg_wait=_mean(avg_waits),
            avg_wait_ci=t_halfwidth(avg_waits),
            max_wait=max(max_waits) if max_waits else None,
            utilization=_mean(utils),
            utilization_ci=t_halfwidth(utils),
            renege_pct=_mean(renege_pcts),
            renege_pct_ci=t_halfwidth(renege_pcts),
        )
    flows = {}
    for fieldname in FLOW_LABELS:
        values = [float(getattr(r, fieldname)) for r in reps]
        flows[fieldname] = (_mean(values) or 0.0, t_halfwidth(values))
    return ScenarioSummary(resources=resources, flows=flows, replications=reps)


def _mean(values: list) -> float | None:
    if not values:
        return None
    return _total(values) / len(values)


def _total(values) -> float:
    """The float sum of ``values``, added left to right. From Python 3.12
    ``sum()`` compensates the rounding of floats, so its result would depend
    on the Python version."""
    return reduce(add, values, 0.0)


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
    The pair count is checked against ``MAX_GRID_PAIRS`` and every swept
    config validated before anything runs; then all (value, replication)
    pairs run as one grid (see ``_run_grid``), and each replication's
    population is drawn once per process, not once per value.
    """
    if not values:
        raise ConfigError(["values: must be non-empty"])
    pairs = len(values) * config.replications
    if pairs > MAX_GRID_PAIRS:
        raise ConfigError([f"values x replications: {pairs:,} (value, replication) "
                           f"pairs, above the limit of {MAX_GRID_PAIRS:,}"])
    swept = [apply_parameter(config, parameter, value) for value in values]
    errors = [f"{parameter}={value}: {error}"
              for value, cfg in zip(values, swept) for error in cfg.validation_errors()]
    if errors:
        raise ConfigError(errors)
    grid = _run_grid(swept, jobs)
    return [(value, summarize(reps)) for value, reps in zip(values, grid)]
