"""Shelter flow model: arrivals, stay attributes, bed seeking with
abandonment, five-way parallel service sign-up with batching, and departure.

Youth enter the shelter either seeking a crisis bed first (bed-seeking) or
services only. Bed seekers queue for one bed unit and either seize it or give
up after their bed patience; a configurable fraction of those who give up
leave outright, the rest stay on as service-only users. Every youth who stays
signs up for the services in their needs profile simultaneously, tolerating at
most their service patience per queue, and then remains in the system until
their departure time, when all held units are released at once.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import partial

# Every sampler is importable from here, ``sample_bernoulli`` included,
# although coins are written as the comparison ``u < p`` it makes:
# perfbench/tracer.py times the samplers under these names.
from .distributions import (  # noqa: F401
    ExponentialParams,
    TriangularParams,
    sample_bernoulli,
    sample_exponential,
    sample_triangular,
    sample_uniform_int,
)
from .kernel import Resource, Simulator
from .streams import RngStream

DAYS_PER_YEAR = 365.25

BED_RESOURCE = "crisis_beds"

# Stay-attribute distributions (days).
LOS_BED_SEEKING_16_20 = TriangularParams(30, 75, 90)
LOS_BED_SEEKING_21_24 = TriangularParams(60, 120, 180)
LOS_SERVICE_ONLY = TriangularParams(7, 14, 30)
BED_PATIENCE = TriangularParams(3, 5, 7)
SERVICE_PATIENCE = TriangularParams(1, 7, 14)


class YouthKind(Enum):
    BED_SEEKING = "bed_seeking"
    SERVICE_ONLY = "service_only"


class AgeGroup(Enum):
    AGE_16_20 = "16-20"
    AGE_21_24 = "21-24"


class Departure(Enum):
    SERVED_THEN_LEFT = "served_then_left"
    LEFT_UNSERVED = "left_unserved"


@dataclass(frozen=True)
class ServiceSpec:
    """One appointment pool: monthly capacity, demand probability, and the
    per-youth monthly appointment range conditional on requesting. A config's
    service entry takes the default of each key it leaves out."""

    name: str = ""
    capacity_units: int = 0
    request_prob: float = 0.0
    appt_min: int = 1
    appt_max: int = 1

    def validation_errors(self, path: str = "") -> list[str]:
        errors = nonfinite_errors(self, path)
        if errors:
            return errors
        if not self.name:
            errors.append(f"{path}name: must be non-empty")
        if self.capacity_units < 0 or int(self.capacity_units) != self.capacity_units:
            errors.append(f"{path}capacity_units: must be a non-negative integer")
        if not 0.0 <= self.request_prob <= 1.0:
            errors.append(f"{path}request_prob: must be within [0, 1], got {self.request_prob}")
        if self.appt_min < 1:
            errors.append(f"{path}appt_min: must be >= 1")
        if self.appt_max < self.appt_min:
            errors.append(f"{path}appt_max: must be >= appt_min")
        if self.appt_max > self.capacity_units:
            errors.append(
                f"{path}appt_max: {self.appt_max} exceeds capacity_units "
                f"{self.capacity_units} (requests could never be satisfied)"
            )
        return errors


def nonfinite_errors(spec, path: str = "") -> list[str]:
    """One message per float field of a dataclass that holds NaN or an
    infinity. Later range checks can then assume finite numbers."""
    return [f"{path}{f.name}: must be a finite number, got {value}"
            for f in fields(spec)
            if isinstance(value := getattr(spec, f.name), float)
            and not math.isfinite(value)]


def default_services() -> list[ServiceSpec]:
    """The five support services at their estimated monthly capacities."""
    return [
        ServiceSpec("case_management", 400, 1.0, 2, 4),
        ServiceSpec("drug_counseling", 60, 0.40, 1, 4),
        ServiceSpec("insurance_enrollment", 34, 0.50, 1, 1),
        ServiceSpec("psychiatric", 56, 0.50, 1, 4),
        ServiceSpec("medical", 192, 0.90, 1, 5),
    ]


class Youth:
    """One shelter entity with its stay attributes and in-flight state.

    ``needs`` holds the monthly appointment count of every service in the
    model's service order, 0 for a service the youth does not use.
    ``held`` lists the pools the youth holds units of, in grant order; the
    unit counts are the pools' own ledger (``Resource.held_by``).
    """

    __slots__ = (
        "id", "kind", "age_group", "length_of_stay", "bed_patience",
        "service_patience", "needs", "arrival_time", "exits_on_bed_renege",
        "counted", "held", "pending_services",
    )

    def __init__(self, id: int, kind: YouthKind, age_group: AgeGroup | None,
                 length_of_stay: float, bed_patience: float | None,
                 service_patience: float, needs: list[int],
                 exits_on_bed_renege: bool = False):
        self.id = id
        self.kind = kind
        self.age_group = age_group
        self.length_of_stay = length_of_stay
        self.bed_patience = bed_patience
        self.service_patience = service_patience
        self.needs = needs
        self.exits_on_bed_renege = exits_on_bed_renege
        self.arrival_time = 0.0
        self.counted = False
        self.held: list[Resource] = []
        self.pending_services = 0


def _flow(label: str):
    return field(default=0, metadata={"label": label})


@dataclass
class FlowCounters:
    """Youth-flow tallies for the statistics window (arrival cohort).

    The one declaration of the flows: each field's ``label`` metadata names
    its mean in the CSV. ``still_in_system`` counts the youth who arrived in
    the window and have not departed yet.
    """

    arrivals: int = _flow("youth_arrivals")
    arrivals_bed_seeking: int = _flow("youth_arrivals_bed_seeking")
    arrivals_service_only: int = _flow("youth_arrivals_service_only")
    served_then_left: int = _flow("youth_served_then_left")
    left_unserved: int = _flow("youth_left_unserved")
    bed_renege_exit: int = _flow("bed_renege_exit")
    bed_renege_stayed: int = _flow("bed_renege_stayed")
    still_in_system: int = _flow("youth_still_in_system")


def build_needs_profile(specs: list[ServiceSpec], stream: RngStream) -> list[int]:
    """Draw monthly appointment counts, in service order: per service a demand
    coin, then a uniform count over the service's conditional range."""
    draws = stream.draws
    return [sample_uniform_int(spec.appt_min, spec.appt_max, next(draws))
            if next(draws) < spec.request_prob else 0
            for spec in specs]


class Population:
    """One replication's arrivals, drawn before the run: arrival epochs and
    every youth's stay attributes, as columns indexed by youth id.

    Times and stay attributes are ``array('d')`` columns and the yes/no
    attributes ``bytearray`` columns. Appointment counts are one flat list
    holding one int per youth and service, in the order of ``names``; a list
    rather than a fixed-width array because ``appt_max`` has no upper bound.
    """

    __slots__ = ("names", "times", "bed_seeking", "age_16_20", "exits",
                 "length_of_stay", "bed_patience", "service_patience", "needs")

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.times = array("d")
        self.bed_seeking = bytearray()
        self.age_16_20 = bytearray()
        self.exits = bytearray()
        self.length_of_stay = array("d")
        self.bed_patience = array("d")  # 0.0 for service-only youth
        self.service_patience = array("d")
        self.needs: list[int] = []

    def __len__(self) -> int:
        return len(self.times)

    def youth(self, i: int) -> Youth:
        """Youth ``i`` as the model admits it."""
        width = len(self.names)
        needs = self.needs[i * width:(i + 1) * width]
        if self.bed_seeking[i]:
            age = AgeGroup.AGE_16_20 if self.age_16_20[i] else AgeGroup.AGE_21_24
            return Youth(i, YouthKind.BED_SEEKING, age, self.length_of_stay[i],
                         self.bed_patience[i], self.service_patience[i], needs,
                         exits_on_bed_renege=bool(self.exits[i]))
        return Youth(i, YouthKind.SERVICE_ONLY, None, self.length_of_stay[i], None,
                     self.service_patience[i], needs)


def assign_attributes(population: Population, bed_seeking: bool,
                      age_16_20_fraction: float, renege_exit_prob: float,
                      specs: list[ServiceSpec], attr_stream: RngStream,
                      needs_stream: RngStream) -> None:
    """Draw one youth's stay attributes and needs profile onto the end of
    ``population``.

    Bed seekers take four ``attr_stream`` draws (age band, stay, bed
    patience, exit coin) and service-only youth one, before the service
    patience draw; the order of draws is part of the reproducibility
    contract.
    """
    draws = attr_stream.draws
    if bed_seeking:
        young = next(draws) < age_16_20_fraction
        los = sample_triangular(LOS_BED_SEEKING_16_20 if young else LOS_BED_SEEKING_21_24,
                                next(draws))
        bed_patience = sample_triangular(BED_PATIENCE, next(draws))
        exits = next(draws) < renege_exit_prob
    else:
        young = exits = False
        los = sample_triangular(LOS_SERVICE_ONLY, next(draws))
        bed_patience = 0.0
    population.bed_seeking.append(bed_seeking)
    population.age_16_20.append(young)
    population.exits.append(exits)
    population.length_of_stay.append(los)
    population.bed_patience.append(bed_patience)
    population.service_patience.append(sample_triangular(SERVICE_PATIENCE, next(draws)))
    population.needs.extend(build_needs_profile(specs, needs_stream))


def draw_population(specs: list[ServiceSpec], annual_arrivals: float,
                    bsy_fraction: float, age_16_20_fraction: float,
                    renege_exit_prob: float, streams: dict[str, RngStream],
                    horizon: float) -> Population:
    """Draw every arrival up to ``horizon`` with all its attributes.

    Arrivals form a Poisson process of rate ``annual_arrivals`` per year from
    the ``arrivals`` stream. In arrival order, each youth's kind and stay
    attributes come from ``attributes`` and its needs from ``needs``. None of
    this depends on contention, so the result can be shared by every
    scenario that differs only in capacities.
    """
    population = Population(tuple(s.name for s in specs))
    if annual_arrivals <= 0:
        return population
    gap = ExponentialParams(DAYS_PER_YEAR / annual_arrivals)
    attr, needs = streams["attributes"], streams["needs"]
    arrival_draws, attr_draws = streams["arrivals"].draws, attr.draws
    append_time = population.times.append
    t = 0.0
    while (t := t + sample_exponential(gap, 1.0 - next(arrival_draws))) <= horizon:
        append_time(t)
        assign_attributes(population, next(attr_draws) < bsy_fraction,
                          age_16_20_fraction, renege_exit_prob, specs, attr, needs)
    return population


class ShelterModel:
    """Event-driven shelter with one bed pool and one pool per service.

    The model owns the resources and the youth state machine. Arrivals come
    from a pre-drawn ``population`` (``start``); tests can instead inject
    fully specified youths through ``admit``. Only the ``redraw`` stream is
    read during the run, because whether it is used depends on contention.

    The ``trace`` list, when supplied, is the only record of what happened
    to each youth; every state change appends one tuple to it:

    - ("arrival", t, id, kind, age, los, bed_patience, service_patience,
      needs_in_service_order, exits_on_bed_renege)
    - ("bed_request", t, id) / ("bed_grant", t, id, wait)
    - ("bed_renege", t, id, "exit" | "stay")
    - ("service_request", t, id, service, units)
    - ("service_grant", t, id, service, wait) / ("service_renege", t, id, service)
    - ("service_bypass", t, id, service)
    - ("depart", t, id, "served_then_left" | "left_unserved")
    """

    def __init__(self, sim: Simulator, bed_capacity: int, services: list[ServiceSpec],
                 population: Population | None = None,
                 redraw_los_on_bed_renege: bool = False,
                 streams: dict[str, RngStream] | None = None,
                 trace: list | None = None):
        self.sim = sim
        self.beds = Resource(sim, BED_RESOURCE, bed_capacity)
        # The service pools in service order, the order of every youth's needs.
        self.service_pools = [Resource(sim, s.name, s.capacity_units) for s in services]
        # Every pool, beds first.
        self.pools = (self.beds, *self.service_pools)
        self.population = population
        self.redraw_los_on_bed_renege = redraw_los_on_bed_renege
        self.streams = streams
        self.trace = trace
        self.counters = FlowCounters()
        self._stats_on = False
        self._next_id = 0

    # -- statistics window ---------------------------------------------------

    def reset_statistics(self) -> None:
        """Start the measurement window: zero every accumulator but keep all
        in-flight youth and holdings."""
        for pool in self.pools:
            pool.reset_statistics()
        self.counters = FlowCounters()
        self._stats_on = True

    # -- arrivals --------------------------------------------------------------

    def start(self) -> None:
        """Schedule the population's first arrival; each arrival schedules the
        next one after admitting its youth."""
        if self.population:
            self.sim.schedule(self.population.times[0], self._arrive)

    def _arrive(self) -> None:
        i = self._next_id
        self._next_id = i + 1
        self.admit(self.population.youth(i))
        if self._next_id < len(self.population):
            self.sim.schedule(self.population.times[self._next_id], self._arrive)

    # -- youth process -----------------------------------------------------------

    def admit(self, youth: Youth) -> None:
        """Run one youth through the shelter starting now."""
        now = self.sim.now
        youth.arrival_time = now
        youth.counted = self._stats_on
        if youth.counted:
            counters = self.counters
            counters.arrivals += 1
            counters.still_in_system += 1
            if youth.kind is YouthKind.BED_SEEKING:
                counters.arrivals_bed_seeking += 1
            else:
                counters.arrivals_service_only += 1
        if self.trace is not None:
            self.trace.append((
                "arrival", now, youth.id, youth.kind.value,
                youth.age_group.value if youth.age_group else None,
                youth.length_of_stay, youth.bed_patience, youth.service_patience,
                youth.needs, youth.exits_on_bed_renege,
            ))
        if youth.kind is YouthKind.BED_SEEKING:
            if self.trace is not None:
                self.trace.append(("bed_request", now, youth.id))
            self.beds.request(
                youth.id, 1, youth.bed_patience,
                partial(self._on_bed_grant, youth),
                partial(self._on_bed_renege, youth),
            )
        else:
            self._start_services(youth)

    def _on_bed_grant(self, youth: Youth, wait: float) -> None:
        youth.held.append(self.beds)
        if self.trace is not None:
            self.trace.append(("bed_grant", self.sim.now, youth.id, wait))
        self._start_services(youth)

    def _on_bed_renege(self, youth: Youth) -> None:
        exits = youth.exits_on_bed_renege
        if self.trace is not None:
            self.trace.append(("bed_renege", self.sim.now, youth.id,
                               "exit" if exits else "stay"))
        if youth.counted:
            if exits:
                self.counters.bed_renege_exit += 1
            else:
                self.counters.bed_renege_stayed += 1
        if exits:
            self._depart(youth, Departure.LEFT_UNSERVED)
            return
        if self.redraw_los_on_bed_renege:
            u = self.streams["redraw"].uniform()
            youth.length_of_stay = sample_triangular(LOS_SERVICE_ONLY, u)
        self._start_services(youth)

    def _start_services(self, youth: Youth) -> None:
        now = self.sim.now
        trace = self.trace
        needs = youth.needs
        # Set before the first request, whose grant may come at once.
        youth.pending_services = pending = len(needs) - needs.count(0)
        if trace is not None:
            for pool, units in zip(self.service_pools, needs):
                if not units:
                    trace.append(("service_bypass", now, youth.id, pool.name))
        if not pending:
            self._batch_resolved(youth)
            return
        for pool, units in zip(self.service_pools, needs):
            if units:
                if trace is not None:
                    trace.append(("service_request", now, youth.id, pool.name, units))
                pool.request(
                    youth.id, units, youth.service_patience,
                    partial(self._on_service_grant, youth, pool),
                    partial(self._on_service_renege, youth, pool),
                )

    def _on_service_grant(self, youth: Youth, pool: Resource, wait: float) -> None:
        youth.held.append(pool)
        if self.trace is not None:
            self.trace.append(("service_grant", self.sim.now, youth.id, pool.name, wait))
        youth.pending_services -= 1
        if not youth.pending_services:
            self._batch_resolved(youth)

    def _on_service_renege(self, youth: Youth, pool: Resource) -> None:
        if self.trace is not None:
            self.trace.append(("service_renege", self.sim.now, youth.id, pool.name))
        youth.pending_services -= 1
        if not youth.pending_services:
            self._batch_resolved(youth)

    def _batch_resolved(self, youth: Youth) -> None:
        # A youth holding nothing at the end of sign-up leaves right away;
        # everyone else stays for their assigned length of stay (or until
        # sign-up resolved, whichever is later).
        if youth.held:
            depart_at = max(youth.arrival_time + youth.length_of_stay, self.sim.now)
            self.sim.schedule(depart_at, self._depart, youth, Departure.SERVED_THEN_LEFT)
        else:
            self._depart(youth, Departure.LEFT_UNSERVED)

    def _depart(self, youth: Youth, kind: Departure) -> None:
        if youth.counted:
            self.counters.still_in_system -= 1
            if kind is Departure.SERVED_THEN_LEFT:
                self.counters.served_then_left += 1
            else:
                self.counters.left_unserved += 1
        if self.trace is not None:
            self.trace.append(("depart", self.sim.now, youth.id, kind.value))
        for pool in youth.held:
            pool.release(youth.id, pool.held_by(youth.id))
        youth.held.clear()
