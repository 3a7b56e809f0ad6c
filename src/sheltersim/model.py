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
from typing import TYPE_CHECKING

import numpy as np

# Every scalar sampler is importable from here, although the population is
# drawn with their array twins and coins are written as the comparison
# ``u < p`` that ``sample_bernoulli`` makes: perfbench/tracer.py times the
# samplers under these names.
from .distributions import (  # noqa: F401
    TriangularParams,
    sample_bernoulli,
    sample_exponential,
    sample_triangular,
    sample_uniform_int,
    triangular_array,
    uniform_int_array,
)
from .kernel import Resource, Simulator
from .streams import RngStream

if TYPE_CHECKING:
    from .config import ServiceSpec

DAYS_PER_YEAR = 365.25

BED_RESOURCE = "crisis_beds"

# Stay-attribute distributions (days).
LOS_BED_SEEKING_16_20 = TriangularParams(30, 75, 90)
LOS_BED_SEEKING_21_24 = TriangularParams(60, 120, 180)
LOS_SERVICE_ONLY = TriangularParams(7, 14, 30)
BED_PATIENCE = TriangularParams(3, 5, 7)
SERVICE_PATIENCE = TriangularParams(1, 7, 14)


class Youth:
    """One shelter entity with its stay attributes and in-flight state.

    ``kind`` is "bed_seeking" or "service_only" and ``age_group`` "16-20",
    "21-24" or None (service-only youth), the words of the trace.
    ``needs`` holds the monthly appointment count of every service in the
    model's service order, 0 for a service the youth does not use.
    ``held`` lists the pools the youth holds units of, in grant order; the
    unit counts are the pools' own ledger (``Resource.held_by``), keyed by
    the youth itself.
    """

    __slots__ = (
        "id", "kind", "age_group", "length_of_stay", "bed_patience",
        "service_patience", "needs", "arrival_time", "exits_on_bed_renege",
        "counted", "held", "pending_services",
    )

    def __init__(self, id: int, kind: str, age_group: str | None,
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

    def __repr__(self) -> str:
        return f"Youth(id={self.id})"


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


# Each flow and the label of its mean in the CSV, in CSV order.
FLOW_LABELS = {f.name: f.metadata["label"] for f in fields(FlowCounters)}


class Population:
    """One replication's arrivals, drawn before the run: arrival epochs and
    every youth's stay attributes, as columns indexed by youth id.

    Times and stay attributes are ``array('d')`` columns and the yes/no
    attributes ``bytearray`` columns. Appointment counts are one flat list
    holding one int per youth and service, in the order of ``names``; a list
    because ``youth(i)`` hands out a slice of it as the youth's needs, which
    the trace's arrival entry carries and JSON writes as a list.
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
            age = "16-20" if self.age_16_20[i] else "21-24"
            return Youth(i, "bed_seeking", age, self.length_of_stay[i],
                         self.bed_patience[i], self.service_patience[i], needs,
                         exits_on_bed_renege=bool(self.exits[i]))
        return Youth(i, "service_only", None, self.length_of_stay[i], None,
                     self.service_patience[i], needs)


# Youths drawn per window: their draws are read as whole arrays, while the
# window's scratch arrays stay small beside the population's columns.
WINDOW = 512


def _record_starts(ends: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The starts of ``n`` back-to-back draw records, the first at 0 and the
    next after one at j at ``ends[j]``, and the draws the ``n`` records use."""
    ends, starts, j = memoryview(ends), [], 0
    for _ in range(n):
        starts.append(j)
        j = ends[j]
    return np.array(starts, dtype=np.intp), j


def assign_attributes(population: Population, n: int, bsy_fraction: float,
                      age_16_20_fraction: float, renege_exit_prob: float,
                      u: np.ndarray) -> np.ndarray:
    """Draw the next ``n`` youths' kinds and stay attributes onto the end of
    ``population`` from the ``attributes`` draws ``u`` (at least 6n of them),
    and return the draws they leave.

    Each youth reads its draws in order: the bed-seeker coin, then for a bed
    seeker the age band, stay, bed patience and exit coin (for a
    service-only youth the stay alone), then the service patience; the order
    is part of the reproducibility contract.
    """
    # Each youth starts 6 draws after a bed seeker and 3 after anyone else.
    at, used = _record_starts(np.arange(3, len(u) + 3) + 3 * (u < bsy_fraction), n)
    bed = u[at] < bsy_fraction
    young = bed & (u[at + 1] < age_16_20_fraction)
    exits = bed & (u[at + 4] < renege_exit_prob)
    stay = u[at + np.where(bed, 2, 1)]
    population.bed_seeking += bed.tobytes()
    population.age_16_20 += young.tobytes()
    population.exits += exits.tobytes()
    population.length_of_stay.frombytes(np.where(
        bed, np.where(young, triangular_array(LOS_BED_SEEKING_16_20, stay),
                      triangular_array(LOS_BED_SEEKING_21_24, stay)),
        triangular_array(LOS_SERVICE_ONLY, stay)).tobytes())
    population.bed_patience.frombytes(
        np.where(bed, triangular_array(BED_PATIENCE, u[at + 3]), 0.0).tobytes())
    population.service_patience.frombytes(
        triangular_array(SERVICE_PATIENCE, u[at + np.where(bed, 5, 2)]).tobytes())
    return u[used:]


def build_needs_profile(specs: list[ServiceSpec], n: int,
                        u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw the next ``n`` youths' monthly appointment counts from the
    ``needs`` draws ``u`` (at least 2n per service), and return them as an
    (n, services) array in service order, with the draws they leave.

    Each youth reads, per service in order, a demand coin and, on demand, a
    uniform count over the service's conditional range.
    """
    # ``ends[j]``: where a youth whose draws start at j ends, for every j
    # whose every draw is in ``u``; one array step per service.
    ends = np.arange(len(u) - 2 * len(specs) + 1)
    for spec in specs:
        ends += 1
        ends += u[ends - 1] < spec.request_prob
    at, used = _record_starts(ends, n)
    profile = np.zeros((n, len(specs)), dtype=np.int64)
    for k, spec in enumerate(specs):
        demand = u[at] < spec.request_prob
        counts = uniform_int_array(spec.appt_min, spec.appt_max, u[at + 1])
        profile[:, k] = np.where(demand, counts, 0)
        at += 1
        at += demand
    return profile, u[used:]


def _topped_up(rest: np.ndarray, stream: RngStream, size: int) -> np.ndarray:
    """``rest``, followed by enough of ``stream`` to hold ``size`` draws."""
    if len(rest) >= size:
        return rest
    return np.concatenate((rest, stream.take(size - len(rest))))


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

    Youths are drawn ``WINDOW`` at a time. A window reads more draws than
    its youths use and hands the rest to the next one, so the three streams
    end past the population's last draw; nothing reads them afterwards.
    """
    population = Population(tuple(s.name for s in specs))
    if annual_arrivals <= 0:
        return population
    # ``t + sample_exponential(gap, 1.0 - u)`` inlined: scalar ``math.log``,
    # since numpy's ``log`` need not round like the C library's, and a
    # running sum, left to right.
    neg_mean = -(DAYS_PER_YEAR / annual_arrivals)
    log = math.log
    arrivals, attr, needs = streams["arrivals"], streams["attributes"], streams["needs"]
    append_time = population.times.append
    attr_rest = needs_rest = np.empty(0)
    t = 0.0
    while True:
        n = 0
        for u in arrivals.take(WINDOW).tolist():
            t += neg_mean * log(1.0 - u)
            if t > horizon:
                break
            append_time(t)
            n += 1
        if n:
            attr_rest = assign_attributes(
                population, n, bsy_fraction, age_16_20_fraction, renege_exit_prob,
                _topped_up(attr_rest, attr, 6 * n))
            profile, needs_rest = build_needs_profile(
                specs, n, _topped_up(needs_rest, needs, 2 * len(specs) * n))
            population.needs += profile.ravel().tolist()
        if n < WINDOW:
            break
    return population


class ShelterModel:
    """Event-driven shelter with one bed pool and one pool per service.

    The model owns the resources and the youth state machine. Building it
    with a pre-drawn ``population`` feeds the population's arrival times to
    the calendar, which admits youth ``i`` at ``times[i]``; tests can instead
    inject fully specified youths through ``admit``. When ``redraw`` is
    given, a bed seeker who gives up on a bed and stays redraws their stay
    from it: the run's only draw, made during the run because whether it is
    made depends on contention.

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
                 redraw: RngStream | None = None,
                 trace: list | None = None):
        self.sim = sim
        self.beds = Resource(sim, BED_RESOURCE, bed_capacity)
        # The service pools in service order, the order of every youth's needs.
        self.service_pools = [Resource(sim, s.name, s.capacity_units) for s in services]
        # Every pool, beds first.
        self.pools = (self.beds, *self.service_pools)
        self.population = population
        self.redraw = redraw
        self.trace = trace
        self.counters = FlowCounters()
        self._stats_on = False
        if population is not None:
            sim.feed(population.times, self._arrive)

    # -- statistics window ---------------------------------------------------

    def reset_statistics(self) -> None:
        """Start the measurement window: zero every accumulator but keep all
        in-flight youth and holdings."""
        for pool in self.pools:
            pool.reset_statistics()
        self.counters = FlowCounters()
        self._stats_on = True

    # -- arrivals --------------------------------------------------------------

    def _arrive(self, i: int) -> None:
        self.admit(self.population.youth(i))

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
            if youth.kind == "bed_seeking":
                counters.arrivals_bed_seeking += 1
            else:
                counters.arrivals_service_only += 1
        if self.trace is not None:
            self.trace.append((
                "arrival", now, youth.id, youth.kind, youth.age_group,
                youth.length_of_stay, youth.bed_patience, youth.service_patience,
                youth.needs, youth.exits_on_bed_renege,
            ))
        if youth.kind == "bed_seeking":
            if self.trace is not None:
                self.trace.append(("bed_request", now, youth.id))
            self.beds.request(youth, 1, youth.bed_patience,
                              self._on_bed_grant, self._on_bed_renege)
        else:
            self._start_services(youth)

    def _on_bed_grant(self, youth: Youth, beds: Resource, wait: float) -> None:
        youth.held.append(beds)
        if self.trace is not None:
            self.trace.append(("bed_grant", self.sim.now, youth.id, wait))
        self._start_services(youth)

    def _on_bed_renege(self, youth: Youth, beds: Resource) -> None:
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
            self._depart(youth, "left_unserved")
            return
        if self.redraw is not None:
            youth.length_of_stay = sample_triangular(LOS_SERVICE_ONLY, self.redraw.uniform())
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
        on_grant, on_renege = self._on_service_grant, self._on_service_renege
        for pool, units in zip(self.service_pools, needs):
            if units:
                if trace is not None:
                    trace.append(("service_request", now, youth.id, pool.name, units))
                pool.request(youth, units, youth.service_patience, on_grant, on_renege)

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
            self.sim.schedule(depart_at, self._depart, youth, "served_then_left")
        else:
            self._depart(youth, "left_unserved")

    def _depart(self, youth: Youth, outcome: str) -> None:
        if youth.counted:
            self.counters.still_in_system -= 1
            if outcome == "served_then_left":
                self.counters.served_then_left += 1
            else:
                self.counters.left_unserved += 1
        if self.trace is not None:
            self.trace.append(("depart", self.sim.now, youth.id, outcome))
        for pool in youth.held:
            pool.release(youth)
        youth.held.clear()
