"""Discrete-event core: simulation clock, cancellable event calendar, and
capacity pools with multi-unit requests and deadline-based abandonment.

Everything here is deterministic given the sequence of calls made against it;
randomness lives entirely in the callers (see :mod:`sheltersim.streams`).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .stats import _total


class EventHandle(list):
    """A calendar entry ``[time, seq, fn, args]``, handed back as the ticket
    for the scheduled callback. ``cancel()`` keeps it from firing.

    Entries order as lists do, by ``(time, seq)``; ``seq`` is unique, so no
    comparison ever reaches ``fn``.
    """

    __slots__ = ()

    def cancel(self) -> None:
        # Idempotent; the entry stays in the heap and is skipped when popped,
        # but lets go of the callback and its arguments at once.
        self[2] = None
        self[3] = ()


class Simulator:
    """Event calendar plus clock.

    Events fire in (time, seq) order, ``seq`` counting the ``schedule``
    calls, so two events at the same instant fire in the order they were
    scheduled. A fed arrival (see ``feed``) takes no ``seq``: it fires
    before every calendar entry due at its instant. That total order is what
    makes whole runs reproducible.
    """

    def __init__(self):
        self.now = 0.0
        self._heap: list[EventHandle] = []
        self._seq = 0
        # The latest renege entry of any pool, fired or not; a queued
        # request may join it (see ``Resource.request``).
        self._renege_entry: EventHandle | None = None
        # The arrival feed: its times, its handler, and the index of the
        # next arrival to fire.
        self._feed_times = ()
        self._feed_fn: Callable[[int], None] | None = None
        self._feed_next = 0

    def schedule(self, time: float, fn: Callable, *args) -> EventHandle:
        """Schedule ``fn(*args)`` at ``time``. Scheduling in the past is a bug."""
        if not time >= self.now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule at t={time} before current clock t={self.now}"
            )
        entry = EventHandle((time, self._seq, fn, args))
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def feed(self, times, fn: Callable[[int], None] | None) -> None:
        """Call ``fn(i)`` at ``times[i]`` for every ``i`` in turn, without a
        calendar entry per call. This replaces any earlier feed; call it
        outside ``run_until``.

        An arrival fires before every calendar entry due at its instant and
        takes no ``seq``. ``times`` must ascend from the clock, which is
        checked here, once.
        """
        last = self.now
        for time in times:
            if not time >= last:  # also rejects NaN
                raise ValueError(f"feed times must ascend from the clock t={self.now}, "
                                 f"got t={time} after t={last}")
            last = time
        self._feed_times = times
        self._feed_fn = fn
        self._feed_next = 0

    def run_until(self, t_end: float) -> float:
        """Process every event with time <= t_end; leave the clock at t_end."""
        if not t_end >= self.now:  # also rejects NaN
            raise ValueError(f"t_end={t_end} is before current clock t={self.now}")
        heap = self._heap
        pop = heapq.heappop
        times = self._feed_times
        arrive = self._feed_fn
        i = self._feed_next
        # The next arrival's time, or NaN once the feed has run out: no
        # comparison with NaN holds, so then every entry goes first and no
        # arrival fires.
        arrival = times[i] if i < len(times) else math.nan
        while True:
            if heap and not heap[0][0] >= arrival:
                if heap[0][0] > t_end:
                    break
                time, _seq, fn, args = pop(heap)
                if fn is not None:
                    self.now = time
                    fn(*args)
            elif arrival <= t_end:
                self.now = arrival
                arrive(i)
                i += 1
                arrival = times[i] if i < len(times) else math.nan
            else:
                break
        self._feed_next = i
        self.now = t_end
        return self.now


class PendingRequest:
    """A queued multi-unit request with an abandonment deadline.

    ``queued`` holds until the request is granted or reneges. Its renege
    entry holds it in a join list and, when it fires, reneges it only if it
    is still queued.
    """

    __slots__ = (
        "pool", "entity", "units", "enqueue_time", "on_grant", "on_renege",
        "queued", "counted",
    )

    def __init__(self, pool, entity, units, enqueue_time, on_grant, on_renege):
        self.pool = pool
        self.entity = entity
        self.units = units
        self.enqueue_time = enqueue_time
        self.on_grant = on_grant
        self.on_renege = on_renege
        self.queued = True
        self.counted = True


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


class Resource:
    """A pool of identical units with a FIFO queue of impatient requests.

    Grants are strict FIFO: a request that fits behind a head that does not
    fit keeps waiting. An ungranted request leaves the queue at exactly
    ``enqueue_time + patience``. Holdings are tracked per entity, and a
    release returns every unit the entity holds.
    """

    __slots__ = ("sim", "name", "capacity", "busy", "queue", "_held",
                 "request_count", "served_waits", "renege_count",
                 "busy_time_integral", "_last_ts", "_window_start")

    def __init__(self, sim: Simulator, name: str, capacity: int):
        if not (0 <= capacity < math.inf and int(capacity) == capacity):
            raise ValueError(f"{name}: capacity must be a non-negative integer")
        self.sim = sim
        self.name = name
        self.capacity = int(capacity)
        self.busy = 0
        self.queue: deque[PendingRequest] = deque()
        self._held: dict = {}
        self.reset_statistics()

    # -- statistics window ------------------------------------------------

    def _advance_integral(self) -> None:
        now = self.sim.now
        if now > self._last_ts:
            self.busy_time_integral += self.busy * (now - self._last_ts)
            self._last_ts = now

    def reset_statistics(self) -> None:
        """Start a statistics window at the current clock: zero the counters
        and the busy-time integral (unit-days). Requests already in the
        queue stop counting toward totals."""
        self.request_count = 0
        self.served_waits: list[float] = []
        self.renege_count = 0
        self.busy_time_integral = 0.0
        self._last_ts = self._window_start = self.sim.now
        for req in self.queue:
            req.counted = False

    def window_stats(self) -> ResourceWindowStats:
        """The statistics of the window from the last reset (or creation) to
        now. Utilization is the time-averaged fraction of units held, and
        ``None`` when undefined: for a zero-capacity pool or an empty
        window."""
        self._advance_integral()
        waits = self.served_waits
        window = self.sim.now - self._window_start
        return ResourceWindowStats(
            requests=self.request_count,
            served=len(waits),
            reneges=self.renege_count,
            still_queued=sum(1 for req in self.queue if req.counted),
            avg_wait=_total(waits) / len(waits) if waits else None,
            max_wait=max(waits) if waits else None,
            utilization=(self.busy_time_integral / (self.capacity * window)
                         if self.capacity and window > 0 else None),
        )

    # -- holdings ----------------------------------------------------------

    def held_by(self, entity) -> int:
        return self._held.get(entity, 0)

    # -- request / release ---------------------------------------------------

    def request(self, entity, units: int, patience: float,
                on_grant: Callable[[object, Resource, float], None],
                on_renege: Callable[[object, Resource], None]) -> None:
        """Ask for ``units`` units for ``entity``, abandoning after
        ``patience`` days.

        Immediate grant (wait 0) happens only when the queue is empty and the
        units fit; otherwise the request queues behind everyone else. Exactly
        one of the callbacks fires, possibly synchronously, as
        ``on_grant(entity, pool, wait)`` or ``on_renege(entity, pool)``, so
        callers can pass the same two functions for every request. The ledger
        is keyed by ``entity``, which must be hashable. ``patience`` must
        be >= 0 (infinite waits forever) and ``units`` a whole number >= 1;
        any other value raises ``ValueError`` before the request is counted
        or queued.
        """
        if not patience >= 0:  # also rejects NaN
            raise ValueError(f"{self.name}: patience must be >= 0, got {patience}")
        if not (units >= 1 and units // 1 == units):  # NaN and inf floor to NaN
            raise ValueError(
                f"{self.name}: requested units must be a whole number >= 1, got {units}")
        if units > self.capacity:
            raise ValueError(
                f"{self.name}: request for {units} units can never be satisfied "
                f"(capacity {self.capacity})"
            )
        self.request_count += 1
        if not self.queue and self.busy + units <= self.capacity:
            # Its speed: this path builds no request and schedules nothing.
            self._advance_integral()
            self._grant(entity, units, 0.0, True, on_grant)
            return
        now = self.sim.now
        req = PendingRequest(self, entity, units, now, on_grant, on_renege)
        deadline = now + patience
        # A request due when the renege entry scheduled just before it fires
        # joins it, if that deadline is later than now: no entry can sort
        # between two consecutive seqs at one time, and an arrival due then
        # fires before both, so the entry reneging its requests in join
        # order is what one entry each would do. An entry that has fired is
        # due no later than now, so it is never joined. A youth's service
        # requests, all due at ``now + service_patience``, share one.
        sim = self.sim
        entry = sim._renege_entry
        if (entry is not None and entry[1] == sim._seq - 1 and entry[0] == deadline
                and deadline > now):
            entry[3][0].append(req)
        else:
            sim._renege_entry = sim.schedule(deadline, self._renege_due, [req])
        self.queue.append(req)

    def release(self, entity) -> None:
        """Return every unit ``entity`` holds and re-examine the queue head."""
        units = self._held.pop(entity, 0)
        if not units:
            raise ValueError(f"{self.name}: entity {entity} holds no units")
        self._advance_integral()
        self.busy -= units
        self._dispatch()

    def _dispatch(self) -> None:
        # Grant from the queue head while it fits; never look past a blocked
        # head. The integral advances only once the head fits, since where it
        # is split moves its float rounding. The clock stands still through
        # the grants, so one advance covers them all. A grant callback may
        # re-enter this pool (request, release, reset), so busy and the
        # counters are read afresh.
        queue = self.queue
        if not (queue and self.busy + queue[0].units <= self.capacity):
            return
        self._advance_integral()
        now = self.sim.now
        while queue and self.busy + queue[0].units <= self.capacity:
            req = queue.popleft()
            req.queued = False
            self._grant(req.entity, req.units, now - req.enqueue_time, req.counted, req.on_grant)

    def _grant(self, entity, units, wait, counted, on_grant) -> None:
        # ``counted``: the request was made inside this statistics window.
        self.busy += units
        held = self._held
        held[entity] = held.get(entity, 0) + units
        if counted:
            self.served_waits.append(wait)
        on_grant(entity, self, wait)

    def _renege_due(self, due: list[PendingRequest]) -> None:
        # A renege entry fires: renege its requests, of any pool, in join
        # order, skipping those granted before their turn, whether before
        # the entry fired or by a callback it ran. No request joins it now.
        for req in due:
            if req.queued:
                req.pool._renege(req)

    def _renege(self, req: PendingRequest) -> None:
        req.queued = False
        self.queue.remove(req)
        if req.counted:
            self.renege_count += 1
        req.on_renege(req.entity, self)
        # Removing a blocked head can unblock smaller requests behind it.
        self._dispatch()
