"""Discrete-event core: simulation clock, cancellable event calendar, and
capacity pools with multi-unit requests and deadline-based abandonment.

Everything here is deterministic given the sequence of calls made against it;
randomness lives entirely in the callers (see :mod:`sheltersim.streams`).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable


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

    Events fire in (time, insertion order) order, so two events scheduled for
    the same instant fire in the order they were scheduled. That total order
    is what makes whole runs reproducible.
    """

    def __init__(self):
        self.now = 0.0
        self._heap: list[EventHandle] = []
        self._seq = 0
        # The latest renege entry of any pool while it is pending; queued
        # requests may join it (see ``Resource.request``).
        self._renege_entry: EventHandle | None = None

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

    def run_until(self, t_end: float) -> float:
        """Process every event with time <= t_end; leave the clock at t_end."""
        if not t_end >= self.now:  # also rejects NaN
            raise ValueError(f"t_end={t_end} is before current clock t={self.now}")
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            time, _seq, fn, args = pop(heap)
            if fn is None:
                continue
            self.now = time
            fn(*args)
        self.now = t_end
        return self.now


class PendingRequest:
    """A queued multi-unit request with an abandonment deadline.

    ``timer`` is the renege entry the request belongs to; its one argument
    is the list of the entry's requests that are still queued.
    """

    __slots__ = (
        "pool", "entity_id", "units", "enqueue_time", "on_grant", "on_renege",
        "timer", "counted",
    )

    def __init__(self, pool, entity_id, units, enqueue_time, on_grant, on_renege):
        self.pool = pool
        self.entity_id = entity_id
        self.units = units
        self.enqueue_time = enqueue_time
        self.on_grant = on_grant
        self.on_renege = on_renege
        self.timer: EventHandle | None = None
        self.counted = True


@dataclass
class ResourceStats:
    """Counters accumulated since the last statistics reset."""

    request_count: int = 0
    served_waits: list[float] = field(default_factory=list)
    renege_count: int = 0
    busy_time_integral: float = 0.0  # unit-days


class Resource:
    """A pool of identical units with a FIFO queue of impatient requests.

    Grants are strict FIFO: a request that fits behind a head that does not
    fit keeps waiting. An ungranted request leaves the queue at exactly
    ``enqueue_time + patience``. Holdings are tracked per entity, and a
    release returns every unit the entity holds.
    """

    __slots__ = ("sim", "name", "capacity", "busy", "queue", "stats",
                 "_held", "_last_ts", "_window_start")

    def __init__(self, sim: Simulator, name: str, capacity: int):
        if not (0 <= capacity < math.inf and int(capacity) == capacity):
            raise ValueError(f"{name}: capacity must be a non-negative integer")
        self.sim = sim
        self.name = name
        self.capacity = int(capacity)
        self.busy = 0
        self.queue: deque[PendingRequest] = deque()
        self.stats = ResourceStats()
        self._held: dict = {}
        self._last_ts = sim.now
        self._window_start = sim.now

    # -- statistics window ------------------------------------------------

    def _advance_integral(self) -> None:
        now = self.sim.now
        if now > self._last_ts:
            self.stats.busy_time_integral += self.busy * (now - self._last_ts)
            self._last_ts = now

    def reset_statistics(self) -> None:
        """Zero all counters and restart busy-time integration at the current
        clock. Requests already in the queue stop counting toward totals."""
        self.stats = ResourceStats()
        self._last_ts = self.sim.now
        self._window_start = self.sim.now
        for req in self.queue:
            req.counted = False

    def utilization(self) -> float | None:
        """Time-averaged fraction of units held from the last statistics
        reset (or creation) to now; ``None`` when it is undefined, for a
        zero-capacity pool or an empty window."""
        window = self.sim.now - self._window_start
        if self.capacity == 0 or window <= 0:
            return None
        self._advance_integral()
        return self.stats.busy_time_integral / (self.capacity * window)

    # -- holdings ----------------------------------------------------------

    def held_by(self, entity_id) -> int:
        return self._held.get(entity_id, 0)

    def still_queued_counted(self) -> int:
        return sum(1 for req in self.queue if req.counted)

    # -- request / release ---------------------------------------------------

    def request(self, entity_id, units: int, patience: float,
                on_grant: Callable[[float], None],
                on_renege: Callable[[], None]) -> None:
        """Ask for ``units`` units, abandoning after ``patience`` days.

        Immediate grant (wait 0) happens only when the queue is empty and the
        units fit; otherwise the request queues behind everyone else. Exactly
        one of the callbacks fires, possibly synchronously.
        """
        if units < 1:
            raise ValueError(f"{self.name}: requested units must be >= 1, got {units}")
        if units > self.capacity:
            raise ValueError(
                f"{self.name}: request for {units} units can never be satisfied "
                f"(capacity {self.capacity})"
            )
        stats = self.stats
        stats.request_count += 1
        now = self.sim.now
        busy = self.busy
        if not self.queue and busy + units <= self.capacity:
            if now > self._last_ts:
                stats.busy_time_integral += busy * (now - self._last_ts)
                self._last_ts = now
            self.busy = busy + units
            held = self._held
            held[entity_id] = held.get(entity_id, 0) + units
            stats.served_waits.append(0.0)
            on_grant(0.0)
            return
        req = PendingRequest(self, entity_id, units, now, on_grant, on_renege)
        deadline = now + patience
        # A request due when the entry scheduled just before it fires, while
        # that entry is a pending renege entry, joins it: no entry can sort
        # between two consecutive seqs at one time, so the entry reneging its
        # requests in join order is what one entry each would do. A youth's
        # service requests, all due at ``now + service_patience``, share one.
        sim = self.sim
        entry = sim._renege_entry
        if entry is not None and entry[1] == sim._seq - 1 and entry[0] == deadline:
            entry[3][0].append(req)
        else:
            entry = sim._renege_entry = sim.schedule(deadline, self._renege_due, [req])
        req.timer = entry
        self.queue.append(req)

    def release(self, entity_id) -> None:
        """Return every unit ``entity_id`` holds and re-examine the queue head."""
        units = self._held.pop(entity_id, 0)
        if not units:
            raise ValueError(f"{self.name}: entity {entity_id} holds no units")
        now = self.sim.now
        if now > self._last_ts:
            self.stats.busy_time_integral += self.busy * (now - self._last_ts)
            self._last_ts = now
        self.busy -= units
        if self.queue:
            self._dispatch()

    def _dispatch(self) -> None:
        # Grant from the head while it fits; never look past a blocked head.
        queue = self.queue
        if not queue or self.busy + queue[0].units > self.capacity:
            return
        # The clock stands still through the grants, so one advance of the
        # integral covers them all. A grant callback may re-enter this pool
        # (request, release, reset), so busy and stats are read afresh.
        self._advance_integral()
        now = self.sim.now
        held = self._held
        while queue and self.busy + queue[0].units <= self.capacity:
            req = queue.popleft()
            entry = req.timer
            due = entry[3][0]
            due.remove(req)
            if not due:
                entry.cancel()
                if self.sim._renege_entry is entry:
                    self.sim._renege_entry = None
            self.busy += req.units
            held[req.entity_id] = held.get(req.entity_id, 0) + req.units
            wait = now - req.enqueue_time
            if req.counted:
                self.stats.served_waits.append(wait)
            req.on_grant(wait)

    def _renege_due(self, due: list[PendingRequest]) -> None:
        # A renege entry fires: renege its still-queued requests, of any
        # pool, in join order. The list shrinks as they go, and as callbacks
        # grant any of them. A fired entry is never empty (the last grant
        # cancels it), and from now on no request may join it.
        if self.sim._renege_entry is due[0].timer:
            self.sim._renege_entry = None
        while due:
            req = due.pop(0)
            req.pool._renege(req)

    def _renege(self, req: PendingRequest) -> None:
        # The request held its entry, which held the request: dropping the
        # entry spares the garbage collector a reference cycle per renege.
        req.timer = None
        self.queue.remove(req)
        if req.counted:
            self.stats.renege_count += 1
        req.on_renege()
        # Removing a blocked head can unblock smaller requests behind it.
        self._dispatch()
