"""Kernel contract tests: event ordering, cancellation, horizon-bounded
execution, multi-unit seize with strict FIFO, deadline reneging, and the
busy-time integral."""

import math
import re
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheltersim.kernel import Resource, ResourceWindowStats, Simulator


def test_schedule_fires_at_time():
    sim = Simulator()
    fired = []
    sim.run_until(3.0)
    sim.schedule(5.0, fired.append, "a")
    sim.run_until(10.0)
    assert fired == ["a"]
    assert sim.now == 10.0


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "A")
    sim.schedule(5.0, fired.append, "B")
    sim.run_until(5.0)
    assert fired == ["A", "B"]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(5.0, fired.append, "a")
    handle.cancel()
    sim.run_until(10.0)
    assert fired == []


def test_scheduling_in_the_past_is_an_error():
    sim = Simulator()
    sim.run_until(4.0)
    with pytest.raises(ValueError):
        sim.schedule(3.0, lambda: None)


def test_nan_times_are_errors():
    sim = Simulator()
    sim.run_until(4.0)
    with pytest.raises(ValueError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(ValueError):
        sim.run_until(float("nan"))
    assert sim.now == 4.0
    assert sim._heap == []


def test_run_until_empty_calendar_advances_clock():
    sim = Simulator()
    assert sim.run_until(365.0) == 365.0
    assert sim.now == 365.0


def test_run_until_stops_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, 10)
    sim.schedule(20.0, fired.append, 20)
    sim.run_until(15.0)
    assert fired == [10]
    assert sim.now == 15.0
    sim.run_until(25.0)
    assert fired == [10, 20]


def test_cascading_events_within_horizon():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(12.0, lambda: fired.append("second"))

    sim.schedule(10.0, first)
    sim.run_until(15.0)
    assert fired == ["first", "second"]


def test_run_until_backwards_is_an_error():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(ValueError):
        sim.run_until(4.0)


# -- fed arrivals -----------------------------------------------------------


def test_a_fed_arrival_fires_before_every_entry_due_at_its_instant():
    # Arrivals take no seq: at t=1 arrival 0 fires before "before" and
    # "fed", scheduled before and after the feed; at t=5 arrival 1 fires
    # before "during", scheduled while arrival 0 ran, and "after".
    sim = Simulator()
    fired = []

    def arrive(i):
        fired.append(("arrival", i))
        if i == 0:
            sim.schedule(5.0, fired.append, "during")

    sim.schedule(1.0, fired.append, "before")
    sim.feed([1.0, 5.0], arrive)
    sim.schedule(1.0, fired.append, "fed")
    sim.schedule(2.0, lambda: sim.schedule(5.0, fired.append, "after"))
    sim.run_until(10.0)
    assert fired == [("arrival", 0), "before", "fed", ("arrival", 1), "during", "after"]


def test_a_renege_entry_is_joined_across_a_fed_arrival():
    # Arrival 0 queues x, due at 5; y, queued at t=2 and due at 5 too, joins
    # x's entry, since arrival 1, also at 5, fires before both either way.
    sim = Simulator()
    pool = Resource(sim, "pool", 1)
    rec = Recorder()
    log = []
    pool.request("holder", 1, 1.0, rec.on_grant("holder"), rec.on_renege("holder"))

    def arrive(i):
        if i == 0:
            pool.request("x", 1, 5.0, rec.on_grant("x"), _log_renege(log, sim, "x"))
        else:
            log.append(("arrival", [req.entity for req in pool.queue]))

    sim.feed([0.0, 5.0], arrive)
    sim.schedule(2.0, pool.request, "y", 1, 3.0, rec.on_grant("y"), _log_renege(log, sim, "y"))
    sim.run_until(10.0)
    assert log == [("arrival", ["x", "y"]), ("x", 5.0), ("y", 5.0)]
    assert sim._seq == 2  # the t=2 event and the one shared renege entry


def test_feeding_carries_on_across_run_until_calls():
    # An arrival at exactly t_end fires in that call, as a scheduled event
    # would: an arrival at the end of the warm-up belongs to the warm-up.
    sim = Simulator()
    fired = []
    sim.feed([1.0, 3.0, 5.0], lambda i: fired.append((i, sim.now)))
    sim.run_until(3.0)
    assert fired == [(0, 1.0), (1, 3.0)]
    sim.run_until(4.0)
    assert fired == [(0, 1.0), (1, 3.0)]
    sim.run_until(10.0)
    assert fired == [(0, 1.0), (1, 3.0), (2, 5.0)]
    assert sim.now == 10.0


def test_calendar_drains_after_the_feed_runs_out():
    sim = Simulator()
    fired = []

    def arrive(i):
        fired.append(("arrival", i))
        sim.schedule(4.0, fired.append, "a")
        sim.schedule(8.0, fired.append, "b")

    sim.feed([1.0], arrive)
    sim.run_until(10.0)
    assert fired == [("arrival", 0), "a", "b"]
    assert not sim._heap


def test_an_empty_feed_feeds_nothing():
    sim = Simulator()
    fired = []
    sim.feed(array("d"), fired.append)
    sim.schedule(1.0, fired.append, "a")
    sim.run_until(10.0)
    assert fired == ["a"]
    # It took no seq: the entry above got the first.
    assert sim._seq == 1


def test_a_fed_time_before_the_clock_is_an_error():
    # feed() checks every time at once and installs no feed it rejects.
    sim = Simulator()
    sim.run_until(2.0)
    fired = []
    message = "feed times must ascend from the clock t=2.0, got t={} after t={}"
    with pytest.raises(ValueError, match=message.format(1.0, 2.0)):
        sim.feed([1.0], fired.append)
    with pytest.raises(ValueError, match=message.format(2.5, 3.0)):
        sim.feed([3.0, 2.5], fired.append)
    with pytest.raises(ValueError, match=message.format("nan", 3.0)):
        sim.feed([3.0, float("nan")], fired.append)
    sim.run_until(10.0)
    assert fired == []


@settings(max_examples=200, deadline=None)
@given(feed=st.lists(st.integers(0, 8), max_size=8).map(sorted),
       before=st.lists(st.integers(0, 8), max_size=8),
       offsets=st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=16),
       t_mid=st.integers(0, 10))
def test_events_fire_by_time_then_arrivals_first_then_seq(feed, before, offsets, t_mid):
    # Integer times make ties common between the three sources: the feed,
    # entries scheduled before the run, and the entries the k-th event to
    # fire schedules at offsets[k] from its time. Keys are (time, 0, index)
    # for an arrival and (time, 1, seq) for an entry, seq counting the
    # schedule calls alone.
    sim = Simulator()
    arrivals = [(float(t), 0, i) for i, t in enumerate(feed)]
    scheduled = []
    fired = []

    def schedule(time):
        key = (float(time), 1, len(scheduled))
        scheduled.append(key)
        assert sim.schedule(time, fire, key)[1] == key[2]

    def fire(key):
        assert sim.now == key[0]
        k = len(fired)
        fired.append(key)
        for offset in offsets[k] if k < len(offsets) else ():
            schedule(sim.now + offset)

    for time in before:
        schedule(time)
    sim.feed([key[0] for key in arrivals], lambda i: fire(arrivals[i]))
    sim.run_until(t_mid)
    assert fired == sorted(key for key in arrivals + scheduled if key[0] <= t_mid)
    sim.run_until(100.0)
    assert fired == sorted(arrivals + scheduled)
    assert sim._seq == len(scheduled)


# -- resources ---------------------------------------------------------------


class Recorder:
    """Collects grant/renege outcomes keyed by a label."""

    def __init__(self):
        self.grants = []
        self.reneges = []

    def on_grant(self, label):
        def callback(entity, pool, wait):
            self.grants.append((label, wait))
        return callback

    def on_renege(self, label):
        def callback(entity, pool):
            self.reneges.append(label)
        return callback


def test_immediate_grant_when_free():
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    res.request("a", 1, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    assert rec.grants == [("a", 0.0)]
    assert res.busy == 1
    # The immediate grant queues nothing and schedules nothing.
    assert not res.queue
    assert sim._seq == 0 and not sim._heap


def test_grant_after_wait():
    # Capacity 1 held until t=4; a request at t=0 with patience 7 waits 4 days.
    sim = Simulator()
    res = Resource(sim, "pool", 1)
    rec = Recorder()
    res.request("holder", 1, 1.0, rec.on_grant("holder"), rec.on_renege("holder"))
    sim.schedule(4.0, res.release, "holder")
    sim.schedule(0.0, res.request, "waiter", 1, 7.0,
                 rec.on_grant("waiter"), rec.on_renege("waiter"))
    sim.run_until(10.0)
    assert rec.grants == [("holder", 0.0), ("waiter", 4.0)]
    assert rec.reneges == []


def test_renege_at_exact_deadline():
    # Capacity 1 held until t=10; a request at t=0 with patience 7 leaves at 7.
    sim = Simulator()
    res = Resource(sim, "pool", 1)
    rec = Recorder()
    events = []
    res.request("holder", 1, 1.0, rec.on_grant("holder"), rec.on_renege("holder"))
    sim.schedule(10.0, res.release, "holder")
    sim.schedule(0.0, res.request, "waiter", 1, 7.0,
                 rec.on_grant("waiter"),
                 lambda entity, pool: events.append(("reneged", sim.now)))
    sim.run_until(20.0)
    assert events == [("reneged", 7.0)]
    assert [label for label, _ in rec.grants] == ["holder"]
    assert res.window_stats().reneges == 1


def test_multi_unit_head_blocks_smaller_request_behind():
    # Capacity 3, busy 3; queue = [head wants 2, second wants 1].
    # Releasing 1 unit grants nobody: the head does not fit and FIFO is strict.
    sim = Simulator()
    res = Resource(sim, "pool", 3)
    rec = Recorder()
    res.request("h1", 1, 100.0, rec.on_grant("h1"), rec.on_renege("h1"))
    res.request("h2", 2, 100.0, rec.on_grant("h2"), rec.on_renege("h2"))
    res.request("big", 2, 100.0, rec.on_grant("big"), rec.on_renege("big"))
    res.request("small", 1, 100.0, rec.on_grant("small"), rec.on_renege("small"))
    assert [label for label, _ in rec.grants] == ["h1", "h2"]

    sim.schedule(5.0, res.release, "h1")
    sim.run_until(5.0)
    # Hand trace: busy 2 after the release, head needs 2, 2+2 > 3, so the
    # queue must not move even though "small" would fit.
    assert [label for label, _ in rec.grants] == ["h1", "h2"]
    assert res.busy == 2
    assert len(res.queue) == 2

    sim.schedule(6.0, res.release, "h2")
    sim.run_until(6.0)
    # Now both fit, in order.
    assert rec.grants == [("h1", 0.0), ("h2", 0.0), ("big", 6.0), ("small", 6.0)]
    assert res.busy == 3


def test_head_renege_unblocks_fitting_request_behind():
    sim = Simulator()
    res = Resource(sim, "pool", 3)
    rec = Recorder()
    res.request("holder", 2, 100.0, rec.on_grant("holder"), rec.on_renege("holder"))
    res.request("big", 2, 4.0, rec.on_grant("big"), rec.on_renege("big"))
    res.request("small", 1, 100.0, rec.on_grant("small"), rec.on_renege("small"))
    sim.run_until(10.0)
    # "big" reneges at t=4; "small" fits at the same instant.
    assert rec.reneges == ["big"]
    assert rec.grants == [("holder", 0.0), ("small", 4.0)]


def test_release_decrements_and_regrants():
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    res.request("a", 2, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    res.request("b", 1, 50.0, rec.on_grant("b"), rec.on_renege("b"))
    sim.schedule(3.0, res.release, "a")
    sim.run_until(3.0)
    assert res.busy == 1
    assert rec.grants == [("a", 0.0), ("b", 3.0)]
    assert res.served_waits == [0.0, 3.0]


def test_release_with_empty_queue_grants_nothing():
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    res.request("a", 1, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    res.release("a")
    assert res.busy == 0
    assert rec.grants == [("a", 0.0)]


def test_release_by_an_entity_holding_nothing_is_an_error():
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    res.request("a", 1, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    with pytest.raises(ValueError, match="pool: entity b holds no units"):
        res.release("b")
    assert res.busy == 1
    assert res._held == {"a": 1}


@pytest.mark.parametrize("capacity", [-1, 1.5, float("inf"), float("nan")])
def test_capacity_must_be_a_non_negative_integer(capacity):
    with pytest.raises(ValueError, match="pool: capacity must be a non-negative integer"):
        Resource(Simulator(), "pool", capacity)


def test_unsatisfiable_request_is_an_error():
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    with pytest.raises(ValueError):
        res.request("a", 3, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    with pytest.raises(ValueError):
        res.request("a", 0, 5.0, rec.on_grant("a"), rec.on_renege("a"))


def test_utilization_fully_held():
    sim = Simulator()
    res = Resource(sim, "pool", 1)
    rec = Recorder()
    res.request("a", 1, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    sim.run_until(10.0)
    assert res.window_stats().utilization == 1.0


def test_utilization_half_window_one_of_two_units():
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    res.request("a", 1, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    sim.schedule(5.0, res.release, "a")
    sim.run_until(10.0)
    assert res.window_stats().utilization == pytest.approx(0.25)


def test_utilization_of_zero_capacity_is_none():
    sim = Simulator()
    res = Resource(sim, "pool", 0)
    sim.run_until(10.0)
    assert res.window_stats().utilization is None


def test_utilization_of_an_empty_window_is_none():
    sim = Simulator()
    res = Resource(sim, "pool", 1)
    sim.run_until(10.0)
    res.reset_statistics()
    assert res.window_stats().utilization is None


def test_window_stats():
    sim = Simulator()
    res = Resource(sim, "pool", 1)
    rec = Recorder()
    res.request("a", 1, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    sim.run_until(10.0)
    first = res.window_stats()
    assert first == ResourceWindowStats(requests=1, served=1, reneges=0, still_queued=0,
                                        avg_wait=0.0, max_wait=0.0, utilization=1.0)
    # A second read at the same clock adds nothing to the busy-time integral.
    assert res.window_stats() == first
    res.reset_statistics()
    assert res.window_stats() == ResourceWindowStats(0, 0, 0, 0, None, None, None)
    sim.run_until(12.0)
    assert res.window_stats().utilization == 1.0


def test_statistics_reset_discards_warmup_counts():
    sim = Simulator()
    res = Resource(sim, "pool", 1)
    rec = Recorder()
    res.request("w", 1, 5.0, rec.on_grant("w"), rec.on_renege("w"))
    # Queued during warm-up, granted inside the window: must not be counted.
    res.request("q", 1, 100.0,
                lambda entity, pool, wait: sim.schedule(sim.now + 2.0, res.release, "q"),
                rec.on_renege("q"))
    sim.run_until(10.0)
    res.reset_statistics()
    assert res.window_stats() == ResourceWindowStats(0, 0, 0, 0, None, None, None)
    assert res.busy_time_integral == 0.0
    sim.schedule(12.0, res.release, "w")
    sim.run_until(20.0)
    w = res.window_stats()
    assert (w.requests, w.served, w.reneges, w.still_queued) == (0, 0, 0, 0)
    # The unit was held 10-12 by "w" and 12-14 by "q" within the 10-day window.
    assert w.utilization == pytest.approx(0.4)


def test_request_conservation_identity():
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    res.request("a", 2, 1.0, rec.on_grant("a"), rec.on_renege("a"))
    res.request("b", 1, 3.0, rec.on_grant("b"), rec.on_renege("b"))
    res.request("c", 1, 100.0, rec.on_grant("c"), rec.on_renege("c"))
    sim.schedule(50.0, res.release, "a")
    sim.run_until(60.0)
    w = res.window_stats()
    assert w.requests == w.served + w.reneges + w.still_queued
    assert w.requests == 3
    assert w.reneges == 1  # "b" at t=3
    assert w.served == 2  # "a" immediately, "c" at t=50


@pytest.mark.parametrize("patience", [float("nan"), -1.0, float("-inf")])
def test_bad_patience_is_rejected_before_it_is_counted(patience):
    # "x" would be granted at once on the empty pool and "b" would queue
    # behind "a": neither may count, hold, queue or schedule anything.
    sim = Simulator()
    res = Resource(sim, "pool", 1)
    rec = Recorder()
    message = re.escape(f"pool: patience must be >= 0, got {patience}")

    def reject(label):
        with pytest.raises(ValueError, match=message):
            res.request(label, 1, patience, rec.on_grant(label), rec.on_renege(label))
        w = res.window_stats()
        assert w.requests == w.served + w.reneges + w.still_queued

    reject("x")
    res.request("a", 1, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    reject("b")
    assert res.window_stats().requests == 1
    assert rec.grants == [("a", 0.0)] and rec.reneges == []
    assert res.held_by("x") == res.held_by("b") == 0
    assert not res.queue and not sim._heap


@pytest.mark.parametrize("units", [float("nan"), 1.5, 0, -1, float("inf")])
def test_bad_units_are_rejected_before_they_are_counted(units):
    # On the empty pool "x" would be granted or queued; queued behind "a" so
    # would "b". Neither may count, hold, queue, schedule or block "c".
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    message = re.escape(f"pool: requested units must be a whole number >= 1, got {units}")

    def reject(label):
        with pytest.raises(ValueError, match=message):
            res.request(label, units, 5.0, rec.on_grant(label), rec.on_renege(label))
        w = res.window_stats()
        assert w.requests == w.served + w.reneges + w.still_queued

    reject("x")
    res.request("a", 2, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    reject("b")
    assert res.window_stats().requests == 1 and res.busy == 2
    assert res.held_by("x") == res.held_by("b") == 0
    assert not res.queue and not sim._heap
    res.release("a")
    res.request("c", 1, 5.0, rec.on_grant("c"), rec.on_renege("c"))
    assert rec.grants == [("a", 0.0), ("c", 0.0)] and rec.reneges == []


# -- shared renege entries ----------------------------------------------------


def _log_renege(log, sim, label):
    return lambda entity, pool: log.append((label, sim.now))


def test_one_entity_shares_a_renege_entry_across_pools():
    # Three full pools; one entity queues in each with the same patience.
    # Their three deadlines are one calendar entry beside the release.
    sim = Simulator()
    pools = [Resource(sim, name, 1) for name in ("a", "b", "c")]
    rec = Recorder()
    log = []
    for pool in pools:
        pool.request("holder", 1, 1.0, rec.on_grant("holder"), rec.on_renege("holder"))
    sim.schedule(2.0, pools[1].release, "holder")
    for pool in pools:
        pool.request("y", 1, 5.0, rec.on_grant(pool.name), _log_renege(log, sim, pool.name))
    assert len(sim._heap) == 2
    sim.run_until(10.0)
    # The middle request is granted at the release; the others renege at
    # their deadline, in request order.
    assert rec.grants[3:] == [("b", 2.0)]
    assert log == [("a", 5.0), ("c", 5.0)]
    assert [pool.window_stats().reneges for pool in pools] == [1, 0, 1]
    assert all(not pool.queue for pool in pools)


def test_equal_deadlines_share_an_entry_only_when_scheduled_back_to_back():
    sim = Simulator()
    pool = Resource(sim, "pool", 1)
    rec = Recorder()
    log = []
    pool.request("holder", 1, 1.0, rec.on_grant("holder"), rec.on_renege("holder"))
    pool.request("x", 1, 5.0, rec.on_grant("x"), _log_renege(log, sim, "x"))
    pool.request("y", 1, 5.0, rec.on_grant("y"), _log_renege(log, sim, "y"))
    assert len(sim._heap) == 1
    # An event scheduled in between sorts after x and y and before z, so z
    # needs an entry of its own.
    sim.schedule(5.0, lambda: log.append(("between", sim.now)))
    pool.request("z", 1, 5.0, rec.on_grant("z"), _log_renege(log, sim, "z"))
    assert len(sim._heap) == 3
    sim.run_until(10.0)
    assert log == [("x", 5.0), ("y", 5.0), ("between", 5.0), ("z", 5.0)]
    assert pool.window_stats().reneges == 3


def test_request_after_a_fired_entry_gets_its_own():
    # run_until stops at the instant a shared entry fired; a request with
    # patience 0 made then is due at that entry's time, right after it in
    # seq order, but must not join it: it would never renege.
    sim = Simulator()
    pool = Resource(sim, "pool", 1)
    rec = Recorder()
    log = []
    pool.request("holder", 1, 1.0, rec.on_grant("holder"), rec.on_renege("holder"))
    pool.request("x", 1, 5.0, rec.on_grant("x"), _log_renege(log, sim, "x"))
    pool.request("y", 1, 5.0, rec.on_grant("y"), _log_renege(log, sim, "y"))
    sim.run_until(5.0)
    assert log == [("x", 5.0), ("y", 5.0)]
    pool.request("z", 1, 0.0, rec.on_grant("z"), _log_renege(log, sim, "z"))
    sim.run_until(5.0)
    assert log[2:] == [("z", 5.0)]
    assert not pool.queue
    assert pool.window_stats().reneges == 3


def test_request_from_a_firing_entry_gets_its_own():
    # A renege callback that queues again with patience 0 is due at the
    # firing entry's time; it reneges after the entry's own requests.
    sim = Simulator()
    pool = Resource(sim, "pool", 1)
    rec = Recorder()
    log = []

    def x_reneged(entity, pool):
        log.append(("x", sim.now))
        pool.request("z", 1, 0.0, rec.on_grant("z"), _log_renege(log, sim, "z"))

    pool.request("holder", 1, 1.0, rec.on_grant("holder"), rec.on_renege("holder"))
    pool.request("x", 1, 5.0, rec.on_grant("x"), x_reneged)
    pool.request("y", 1, 5.0, rec.on_grant("y"), _log_renege(log, sim, "y"))
    sim.run_until(5.0)
    assert log == [("x", 5.0), ("y", 5.0), ("z", 5.0)]
    assert not pool.queue


def test_request_due_with_an_entry_whose_requests_were_all_granted_reneges():
    # Every request of x's entry is granted before y, due at the same time
    # right after, queues; y must renege at 5.0, whether or not it joined.
    sim = Simulator()
    pool = Resource(sim, "pool", 1)
    rec = Recorder()
    log = []
    pool.request("holder", 1, 1.0, rec.on_grant("holder"), rec.on_renege("holder"))
    pool.request("x", 1, 5.0, rec.on_grant("x"), _log_renege(log, sim, "x"))
    pool.release("holder")
    assert rec.grants == [("holder", 0.0), ("x", 0.0)]
    pool.request("y", 1, 5.0, rec.on_grant("y"), _log_renege(log, sim, "y"))
    sim.run_until(10.0)
    assert log == [("y", 5.0)]
    assert pool.window_stats().reneges == 1


def test_back_to_back_requests_due_now_get_an_entry_each():
    # A deadline at the clock is never later than now, so even a request
    # scheduled right after an entry due at its deadline gets its own.
    sim = Simulator()
    pool = Resource(sim, "pool", 1)
    rec = Recorder()
    log = []
    pool.request("holder", 1, 1.0, rec.on_grant("holder"), rec.on_renege("holder"))
    pool.request("x", 1, 0.0, rec.on_grant("x"), _log_renege(log, sim, "x"))
    pool.request("y", 1, 0.0, rec.on_grant("y"), _log_renege(log, sim, "y"))
    assert len(sim._heap) == 2
    sim.run_until(0.0)
    assert log == [("x", 0.0), ("y", 0.0)]
    assert not pool.queue


# A step of a pool script: the clock advances by ``dt`` and then a list of
# operations runs. ``("request", pool, entity, units, patience, retry)``
# queues again with patience ``retry`` on a renege unless it is None;
# ``("release", pool, entity)`` applies only to an entity holding units;
# ``("mark", delay)`` schedules a log entry ``delay`` days ahead.
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_PATIENCE = st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf])
_OPERATION = st.one_of(
    st.tuples(st.just("request"), st.integers(0, 2), st.integers(0, 4),
              st.integers(1, 3), _PATIENCE, st.none() | _PATIENCE),
    st.tuples(st.just("release"), st.integers(0, 2), st.integers(0, 4)),
    st.tuples(st.just("mark"), _TIMES),
)


def _run_pool_script(capacities, steps, separate_entries):
    # With ``separate_entries`` no request may join the previous renege
    # entry, so every queued request gets an entry of its own.
    sim = Simulator()
    pools = [Resource(sim, f"p{i}", capacity) for i, capacity in enumerate(capacities)]
    log = []

    def request(pool, entity, units, patience, retry):
        units = min(units, pool.capacity)

        def on_grant(entity, pool, wait):
            log.append(("grant", pool.name, entity, sim.now, wait))

        def on_renege(entity, pool):
            log.append(("renege", pool.name, entity, sim.now))
            if retry is not None:
                request(pool, entity, units, retry, None)

        if separate_entries:
            sim._renege_entry = None
        pool.request(entity, units, patience, on_grant, on_renege)

    def assert_ledgers_hold():
        # Both grant paths, immediate and from the queue, keep the ledger.
        for pool in pools:
            assert pool.busy == sum(pool._held.values()) <= pool.capacity, pool.name

    for dt, operations in steps:
        sim.run_until(sim.now + dt)
        assert_ledgers_hold()
        for op, *args in operations:
            if op == "mark":
                sim.schedule(sim.now + args[0], log.append, ("mark", sim.now + args[0]))
                continue
            pool = pools[args[0] % len(pools)]
            if op == "request":
                request(pool, *args[1:])
            elif pool.held_by(args[1]):
                pool.release(args[1])
            assert_ledgers_hold()
    sim.run_until(sim.now + 5.0)
    assert_ledgers_hold()
    windows = [pool.window_stats() for pool in pools]
    for window in windows:
        assert window.requests == window.served + window.reneges + window.still_queued
    return log, windows


@settings(max_examples=300, deadline=None)
@given(capacities=st.lists(st.integers(1, 3), min_size=2, max_size=3),
       steps=st.lists(st.tuples(_TIMES, st.lists(_OPERATION, max_size=6)), max_size=12))
def test_shared_renege_entries_act_as_one_entry_per_request(capacities, steps):
    assert (_run_pool_script(capacities, steps, separate_entries=False)
            == _run_pool_script(capacities, steps, separate_entries=True))
