"""Kernel contract tests: event ordering, cancellation, horizon-bounded
execution, multi-unit seize with strict FIFO, deadline reneging, and the
busy-time integral."""

import pytest

from sheltersim.kernel import Resource, Simulator


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


# -- resources ---------------------------------------------------------------


class Recorder:
    """Collects grant/renege outcomes keyed by a label."""

    def __init__(self):
        self.grants = []
        self.reneges = []

    def on_grant(self, label):
        def callback(wait):
            self.grants.append((label, wait))
        return callback

    def on_renege(self, label):
        def callback():
            self.reneges.append(label)
        return callback


def test_immediate_grant_when_free():
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    res.request("a", 1, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    assert rec.grants == [("a", 0.0)]
    assert res.busy == 1


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
                 lambda: events.append(("reneged", sim.now)))
    sim.run_until(20.0)
    assert events == [("reneged", 7.0)]
    assert [label for label, _ in rec.grants] == ["holder"]
    assert res.stats.renege_count == 1


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
    assert res.stats.served_waits == [0.0, 3.0]


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
    assert res.utilization() == 1.0


def test_utilization_half_window_one_of_two_units():
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    res.request("a", 1, 5.0, rec.on_grant("a"), rec.on_renege("a"))
    sim.schedule(5.0, res.release, "a")
    sim.run_until(10.0)
    assert res.utilization() == pytest.approx(0.25)


def test_utilization_of_zero_capacity_is_none():
    sim = Simulator()
    res = Resource(sim, "pool", 0)
    sim.run_until(10.0)
    assert res.utilization() is None


def test_utilization_of_an_empty_window_is_none():
    sim = Simulator()
    res = Resource(sim, "pool", 1)
    sim.run_until(10.0)
    res.reset_statistics()
    assert res.utilization() is None


def test_statistics_reset_discards_warmup_counts():
    sim = Simulator()
    res = Resource(sim, "pool", 1)
    rec = Recorder()
    res.request("w", 1, 5.0, rec.on_grant("w"), rec.on_renege("w"))
    # Queued during warm-up, granted inside the window: must not be counted.
    res.request("q", 1, 100.0,
                lambda wait: sim.schedule(sim.now + 2.0, res.release, "q"),
                rec.on_renege("q"))
    sim.run_until(10.0)
    res.reset_statistics()
    assert res.stats.request_count == 0
    assert res.stats.busy_time_integral == 0.0
    sim.schedule(12.0, res.release, "w")
    sim.run_until(20.0)
    assert res.stats.served_waits == []
    assert res.stats.renege_count == 0
    # The unit was held 10-12 by "w" and 12-14 by "q" within the 10-day window.
    assert res.utilization() == pytest.approx(0.4)


def test_request_conservation_identity():
    sim = Simulator()
    res = Resource(sim, "pool", 2)
    rec = Recorder()
    res.request("a", 2, 1.0, rec.on_grant("a"), rec.on_renege("a"))
    res.request("b", 1, 3.0, rec.on_grant("b"), rec.on_renege("b"))
    res.request("c", 1, 100.0, rec.on_grant("c"), rec.on_renege("c"))
    sim.schedule(50.0, res.release, "a")
    sim.run_until(60.0)
    s = res.stats
    assert s.request_count == len(s.served_waits) + s.renege_count + res.still_queued_counted()
    assert s.request_count == 3
    assert s.renege_count == 1  # "b" at t=3
    assert len(s.served_waits) == 2  # "a" immediately, "c" at t=50


# -- shared renege entries ----------------------------------------------------


def _log_renege(log, sim, label):
    return lambda: log.append((label, sim.now))


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
    assert [pool.stats.renege_count for pool in pools] == [1, 0, 1]
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
    assert pool.stats.renege_count == 3


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
    assert pool.stats.renege_count == 3


def test_request_from_a_firing_entry_gets_its_own():
    # A renege callback that queues again with patience 0 is due at the
    # firing entry's time; it reneges after the entry's own requests.
    sim = Simulator()
    pool = Resource(sim, "pool", 1)
    rec = Recorder()
    log = []

    def x_reneged():
        log.append(("x", sim.now))
        pool.request("z", 1, 0.0, rec.on_grant("z"), _log_renege(log, sim, "z"))

    pool.request("holder", 1, 1.0, rec.on_grant("holder"), rec.on_renege("holder"))
    pool.request("x", 1, 5.0, rec.on_grant("x"), x_reneged)
    pool.request("y", 1, 5.0, rec.on_grant("y"), _log_renege(log, sim, "y"))
    sim.run_until(5.0)
    assert log == [("x", 5.0), ("y", 5.0), ("z", 5.0)]
    assert not pool.queue


def test_entry_whose_requests_were_all_granted_is_not_joined():
    # Every request of the entry is granted, which cancels it; a request due
    # at the same time right after must still renege.
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
    assert pool.stats.renege_count == 1
