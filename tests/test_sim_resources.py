"""Unit tests for Resource / Condition (repro.sim.resources)."""

import pytest

from repro.sim import Condition, Resource, Simulator


def test_resource_uncontended_acquire_is_immediate():
    sim = Simulator()
    res = Resource(sim)

    def proc():
        yield from res.acquire()
        t = sim.now
        res.release()
        return t

    p = sim.spawn(proc())
    sim.run()
    assert p.result == 0


def test_resource_serializes_fifo():
    sim = Simulator()
    res = Resource(sim)
    order = []

    def proc(name):
        yield from res.acquire()
        order.append((name, sim.now))
        yield 10
        res.release()

    for name in ("a", "b", "c"):
        sim.spawn(proc(name))
    sim.run()
    assert order == [("a", 0), ("b", 10), ("c", 20)]


def test_resource_capacity_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    starts = []

    def proc():
        yield from res.acquire()
        yield 10
        res.release()
        starts.append(sim.now)

    for _ in range(4):
        sim.spawn(proc())
    sim.run()
    # two run concurrently, the next two wait one service time
    assert starts == [10, 10, 20, 20]


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_wait_stats():
    sim = Simulator()
    res = Resource(sim)

    def holder():
        yield from res.acquire()
        yield 50
        res.release()

    def waiter():
        yield from res.acquire()
        yield 1
        res.release()

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert res.total_acquisitions == 2
    assert res.total_wait_cycles == 50


def test_resource_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_condition_wakes_only_current_waiters():
    sim = Simulator()
    cond = Condition(sim)
    woken = []

    def waiter(name, delay):
        yield delay
        yield from cond.wait()
        woken.append((name, sim.now))

    def notifier():
        yield 10
        cond.notify_all()
        yield 10
        cond.notify_all()

    sim.spawn(waiter("early", 0))   # woken by first notify (t=10)
    sim.spawn(waiter("late", 15))   # woken by second notify (t=20)
    sim.spawn(notifier())
    sim.run()
    assert woken == [("early", 10), ("late", 20)]


def test_condition_is_rearmable():
    sim = Simulator()
    cond = Condition(sim)
    count = []

    def waiter():
        for _ in range(3):
            yield from cond.wait()
            count.append(sim.now)

    def notifier():
        for t in (5, 9, 14):
            while sim.now < t:
                yield t - sim.now
            cond.notify_all()

    sim.spawn(waiter())
    sim.spawn(notifier())
    sim.run()
    assert count == [5, 9, 14]


@pytest.mark.parametrize("capacity", [1, 2])
def test_try_acquire_and_acquire_agree_under_a_queued_waiter(capacity):
    """The non-generator fast path and the generator path grant the same
    slots in the same FIFO order with the same counts; a refused
    try_acquire holds and counts nothing."""

    def scenario(fast_path):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        order, refused = [], []

        def user(name, start, hold):
            yield start
            if fast_path:
                if not res.try_acquire():
                    refused.append((name, res.in_use))
                    yield from res.acquire()
            else:
                yield from res.acquire()
            order.append((name, sim.now))
            yield hold
            res.release()

        for i, name in enumerate("abcdef"):
            sim.spawn(user(name, i // 2, 5 + i))
        sim.run()
        assert res.in_use == 0 and res.queue_length == 0
        return order, res.total_acquisitions, res.total_wait_cycles, refused

    slow = scenario(False)
    fast = scenario(True)
    assert fast[:3] == slow[:3]
    assert fast[1] == 6 and fast[2] > 0
    # exactly the users that queued were refused, each at a full resource
    assert [n for n, _ in fast[3]] == [n for n, _ in fast[0][capacity:]]
    assert all(in_use == capacity for _, in_use in fast[3])


def test_try_acquire_refuses_without_side_effects_while_held():
    sim = Simulator()
    res = Resource(sim)
    assert res.try_acquire()
    sim.spawn(res.acquire(), daemon=True)  # queues behind the holder
    sim.run()
    assert not res.try_acquire()
    assert (res.in_use, res.queue_length, res.total_acquisitions) == (1, 1, 2)
    res.release()  # the slot passes straight to the queued waiter
    assert (res.in_use, res.queue_length) == (1, 0)
    assert not res.try_acquire()
