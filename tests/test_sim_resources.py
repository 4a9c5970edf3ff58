"""Unit tests for repro.sim.resources."""

import pytest

from repro.hw.dram import DramPool
from repro.sim import Environment, Resource, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_capacity_enforced():
    env = Environment()
    res = Resource(env, capacity=2)
    active = []
    peak = []

    def worker(env, res, i):
        with res.request() as req:
            yield req
            active.append(i)
            peak.append(len(active))
            yield env.timeout(1)
            active.remove(i)

    for i in range(5):
        env.process(worker(env, res, i))
    env.run()
    assert max(peak) == 2


def test_resource_fifo_grant_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, res, i):
        with res.request() as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    for i in range(4):
        env.process(worker(env, res, i))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_release_requeues():
    env = Environment()
    res = Resource(env, capacity=1)

    def first(env, res):
        req = res.request()
        yield req
        yield env.timeout(5)
        res.release(req)

    times = []

    def second(env, res):
        yield env.timeout(1)
        with res.request() as req:
            yield req
            times.append(env.now)

    env.process(first(env, res))
    env.process(second(env, res))
    env.run()
    assert times == [5]


def test_resource_count_and_capacity():
    env = Environment()
    res = Resource(env, capacity=3)
    assert res.capacity == 3
    req = res.request()
    env.run()
    assert res.count == 1
    res.release(req)
    assert res.count == 0


def test_resource_double_release_noop():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req)
    res.release(req)  # must not raise or corrupt state
    assert res.count == 0


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    env.run()
    queued = res.request()
    queued.cancel()
    assert len(res.queue) == 0
    res.release(held)
    assert res.count == 0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_context_manager_releases_on_interrupt():
    from repro.sim import Interrupt

    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        with res.request() as req:
            yield req
            try:
                yield env.timeout(100)
            except Interrupt:
                pass  # with-block still releases

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt()

    victim = env.process(holder(env, res))
    env.process(interrupter(env, victim))

    grabbed = []

    def later(env, res):
        yield env.timeout(2)
        with res.request() as req:
            yield req
            grabbed.append(env.now)

    env.process(later(env, res))
    env.run()
    assert grabbed == [2]


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    for i in range(3):
        store.put(i)
    env.process(consumer(env, store))
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, store):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env, store):
        yield env.timeout(4)
        store.put("late")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert got == [(4, "late")]


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put("x")
    env.run()
    assert len(store) == 1


def test_store_many_items_order_preserved():
    env = Environment()
    store = Store(env)
    n = 200
    got = []

    def producer(env):
        for i in range(n):
            store.put(i)
            if i % 7 == 0:
                yield env.timeout(0.001)

    def consumer(env):
        for _ in range(n):
            got.append((yield store.get()))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == list(range(n))


# ---------------------------------------------------------------------------
# Container: the DRAM pool is the one level-based resource (an allocation
# takes bytes from the level, a free puts them back)
# ---------------------------------------------------------------------------

def test_container_basic_put_get():
    env = Environment()
    pool = DramPool(env, 10)
    levels = []

    def proc(env):
        a = yield from pool.alloc(3)
        b = yield from pool.alloc(7)
        levels.append(pool.used_bytes)
        a.free()
        levels.append(pool.used_bytes)
        b.free()
        levels.append(pool.used_bytes)

    env.process(proc(env))
    env.run()
    assert levels == [10, 7, 0]


def test_container_get_blocks_until_refill():
    """Parked allocations are granted in arrival order, each as soon as
    the freed bytes cover the head of the queue."""
    env = Environment()
    pool = DramPool(env, 100)
    granted = []

    def hog(env):
        a = yield from pool.alloc(100)
        yield env.timeout(2)
        a.free()

    def waiter(env, tag, nbytes, at):
        yield env.timeout(at)
        a = yield from pool.alloc(nbytes)
        granted.append((tag, env.now))
        yield env.timeout(1)
        a.free()

    env.process(hog(env))
    env.process(waiter(env, "big", 80, 1))
    env.process(waiter(env, "small", 30, 1.5))
    env.run()
    # "small" fits beside "big" only once "big" frees, at t=3.
    assert granted == [("big", 2), ("small", 3)]


def test_container_get_over_capacity_fails():
    env = Environment()
    pool = DramPool(env, 10)

    def proc(env):
        yield from pool.alloc(11)

    env.process(proc(env))
    with pytest.raises(MemoryError):
        env.run()


def test_container_invalid_args():
    env = Environment()
    with pytest.raises(ValueError):
        DramPool(env, 0)
    pool = DramPool(env, 5)
    with pytest.raises(ValueError):
        next(pool.alloc(0))
    with pytest.raises(ValueError):
        next(pool.alloc(-1))
