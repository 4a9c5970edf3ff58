"""Hypothesis property tests for the DES kernel.

These pin down the invariants every higher layer silently relies on:
monotonic time, exact completion times for arbitrary schedules, FIFO
service conservation laws, and determinism.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, FifoServer
from repro.sim.queues import PooledServer


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(min_value=0, max_value=100,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=40))
def test_clock_is_monotonic_and_exact(delays):
    """Every timeout fires exactly at its scheduled time, in order."""
    env = Environment()
    fired = []

    def waiter(env, d):
        yield env.timeout(d)
        fired.append((env.now, d))

    for d in delays:
        env.process(waiter(env, d))
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    for t, d in fired:
        assert t == d


@settings(max_examples=60, deadline=None)
@given(chains=st.lists(st.lists(st.floats(min_value=0.001, max_value=10),
                                min_size=1, max_size=5),
                       min_size=1, max_size=10))
def test_sequential_delays_sum(chains):
    """A chain of timeouts completes at the exact sum of its delays."""
    env = Environment()
    results = []

    def chain(env, delays):
        for d in delays:
            yield env.timeout(d)
        results.append((env.now, sum(delays)))

    for delays in chains:
        env.process(chain(env, delays))
    env.run()
    for now, expected in results:
        assert abs(now - expected) < 1e-9 * max(1.0, expected)


@settings(max_examples=50, deadline=None)
@given(durations=st.lists(st.floats(min_value=0.001, max_value=5),
                          min_size=1, max_size=30))
def test_fifo_server_work_conservation(durations):
    """A FIFO server's makespan equals the sum of service demands when
    saturated from t=0, and completions preserve submission order."""
    env = Environment()
    srv = FifoServer(env)
    completions = []

    def client(env, i, d):
        yield srv.serve(d)
        completions.append(i)

    for i, d in enumerate(durations):
        env.process(client(env, i, d))
    env.run()
    assert completions == list(range(len(durations)))
    assert abs(env.now - sum(durations)) < 1e-9 * max(1.0, sum(durations))
    assert abs(srv.busy_time - sum(durations)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(
    n_servers=st.integers(min_value=1, max_value=8),
    durations=st.lists(st.floats(min_value=0.01, max_value=5),
                       min_size=1, max_size=30),
)
def test_pooled_server_bounds(n_servers, durations):
    """Makespan of an n-server station is bounded by the classic LPT
    bounds: max(total/n, longest) <= makespan <= total/n + longest."""
    env = Environment()
    pool = PooledServer(env, n_servers)

    def client(env, d):
        yield pool.execute(d)

    for d in durations:
        env.process(client(env, d))
    env.run()
    total, longest = sum(durations), max(durations)
    lower = max(total / n_servers, longest)
    upper = total / n_servers + longest
    assert lower - 1e-9 <= env.now <= upper + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed_delays=st.lists(st.floats(min_value=0.001, max_value=3),
                            min_size=2, max_size=15))
def test_simulation_determinism_property(seed_delays):
    """Identical schedules produce identical event traces."""

    def one_run():
        env = Environment()
        trace = []

        def proc(env, i, d):
            yield env.timeout(d)
            trace.append((i, env.now))
            yield env.timeout(d / 2)
            trace.append((i, env.now))

        for i, d in enumerate(seed_delays):
            env.process(proc(env, i, d))
        env.run()
        return trace

    assert one_run() == one_run()


@settings(max_examples=40, deadline=None)
@given(amounts=st.lists(st.integers(min_value=1, max_value=100),
                        min_size=1, max_size=20))
def test_store_conserves_items(amounts):
    """Everything put into a Store comes out exactly once, in order."""
    from repro.sim import Store

    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for a in amounts:
            store.put(a)
            yield env.timeout(a % 3)

    def consumer(env):
        for _ in amounts:
            got.append((yield store.get()))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == amounts
