"""Unit tests for repro.sim.queues (FifoServer, PooledServer, BandwidthPipe)."""

import pytest

from repro.sim import BandwidthPipe, Environment, FifoServer
from repro.sim.queues import PooledServer


# ---------------------------------------------------------------------------
# FifoServer
# ---------------------------------------------------------------------------

def test_fifo_server_serializes_work():
    env = Environment()
    srv = FifoServer(env)
    done = []

    def client(env, srv, tag):
        yield srv.serve(1.0)
        done.append((tag, env.now))

    for tag in "abc":
        env.process(client(env, srv, tag))
    env.run()
    assert done == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_fifo_server_idle_gap_not_counted():
    env = Environment()
    srv = FifoServer(env)
    done = []

    def client(env, srv):
        yield srv.serve(1.0)
        yield env.timeout(5.0)  # idle gap
        yield srv.serve(1.0)
        done.append(env.now)

    env.process(client(env, srv))
    env.run()
    assert done == [7.0]
    assert srv.busy_time == pytest.approx(2.0)


def test_fifo_server_rate_units():
    env = Environment()
    srv = FifoServer(env, rate=100.0)  # 100 units/sec
    done = []

    def client(env, srv):
        yield srv.serve_units(50)
        done.append(env.now)

    env.process(client(env, srv))
    env.run()
    assert done == [pytest.approx(0.5)]


def test_fifo_server_serve_units_without_rate_raises():
    env = Environment()
    srv = FifoServer(env)
    with pytest.raises(ValueError):
        srv.serve_units(10)


def test_fifo_server_negative_duration_raises():
    env = Environment()
    srv = FifoServer(env)
    with pytest.raises(ValueError):
        srv.serve(-1)


def test_fifo_server_utilization():
    env = Environment()
    srv = FifoServer(env)

    def client(env, srv):
        yield srv.serve(2.0)
        yield env.timeout(2.0)

    env.process(client(env, srv))
    env.run()
    assert srv.utilization() == pytest.approx(0.5)
    assert srv.ops == 1


# ---------------------------------------------------------------------------
# PooledServer
# ---------------------------------------------------------------------------

def test_pooled_server_parallel_up_to_n():
    env = Environment()
    pool = PooledServer(env, n=2)
    done = []

    def client(env, pool, tag):
        yield pool.execute(1.0)
        done.append((tag, env.now))

    for tag in "abcd":
        env.process(client(env, pool, tag))
    env.run()
    # Two run in [0,1], two in [1,2].
    assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]


def test_pooled_server_single_equivalent_to_fifo():
    env = Environment()
    pool = PooledServer(env, n=1)
    done = []

    def client(env, pool):
        yield pool.execute(1.5)
        done.append(env.now)

    for _ in range(3):
        env.process(client(env, pool))
    env.run()
    assert done == [1.5, 3.0, 4.5]


def test_execute_with_delays_fires_at_the_chained_instant_with_one_event():
    """One event, at exactly the float the reservation + sleeps reach."""
    delays = (1.1e-6, 3.7e-7)
    fired = {}
    for chained in (True, False):
        env = Environment()
        pool = PooledServer(env, 2)

        def client(env):
            yield env.timeout(1e-3 / 3)  # a clock value with rounding
            if chained:
                yield pool.execute(4.1e-6)
                for d in delays:
                    yield env.timeout(d)
            else:
                yield pool.execute(4.1e-6, *delays)

        env.process(client(env))
        env.run()
        fired[chained] = (env.now, env.events_processed)
    assert fired[False][0] == fired[True][0]
    assert fired[False][1] == fired[True][1] - len(delays)


def test_execute_rejects_a_negative_delay_before_reserving():
    env = Environment()
    pool = PooledServer(env, 1)
    with pytest.raises(ValueError):
        pool.execute(1.0, 0.5, -1e-9)
    assert (pool.ops, pool.busy_time, pool._free) == (0, 0.0, [0.0])


def test_execute_with_delays_reports_only_wait_and_service():
    from repro.sim.spans import SpanCollector
    from repro.sim.waits import WaitTracer

    env = Environment()
    pool = PooledServer(env, 1, name="cores")
    tracer = WaitTracer(env).install()
    col = SpanCollector(env)

    def op(env):
        tr = col.trace("io")
        yield pool.execute(2e-3, 5e-4)
        tr.finish()

    env.process(op(env))
    env.run()
    (rec,) = tracer.records
    assert (rec.wait, rec.service, rec.latency) == (0.0, 2e-3, 0.0)
    assert env.now == pytest.approx(2.5e-3)


@pytest.mark.parametrize("delays", [(1.1e-6, 3.7e-7), (2.9e-7, 0.0), ()])
def test_serve_with_delays_fires_at_the_chained_instant_with_one_event(delays):
    """Queued clients wake at the chained instants, one event each."""
    fired = {}
    for chained in (True, False):
        env = Environment()
        srv = FifoServer(env)
        woke = []

        def client(env):
            yield env.timeout(1e-3 / 3)  # a clock value with rounding
            if chained:
                yield srv.serve(4.1e-6)
                for d in delays:
                    yield env.timeout(d)
            else:
                yield srv.serve(4.1e-6, *delays)
            woke.append(env.now)

        for _ in range(3):
            env.process(client(env))
        env.run()
        fired[chained] = (woke, env.events_processed, srv.busy_time, srv._free_at)
    assert fired[False][0] == fired[True][0]
    assert fired[False][1] == fired[True][1] - 3 * len(delays)
    assert fired[False][2:] == fired[True][2:]


def test_serve_rejects_a_negative_delay_before_reserving():
    env = Environment()
    srv = FifoServer(env)
    with pytest.raises(ValueError):
        srv.serve(1.0, 0.5, -1e-9)
    with pytest.raises(ValueError):
        srv.serve(1.0, latency=-1e-9)
    assert (srv.ops, srv.busy_time, srv._free_at) == (0, 0.0, 0.0)


def test_serve_books_its_latency_but_not_the_callers_delays():
    """The caller's delays are not the server's; its ``latency`` is."""
    from repro.sim.spans import SpanCollector
    from repro.sim.waits import WaitTracer

    env = Environment()
    srv = FifoServer(env, name="stream")
    tracer = WaitTracer(env).install()
    col = SpanCollector(env)

    def op(env):
        tr = col.trace("io")
        yield srv.serve(2e-3, 5e-4)
        yield srv.serve(2e-3, latency=5e-4)
        tr.finish()

    env.process(op(env))
    env.run()
    assert [(r.wait, r.service, r.latency) for r in tracer.records] == [
        (0.0, 2e-3, 0.0), (0.0, 2e-3, 5e-4)]


def test_pooled_server_work_conserving():
    env = Environment()
    pool = PooledServer(env, n=4)
    done = []

    def burst(env):
        # 8 unit jobs on 4 servers: finish at 1,1,1,1,2,2,2,2
        for _ in range(8):
            env.process(one(env))
        yield env.timeout(0)

    def one(env):
        yield pool.execute(1.0)
        done.append(env.now)

    env.process(burst(env))
    env.run()
    assert sorted(done) == [1, 1, 1, 1, 2, 2, 2, 2]


def test_pooled_server_utilization_mean_per_core():
    env = Environment()
    pool = PooledServer(env, n=2)

    def client(env):
        yield pool.execute(1.0)
        yield env.timeout(1.0)

    env.process(client(env))
    env.run()
    # 1 second of work over 2 seconds on 2 cores = 0.25
    assert pool.utilization() == pytest.approx(0.25)


def test_pooled_server_invalid_n():
    env = Environment()
    with pytest.raises(ValueError):
        PooledServer(env, n=0)


# ---------------------------------------------------------------------------
# BandwidthPipe
# ---------------------------------------------------------------------------

def test_pipe_transfer_time_matches_bandwidth():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=1e6, latency=0.0, chunk_bytes=1000)
    done = []

    def client(env, pipe):
        yield from pipe.transfer(500_000)
        done.append(env.now)

    env.process(client(env, pipe))
    env.run()
    assert done == [pytest.approx(0.5)]


def test_pipe_latency_added_once():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=1e6, latency=0.01, chunk_bytes=1000)
    done = []

    def client(env, pipe):
        yield from pipe.transfer(10_000)
        done.append(env.now)

    env.process(client(env, pipe))
    env.run()
    assert done == [pytest.approx(0.01 + 0.01)]


def test_pipe_concurrent_transfers_share_bandwidth():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=1e6, chunk_bytes=1000)
    done = {}

    def client(env, pipe, tag, nbytes):
        yield from pipe.transfer(nbytes)
        done[tag] = env.now

    env.process(client(env, pipe, "x", 100_000))
    env.process(client(env, pipe, "y", 100_000))
    env.run()
    # Total 200KB over 1MB/s = 0.2s: both finish near 0.2 (chunk interleave).
    assert done["x"] == pytest.approx(0.2, rel=0.02)
    assert done["y"] == pytest.approx(0.2, rel=0.02)


def test_pipe_small_message_not_stuck_behind_large():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=1e6, chunk_bytes=1000)
    done = {}

    def client(env, pipe, tag, nbytes, start=0.0):
        if start:
            yield env.timeout(start)
        yield from pipe.transfer(nbytes)
        done[tag] = env.now

    env.process(client(env, pipe, "big", 1_000_000))
    env.process(client(env, pipe, "small", 1000, start=0.001))
    env.run()
    # FIFO per chunk: the small transfer waits at most a couple of chunks,
    # nowhere near the big transfer's full second.
    assert done["small"] < 0.02
    assert done["big"] == pytest.approx(1.0, rel=0.02)


def test_pipe_zero_bytes_costs_only_latency():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=1e6, latency=0.005)
    done = []

    def client(env, pipe):
        yield from pipe.transfer(0)
        done.append(env.now)

    env.process(client(env, pipe))
    env.run()
    assert done == [pytest.approx(0.005)]


def test_pipe_rejects_bad_args():
    env = Environment()
    with pytest.raises(ValueError):
        BandwidthPipe(env, bandwidth=0)
    with pytest.raises(ValueError):
        BandwidthPipe(env, bandwidth=1e6, chunk_bytes=0)
    pipe = BandwidthPipe(env, bandwidth=1e6)

    def client(env):
        yield from pipe.transfer(-1)

    env.process(client(env))
    with pytest.raises(ValueError):
        env.run()


def test_pipe_throughput_capped_at_bandwidth():
    env = Environment()
    bw = 1e6
    pipe = BandwidthPipe(env, bandwidth=bw, chunk_bytes=4096)
    moved = []

    def flood(env, pipe):
        total = 0
        while env.now < 1.0:
            yield from pipe.transfer(10_000)
            total += 10_000
        moved.append(total)

    for _ in range(8):
        env.process(flood(env, pipe))
    env.run(until=1.0)
    # The pipe serializes: reserved transmission time can exceed the horizon
    # only by the 8 in-flight transfers (10ms each at 1 MB/s).
    assert pipe.busy_time <= 1.0 + 8 * 0.01 + 1e-9
    # bytes_moved counts at transfer start; reserved chunk time may lag by at
    # most the 8 in-flight transfers.
    assert abs(pipe.bytes_moved - pipe.busy_time * bw) <= 8 * 10_000
