"""Unit tests for wait-cause attribution (repro.sim.waits)."""

import pytest

from repro.sim import Environment, Resource, SpanCollector, Store, WaitTracer
from repro.sim.queues import BandwidthPipe, FifoServer, PooledServer
from repro.sim.waits import BLOCK, RESERVE, SLEEP, SLEEP_RESOURCE


# ---------------------------------------------------------------------------
# Reserve events (FifoServer / PooledServer / BandwidthPipe)
# ---------------------------------------------------------------------------

class TestReserve:
    def test_fifo_server_splits_wait_and_service(self):
        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env).install()
        done = []

        def op(env, i):
            tr = col.trace(f"op{i}")
            yield srv.serve(1e-3)
            tr.finish()
            done.append(i)

        env.process(op(env, 0))
        env.process(op(env, 1))
        env.run()
        assert done == [0, 1]
        recs = [r for r in tracer.records if r.kind == RESERVE]
        assert len(recs) == 2
        # First op: no queueing.  Second op: queued behind the first.
        assert recs[0].wait == 0.0
        assert recs[0].service == pytest.approx(1e-3)
        assert recs[1].wait == pytest.approx(1e-3)
        assert recs[1].service == pytest.approx(1e-3)
        agg = tracer.aggregates["dev"]
        assert agg.count == 2
        assert agg.wait == pytest.approx(1e-3)
        assert agg.service == pytest.approx(2e-3)

    def test_serve_records_access_latency(self):
        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="nvme")
        tracer = WaitTracer(env).install()

        def op(env):
            tr = col.trace("io")
            yield srv.serve(2e-3, latency=5e-4)
            tr.finish()

        env.process(op(env))
        env.run()
        (rec,) = tracer.records
        assert rec.service == pytest.approx(2e-3)
        assert rec.latency == pytest.approx(5e-4)
        assert rec.total == pytest.approx(env.now)

    def test_pooled_server_reserve(self):
        env = Environment()
        col = SpanCollector(env)
        pool = PooledServer(env, 1, name="cores")
        tracer = WaitTracer(env).install()

        def op(env, i):
            tr = col.trace(f"op{i}")
            yield pool.execute(1e-3)
            tr.finish()

        env.process(op(env, 0))
        env.process(op(env, 1))
        env.run()
        assert [r.wait for r in tracer.records] == [0.0, pytest.approx(1e-3)]
        assert tracer.aggregates["cores"].service == pytest.approx(2e-3)

    def test_bandwidth_pipe_blames_queueing_and_latency(self):
        env = Environment()
        col = SpanCollector(env)
        pipe = BandwidthPipe(env, bandwidth=1e6, latency=1e-4, name="wire")
        tracer = WaitTracer(env).install()

        def xfer(env, i):
            tr = col.trace(f"op{i}")
            yield from pipe.transfer(1000)  # 1 ms at 1 MB/s
            tr.finish()

        env.process(xfer(env, 0))
        env.process(xfer(env, 1))
        env.run()
        agg = tracer.aggregates["wire"]
        assert agg.service == pytest.approx(2e-3)
        assert agg.wait == pytest.approx(1e-3)  # second transfer queued
        assert agg.latency == pytest.approx(2e-4)
        blame = tracer.blame()
        assert blame["wire"] == pytest.approx(3e-3 + 2e-4)
        assert SLEEP_RESOURCE not in blame  # propagation claimed, not a sleep

    def test_anonymous_server_uses_fallback_name(self):
        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env)  # no name
        tracer = WaitTracer(env).install()

        def op(env):
            tr = col.trace("op")
            yield srv.serve(1e-3)
            tr.finish()

        env.process(op(env))
        env.run()
        assert tracer.records[0].resource == "(anon)"


# ---------------------------------------------------------------------------
# Sleep events and the claim protocol
# ---------------------------------------------------------------------------

class TestSleep:
    def test_unclaimed_timeout_in_span_is_a_sleep(self):
        env = Environment()
        col = SpanCollector(env)
        tracer = WaitTracer(env).install()

        def op(env):
            tr = col.trace("op")
            yield env.timeout(2e-3)
            tr.finish()

        env.process(op(env))
        env.run()
        (rec,) = tracer.records
        assert rec.kind == SLEEP
        assert rec.resource == SLEEP_RESOURCE
        assert rec.latency == pytest.approx(2e-3)

    def test_timeout_outside_any_span_not_recorded(self):
        env = Environment()
        tracer = WaitTracer(env).install()

        def idle(env):
            yield env.timeout(1.0)

        env.process(idle(env))
        env.run()
        assert tracer.records == []
        assert SLEEP_RESOURCE not in tracer.aggregates

    def test_serve_does_not_double_count_as_sleep(self):
        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env).install()

        def op(env):
            tr = col.trace("op")
            yield srv.serve(1e-3)
            yield env.timeout(5e-4)  # a real sleep after the service
            tr.finish()

        env.process(op(env))
        env.run()
        kinds = [r.kind for r in tracer.records]
        assert kinds == [RESERVE, SLEEP]
        # The span decomposes exactly: serve + sleep == duration.
        total = sum(r.total for r in tracer.records)
        assert total == pytest.approx(col.spans[0].duration)


    def test_model_timer_is_not_a_sleep(self):
        """``call_at`` arms a timer nobody sleeps on: never a sleep, even
        when the process arming it has an open span."""
        env = Environment()
        col = SpanCollector(env)
        tracer = WaitTracer(env).install()
        fired = []

        def op(env):
            tr = col.trace("op")
            env.call_at(env.now + 5e-3, fired.append)
            yield env.timeout(1e-3)
            tr.finish()

        env.process(op(env))
        env.run()
        assert [r.latency for r in tracer.records] == [pytest.approx(1e-3)]
        assert tracer.aggregates[SLEEP_RESOURCE].count == 1
        assert len(fired) == 1 and env.now == pytest.approx(5e-3)


# ---------------------------------------------------------------------------
# Block events (Resource / Store)
# ---------------------------------------------------------------------------

class TestBlock:
    def test_resource_contention_measured_park_to_grant(self):
        env = Environment()
        col = SpanCollector(env)
        res = Resource(env, capacity=1, name="lockA")
        tracer = WaitTracer(env).install()

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(3e-3)

        def waiter(env):
            tr = col.trace("op")
            with res.request() as req:
                yield req
            tr.finish()

        env.process(holder(env))
        env.process(waiter(env))
        env.run()
        blocks = [r for r in tracer.records if r.kind == BLOCK]
        assert len(blocks) == 1
        assert blocks[0].resource == "lockA"
        assert blocks[0].wait == pytest.approx(3e-3)
        assert tracer.blocked_on() == {"lockA": pytest.approx(3e-3)}
        # Blocks are excluded from blame (they shadow downstream work)...
        assert "lockA" not in tracer.blame()
        # ...but included in the per-span decomposition.
        sid = col.spans[0].span_id
        assert tracer.span_waits()[sid]["lockA"] == pytest.approx(3e-3)

    def test_uncontended_request_records_zero_block(self):
        env = Environment()
        col = SpanCollector(env)
        res = Resource(env, capacity=1, name="lockA")
        tracer = WaitTracer(env).install()

        def op(env):
            tr = col.trace("op")
            with res.request() as req:
                yield req
            tr.finish()

        env.process(op(env))
        env.run()
        # Immediate grant: the request never parks, so no block event.
        assert [r for r in tracer.records if r.kind == BLOCK] == []

    def test_store_get_blocks_until_put(self):
        env = Environment()
        col = SpanCollector(env)
        store = Store(env, name="inbox")
        tracer = WaitTracer(env).install()

        def consumer(env):
            tr = col.trace("op")
            yield store.get()
            tr.finish()

        def producer(env):
            yield env.timeout(2e-3)
            yield store.put("msg")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        blocks = [r for r in tracer.records if r.kind == BLOCK]
        assert len(blocks) == 1
        assert blocks[0].resource == "inbox"
        assert blocks[0].wait == pytest.approx(2e-3)

    def test_withdrawn_request_cancels_block(self):
        env = Environment()
        col = SpanCollector(env)
        res = Resource(env, capacity=1, name="lockA")
        tracer = WaitTracer(env).install()

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(1e-3)

        def quitter(env):
            tr = col.trace("op")
            req = res.request()
            yield env.timeout(5e-4)
            req.cancel()  # give up before the grant
            tr.finish()

        env.process(holder(env))
        env.process(quitter(env))
        env.run()
        assert [r for r in tracer.records if r.kind == BLOCK] == []
        assert tracer._blocked == {}


# ---------------------------------------------------------------------------
# Lifecycle, zero-cost path, purity, bounded memory
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_single_tracer_enforced(self):
        env = Environment()
        WaitTracer(env).install()
        with pytest.raises(RuntimeError):
            WaitTracer(env).install()

    def test_uninstall_stops_recording(self):
        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env)

        def op(env):
            with tracer:
                tr = col.trace("op")
                yield srv.serve(1e-3)
                tr.finish()
            tr2 = col.trace("op2")
            yield srv.serve(1e-3)
            tr2.finish()

        env.process(op(env))
        env.run()
        assert len(tracer.records) == 1
        assert env._wait_tracer is None

    def test_traced_run_is_bit_identical(self):
        def scenario(env, traced):
            col = SpanCollector(env)
            srv = FifoServer(env, name="dev")
            res = Resource(env, capacity=2, name="lock")
            tracer = WaitTracer(env).install() if traced else None
            finish_times = []

            def op(env, i):
                tr = col.trace(f"op{i}")
                with res.request() as req:
                    yield req
                    yield srv.serve(512 * (i + 1) / 1e6)
                yield env.timeout(1e-5 * i)
                tr.finish()
                finish_times.append((i, env.now))

            for i in range(6):
                env.process(op(env, i))
            env.run()
            return finish_times

        env_a, env_b = Environment(), Environment()
        plain = scenario(env_a, traced=False)
        traced = scenario(env_b, traced=True)
        assert plain == traced            # identical completion order/times
        assert env_a.now == env_b.now     # bit-identical clock

    def test_max_records_bounds_memory(self):
        env = Environment()
        col = SpanCollector(env)
        tracer = WaitTracer(env, max_records=3).install()

        def op(env):
            tr = col.trace("op")
            for _ in range(10):
                yield env.timeout(1e-6)
            tr.finish()

        env.process(op(env))
        env.run()
        assert len(tracer.records) == 3
        assert tracer.records_dropped == 7

    def test_aggregates_match_server_busy_time(self):
        env = Environment()
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env).install()

        def op(env, dur):
            yield srv.serve(dur)

        for dur in (1e-3, 2e-3, 5e-4):
            env.process(op(env, dur))
        env.run()
        # Same additions in the same order: exactly equal, not just approx.
        assert tracer.aggregates["dev"].service == srv.busy_time

    def test_wait_series_tracks_cumulative_wait(self):
        env = Environment()
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env).install()

        def first(env):
            yield srv.serve(1e-3)

        def second(env):
            yield env.timeout(5e-4)
            yield srv.serve(1e-3)  # queued 0.5 ms behind the first

        env.process(first(env))
        env.process(second(env))
        env.run()
        (series,) = tracer.wait_series()
        assert series.name == "wait.dev"
        assert series.values()[-1] == pytest.approx(5e-4)

    def test_to_dict_shape(self):
        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env).install()

        def op(env):
            tr = col.trace("op")
            yield srv.serve(1e-3)
            tr.finish()

        env.process(op(env))
        env.run()
        doc = tracer.to_dict()
        assert doc["records"] == 1
        assert doc["aggregates"]["dev"]["service_sec"] == pytest.approx(1e-3)
        assert doc["blame_sec"]["dev"] == pytest.approx(1e-3)
        rec = tracer.records[0].to_dict()
        assert rec["kind"] == RESERVE
        assert rec["resource"] == "dev"


# ---------------------------------------------------------------------------
# Span attribution details
# ---------------------------------------------------------------------------

class TestSpanAttribution:
    def test_innermost_open_span_gets_the_record(self):
        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env).install()

        def op(env):
            tr = col.trace("op")
            child = tr.root.child("stage")
            yield srv.serve(1e-3)
            child.finish()
            yield srv.serve(1e-3)  # attributed to the root again
            tr.finish()

        env.process(op(env))
        env.run()
        stages = [r.span.stage for r in tracer.records]
        assert stages == ["stage", "op"]
        sw = tracer.stage_waits()
        assert sw["stage"]["dev"] == pytest.approx(1e-3)
        assert sw["op"]["dev"] == pytest.approx(1e-3)

    def test_leaf_decomposition_identity(self):
        """duration == Σ wait-record totals, exactly, for straight-line leaves."""
        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="dev")
        pipe = BandwidthPipe(env, bandwidth=1e9, latency=1e-6, name="wire")
        tracer = WaitTracer(env).install()

        def op(env, i):
            tr = col.trace(f"op{i}")
            yield srv.serve(1e-3)
            yield from pipe.transfer(4096)
            yield env.timeout(1e-5)
            tr.finish()

        for i in range(4):
            env.process(op(env, i))
        env.run()
        for span in col.spans:
            total = sum(r.total for r in tracer.records if r.span is span)
            assert total == pytest.approx(span.duration, abs=1e-15)

    def test_concurrent_processes_attribute_to_own_spans(self):
        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env).install()

        def op(env, i):
            tr = col.trace(f"op{i}")
            yield srv.serve(1e-3)
            tr.finish()

        env.process(op(env, 0))
        env.process(op(env, 1))
        env.run()
        owners = {r.span.stage for r in tracer.records}
        assert owners == {"op0", "op1"}


# ---------------------------------------------------------------------------
# Sleep records on whole cells
# ---------------------------------------------------------------------------

def sleeps_longer_than_their_span(tracer):
    """SLEEP records on finished spans that outlast the span itself.

    A process sleeps inside the span it booked the sleep on, so a longer
    one is a timer the process never waited for.  A span still open when
    the run ends has no duration yet and is exempt.
    """
    return [r for r in tracer.records
            if r.kind == SLEEP and r.span.t_end is not None
            and r.latency > r.span.duration]


class TestCellSleeps:
    def test_chaos_cell_books_no_deadline_as_a_sleep(self):
        from repro.bench.chaos import default_qp_break_plan
        from repro.bench.runner import run_fig5_chaos
        from repro.sim.doctor import blame_ranking

        run = run_fig5_chaos("rdma", "dpu", "randread", 4096, 4,
                             default_qp_break_plan("dpu", 0.01),
                             runtime=0.01)
        assert run.stats.timeouts > 0  # deadlines did fire
        tracer = run.run.tracer
        assert any(r.kind == SLEEP for r in tracer.records)
        assert sleeps_longer_than_their_span(tracer) == []
        total = sum(s.duration for s in run.run.collector.roots())
        assert blame_ranking(tracer, total)[0]["resource"] != SLEEP_RESOURCE

    def test_fig5_tcp_cell_sleeps_fit_their_spans(self):
        from repro.bench.runner import run_fig5_doctored

        run = run_fig5_doctored("tcp", "dpu", "randread", 4096, 4,
                                runtime=0.01, observe_sampler=False)
        sleeps = [r for r in run.tracer.records if r.kind == SLEEP]
        assert sleeps
        assert sleeps_longer_than_their_span(run.tracer) == []
