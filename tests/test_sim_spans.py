"""Unit tests for the request-tracing subsystem (spans, breakdown, paths)."""

import pytest

from repro.sim import Environment
from repro.sim.spans import LatencyBreakdown, SpanCollector, critical_path


def advance(env: Environment, dt: float) -> None:
    def tick(env):
        yield env.timeout(dt)
    env.process(tick(env))
    env.run()


class TestSpanLifecycle:
    def test_root_span_records_on_finish(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("op", nbytes=4096)
        assert tr is not None
        advance(env, 1.5)
        root = tr.finish()
        assert root.t_start == 0.0
        assert root.t_end == 1.5
        assert root.duration == 1.5
        assert root.nbytes == 4096
        # The collector keeps a row, not the span object.
        assert list(col.spans) == [(root.span_id, None, tr.trace_id, "op",
                                    None, 0.0, 1.5, 4096, None)]

    def test_child_hierarchy_and_stage_names(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("op")
        child = tr.root.child("media.nvme", node="storage", nbytes=128)
        assert child.parent_id == tr.root.span_id
        assert child.trace_id == tr.trace_id
        assert child.stage == "storage.media.nvme"
        assert tr.root.stage == "op"
        child.finish()
        tr.finish()
        assert len(col.spans) == 2

    def test_finish_is_idempotent(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("op")
        advance(env, 1.0)
        tr.finish()
        advance(env, 1.0)
        tr.finish()
        assert len(col.spans) == 1
        assert col.spans[0].t_end == 1.0

    def test_context_manager_finishes(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("op")
        with tr.root.child("stage") as s:
            advance(env, 0.25)
        assert s.t_end == 0.25
        assert s.span_id in {r.span_id for r in col.spans}

    def test_open_span_has_zero_duration(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("op")
        advance(env, 3.0)
        assert tr.root.duration == 0.0

    def test_finished_child_span_fields(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("op")
        child = tr.root.child("stage", node="n1", nbytes=17)
        advance(env, 0.5)
        span = child.finish()
        assert (span.name, span.node, span.nbytes) == ("stage", "n1", 17)
        assert span.duration == 0.5
        assert span.parent_id == tr.root.span_id
        assert tr.finish().node is None


class TestProcessSlot:
    """A sampled span rides on its process: ``Process.span`` is the one
    place the open span is kept."""

    def test_child_becomes_the_process_span_until_it_finishes(self):
        env = Environment()
        col = SpanCollector(env)
        seen = []

        def op(env):
            me = env.active_process
            seen.append(me.span)
            root = col.trace("op").root
            seen.append(me.span)
            child = root.child("stage")
            seen.append(me.span)
            yield env.timeout(1.0)
            child.finish()
            seen.append(me.span)
            root.finish()
            seen.append(me.span)
            return root, child

        p = env.process(op(env))
        env.run()
        root, child = p.value
        assert seen == [None, root, child, root, None]

    def test_a_span_finished_over_an_open_child_puts_back_its_opener(self):
        """A handler that ends while a media span it opened is still open
        (a media error cut the read short) leaves its process at the span
        it opened under; the open child is dropped, not restored later."""
        env = Environment()
        col = SpanCollector(env)
        seen = []

        def handler(env):
            me = env.active_process
            request = me.span
            h = request.child("rpc.handler[obj_fetch]")
            h.child("media.nvme")  # never finished
            yield env.timeout(1.0)
            h.finish()
            seen.append(me.span is request)
            after = request.child("rdma.post")
            seen.append(after.parent_id == request.span_id)
            after.finish()
            seen.append(me.span is request)

        p = env.process(handler(env))
        p.span = col.trace("op").root
        env.run()
        assert seen == [True, True, True]
        assert [s.name for s in col.spans] == [
            "rpc.handler[obj_fetch]", "rdma.post"]

    def test_two_processes_spans_never_mix(self):
        env = Environment()
        col = SpanCollector(env)
        seen = {}

        def op(env, name, delay):
            me = env.active_process
            root = col.trace(name).root
            yield env.timeout(delay)
            child = root.child(f"{name}.stage")
            yield env.timeout(2.0)
            seen[name] = (me.span is child, child.parent_id == root.span_id)
            child.finish()
            root.finish()
            seen[name] += (me.span,)

        env.process(op(env, "a", 0.0))
        env.process(op(env, "b", 1.0))
        env.run()
        assert seen == {"a": (True, True, None), "b": (True, True, None)}

    def test_a_process_handed_no_span_books_no_record(self):
        from repro.sim.queues import FifoServer
        from repro.sim.waits import WaitTracer

        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env).install()

        def piece(env):
            yield srv.serve(1e-3)
            yield env.timeout(1e-3)

        def op(env):
            root = col.trace("op").root
            handed = env.process(piece(env))
            handed.span = root
            bare = env.process(piece(env))
            yield env.all_of([handed, bare])
            root.finish()

        env.process(op(env))
        env.run()
        assert [(r.kind, r.resource) for r in tracer.records] == [
            ("reserve", "dev"), ("sleep", "(sleep)")]
        assert srv.ops == 2

    @pytest.mark.parametrize("provider", ["ucx+rc", "ucx+tcp"])
    def test_rpc_reply_spans_are_children_of_the_clients_rpc_span(
            self, provider):
        from repro.daos.rpc import RpcClient, RpcServer
        from repro.hw import make_paper_testbed
        from repro.net import Fabric

        env = Environment()
        top = make_paper_testbed(env)
        ch = Fabric(env).connect(top.client, top.server, provider)
        server = RpcServer(top.server)
        client = RpcClient(top.client, ch).start()

        def echo(args, src, channel):
            yield env.timeout(1e-6)
            return {}

        server.register("echo", echo)
        server.serve(ch)
        col = SpanCollector(env)

        def main(env):
            tr = col.trace("op")
            yield from client.call("echo", {})
            tr.finish()

        env.process(main(env))
        env.run()
        (rpc,) = [s for s in col.spans if s.name == "rpc[echo]"]
        (handler,) = [s for s in col.spans if s.name == "rpc.handler[echo]"]
        assert handler.parent_id == rpc.span_id
        reply = [s for s in col.spans if s.t_start >= handler.t_end
                 and s is not rpc and s.parent_id is not None]
        assert reply and all(s.parent_id == rpc.span_id for s in reply)
        # The reply leaves the server: its first span is the server's.
        assert min(reply, key=lambda s: s.t_start).node == top.server.name


class TestSampling:
    def test_sample_every_n(self):
        env = Environment()
        col = SpanCollector(env, sample_every=5)
        picks = [col.trace("op") is not None for _ in range(20)]
        assert picks == [i % 5 == 0 for i in range(20)]
        assert col.requests_seen == 20
        assert col.traces_started == 4

    def test_max_traces_cap(self, monkeypatch):
        monkeypatch.setattr(SpanCollector, "MAX_TRACES", 3)
        env = Environment()
        col = SpanCollector(env)
        traces = [col.trace("op") for _ in range(10)]
        assert sum(t is not None for t in traces) == 3

    def test_invalid_parameters(self):
        env = Environment()
        with pytest.raises(ValueError):
            SpanCollector(env, sample_every=0)

    def test_clear(self):
        env = Environment()
        col = SpanCollector(env)
        col.trace("op").finish()
        col.clear()
        assert list(col.spans) == []


def build_sequential_trace(env, col, stages):
    """Root with sequential children of the given (name, duration)s."""
    tr = col.trace("e2e")
    for name, dur in stages:
        s = tr.root.child(name)
        advance(env, dur)
        s.finish()
    tr.finish()
    return tr


class TestLatencyBreakdown:
    def test_self_time_subtracts_children(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("e2e")
        outer = tr.root.child("rpc")
        inner = outer.child("media")
        advance(env, 2.0)
        inner.finish()
        advance(env, 1.0)
        outer.finish()
        tr.finish()
        bd = LatencyBreakdown(col.spans)
        assert bd.stage_totals["media"] == pytest.approx(2.0)
        assert bd.stage_totals["rpc"] == pytest.approx(1.0)  # 3.0 - 2.0
        assert bd.stage_totals["e2e"] == pytest.approx(0.0)
        assert bd.coverage() == pytest.approx(1.0)

    def test_sequential_stages_sum_to_root(self):
        env = Environment()
        col = SpanCollector(env)
        build_sequential_trace(env, col, [("a", 1.0), ("b", 2.0), ("c", 3.0)])
        bd = LatencyBreakdown(col.spans)
        assert bd.total_root_time == pytest.approx(6.0)
        assert bd.attributed_time == pytest.approx(6.0)
        assert bd.shares()[0][0] == "c"

    def test_parallel_children_clamp_to_zero(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("e2e")
        a = tr.root.child("a")
        b = tr.root.child("b")
        advance(env, 4.0)
        a.finish()
        b.finish()
        tr.finish()
        bd = LatencyBreakdown(col.spans)
        # Root self-time = 4 - (4 + 4) < 0 -> clamped; coverage capped at 1.
        assert bd.stage_totals["e2e"] == 0.0
        assert bd.coverage() == 1.0

    def test_aggregates_across_traces(self):
        env = Environment()
        col = SpanCollector(env)
        build_sequential_trace(env, col, [("a", 1.0)])
        build_sequential_trace(env, col, [("a", 3.0)])
        bd = LatencyBreakdown(col.spans)
        assert bd.n_traces == 2
        assert bd.stage_totals["a"] == pytest.approx(4.0)
        assert bd.stage_counts["a"] == 2

    def test_table_renders(self):
        env = Environment()
        col = SpanCollector(env)
        build_sequential_trace(env, col, [("alpha", 1.0), ("beta", 2.0)])
        text = LatencyBreakdown(col.spans).table("T")
        assert "alpha" in text and "beta" in text
        assert "(end-to-end)" in text

    def test_to_dict_shape(self):
        env = Environment()
        col = SpanCollector(env)
        build_sequential_trace(env, col, [("a", 1.0)])
        d = LatencyBreakdown(col.spans).to_dict()
        assert d["n_traces"] == 1
        assert d["stages"]["a"]["share"] == pytest.approx(1.0)

    def test_empty(self):
        bd = LatencyBreakdown([])
        assert bd.coverage() == 0.0
        assert bd.shares() == []


class TestWaitBlameColumn:
    """stage_waits (from WaitTracer.stage_waits) adds a blame column."""

    def _breakdown(self):
        env = Environment()
        col = SpanCollector(env)
        build_sequential_trace(env, col, [("rpc", 3.0), ("media", 1.0)])
        stage_waits = {
            "rpc": {"dpu.arm_rx": 2.5, "net.port": 0.5},
            "media": {"nvme.ssd0": 1.0},
        }
        return LatencyBreakdown(col.spans, stage_waits=stage_waits)

    def test_top_wait_cause_per_stage(self):
        bd = self._breakdown()
        res, secs, frac = bd.top_wait_cause("rpc")
        assert res == "dpu.arm_rx"
        assert secs == pytest.approx(2.5)
        assert frac == pytest.approx(2.5 / 3.0)
        assert bd.top_wait_cause("media") == ("nvme.ssd0", 1.0, 1.0)
        assert bd.top_wait_cause("e2e") is None  # no waits for that stage

    def test_top_wait_cause_ties_break_by_name(self):
        env = Environment()
        col = SpanCollector(env)
        build_sequential_trace(env, col, [("s", 2.0)])
        bd = LatencyBreakdown(col.spans,
                              stage_waits={"s": {"zeta": 1.0, "alpha": 1.0}})
        assert bd.top_wait_cause("s")[0] == "alpha"

    def test_table_gains_waiting_on_column(self):
        bd = self._breakdown()
        text = bd.table("T")
        assert "waiting on" in text
        assert "dpu.arm_rx (83%)" in text
        assert "nvme.ssd0 (100%)" in text
        # Without stage_waits the column is absent.
        assert "waiting on" not in LatencyBreakdown([]).table("T")

    def test_to_dict_includes_wait_maps(self):
        d = self._breakdown().to_dict()
        assert d["stages"]["rpc"]["waits"] == {"dpu.arm_rx": 2.5,
                                               "net.port": 0.5}
        assert "waits" not in LatencyBreakdown([]).to_dict().get(
            "stages", {}).get("rpc", {})


class TestCriticalPath:
    def test_sequential_chain_fully_reconstructed(self):
        env = Environment()
        col = SpanCollector(env)
        tr = build_sequential_trace(env, col, [("a", 1.0), ("b", 2.0), ("c", 3.0)])
        spans = [s for s in col.spans if s.trace_id == tr.trace_id]
        names = [s.name for s in critical_path(spans)]
        assert names == ["e2e", "a", "b", "c"]

    def test_parallel_picks_straggler(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("e2e")
        fast = tr.root.child("fast")
        slow = tr.root.child("slow")

        def fin(env, span, dt):
            yield env.timeout(dt)
            span.finish()

        env.process(fin(env, fast, 1.0))
        env.process(fin(env, slow, 5.0))
        env.run()
        tr.finish()
        spans = [s for s in col.spans if s.trace_id == tr.trace_id]
        names = [s.name for s in critical_path(spans)]
        assert "slow" in names and "fast" not in names

    def test_nested_expansion(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("e2e")
        rpc = tr.root.child("rpc")
        tx = rpc.child("tx")
        advance(env, 1.0)
        tx.finish()
        rx = rpc.child("rx")
        advance(env, 2.0)
        rx.finish()
        rpc.finish()
        tr.finish()
        names = [s.name for s in critical_path(col.spans)]
        assert names == ["e2e", "rpc", "tx", "rx"]

    def test_rejects_multiple_traces(self):
        env = Environment()
        col = SpanCollector(env)
        t1 = build_sequential_trace(env, col, [("a", 1.0)])
        t2 = build_sequential_trace(env, col, [("a", 1.0)])
        assert t1.trace_id != t2.trace_id
        with pytest.raises(ValueError):
            critical_path(col.spans)

    def test_empty_returns_empty(self):
        assert critical_path([]) == []


class TestCollectorViews:
    def test_by_trace_and_roots(self):
        env = Environment()
        col = SpanCollector(env)
        t1 = build_sequential_trace(env, col, [("a", 1.0)])
        t2 = build_sequential_trace(env, col, [("b", 1.0)])
        assert {s.trace_id for s in col.spans} == {t1.trace_id, t2.trace_id}
        assert [r.trace_id for r in col.roots()] == [t1.trace_id, t2.trace_id]
