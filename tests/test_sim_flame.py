"""Unit tests for sim-time flamegraphs (repro.sim.flame)."""

import io
import os

import pytest

from repro.sim import Environment, SpanCollector, WaitTracer
from repro.sim.flame import (
    diff_folded,
    fold_spans,
    fold_waits,
    render_collapsed,
    render_diff_collapsed,
    write_collapsed,
    write_diff_collapsed,
)
from repro.sim.queues import FifoServer

DATA = os.path.join(os.path.dirname(__file__), "data")


def advance(env, dt):
    def tick(env):
        yield env.timeout(dt)
    env.process(tick(env))
    env.run()


def make_tree(env):
    """root(3ms) -> a(1ms), b(2ms -> c(0.5ms)); all sequential."""
    col = SpanCollector(env)
    tr = col.trace("root")
    a = tr.root.child("a")
    advance(env, 1e-3)
    a.finish()
    b = tr.root.child("b")
    c = b.child("c")
    advance(env, 5e-4)
    c.finish()
    advance(env, 1.5e-3)
    b.finish()
    tr.finish()
    return col


class TestFoldSpans:
    def test_self_time_excludes_children(self):
        env = Environment()
        col = make_tree(env)
        folded = fold_spans(col.spans)
        # root: 3 ms total - 3 ms children = 0 self time -> dropped.
        assert "root" not in folded
        assert folded["root;a"] == 1_000_000
        assert folded["root;b"] == 1_500_000  # 2 ms - 0.5 ms child
        assert folded["root;b;c"] == 500_000

    def test_weights_are_integer_nanoseconds(self):
        env = Environment()
        col = make_tree(env)
        for w in fold_spans(col.spans).values():
            assert isinstance(w, int)
            assert w > 0

    def test_open_spans_skipped(self):
        env = Environment()
        col = SpanCollector(env)
        tr = col.trace("root")
        child = tr.root.child("open")
        advance(env, 1e-3)
        tr.finish()  # root closes; child never does
        folded = fold_spans(list(col.spans) + [child])
        assert all("open" not in k for k in folded)

    def test_orphan_span_roots_its_own_stack(self):
        env = Environment()
        col = make_tree(env)
        # Keep only the grandchild: its parent is missing from the set.
        c = [s for s in col.spans if s.stage == "c"]
        folded = fold_spans(c)
        assert folded == {"c": 500_000}

    def test_same_stack_accumulates(self):
        env = Environment()
        col = SpanCollector(env)
        for _ in range(2):
            tr = col.trace("op")
            advance(env, 1e-3)
            tr.finish()
        assert fold_spans(col.spans) == {"op": 2_000_000}


class TestFoldWaits:
    def test_wait_leaf_under_span_stack(self):
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
        folded = fold_waits(col.spans, tracer.records)
        # Only the queued transfer (op1, 1 ms behind op0) has wait > 0.
        assert folded == {"op1;wait:dev": 1_000_000}

    def test_zero_wait_records_drop_out(self):
        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env).install()

        def op(env):
            tr = col.trace("op")
            yield srv.serve(1e-3)  # uncontended: wait == 0
            tr.finish()

        env.process(op(env))
        env.run()
        assert fold_waits(col.spans, tracer.records) == {}


class TestRendering:
    def test_render_sorted_and_newline_terminated(self):
        text = render_collapsed({"b;x": 2, "a": 1})
        assert text == "a 1\nb;x 2\n"

    def test_write_to_path_and_file_object(self, tmp_path):
        folded = {"a;b": 10}
        p = tmp_path / "f.txt"
        assert write_collapsed(str(p), folded) == str(p)
        assert p.read_text() == "a;b 10\n"
        buf = io.StringIO()
        assert write_collapsed(buf, folded) is None
        assert buf.getvalue() == "a;b 10\n"


class TestGoldenFig5:
    """Pin the exact collapsed-stack output of a small deterministic cell."""

    def test_golden_collapsed_stacks(self):
        from repro.bench.runner import run_fig5_doctored

        run = run_fig5_doctored("tcp", "dpu", "randread", 4096, 2,
                                runtime=0.004, sample_every=4,
                                observe_sampler=False)
        text = render_collapsed(fold_spans(run.collector.spans))
        with open(os.path.join(DATA, "flame_fig5_golden.txt")) as fh:
            golden = fh.read()
        assert text == golden
        # The wait-weighted flame blames the Arm RX path on this cell.
        waits = fold_waits(run.collector.spans, run.tracer.records)
        assert any("wait:dpu.arm_rx" in k for k in waits)


class TestDiffFolded:
    def test_diff_with_itself_is_empty(self):
        folded = {"a;b": 10, "a;c": 20}
        assert diff_folded(folded, folded) == {}

    def test_one_sided_stacks_zero_filled(self):
        diff = diff_folded({"gone": 5, "same": 7}, {"new": 3, "same": 7})
        assert diff == {"gone": (5, 0), "new": (0, 3)}

    def test_changed_weights_keep_both_sides(self):
        assert diff_folded({"a": 5}, {"a": 9}) == {"a": (5, 9)}

    def test_diff_of_real_runs_is_antisymmetric(self):
        env1, env2 = Environment(), Environment()
        f1 = fold_spans(make_tree(env1).spans)
        col2 = SpanCollector(env2)
        tr = col2.trace("root")
        a = tr.root.child("a")
        advance(env2, 2e-3)  # 'a' runs 1 ms longer than in make_tree
        a.finish()
        tr.finish()
        f2 = fold_spans(col2.spans)
        fwd = diff_folded(f1, f2)
        rev = diff_folded(f2, f1)
        assert set(fwd) == set(rev)
        for stack, (x, y) in fwd.items():
            assert rev[stack] == (y, x)

    def test_render_is_sorted_two_count_lines(self):
        text = render_diff_collapsed({"b;x": (2, 4), "a": (1, 0)})
        assert text == "a 1 0\nb;x 2 4\n"

    def test_write_to_path_and_file_object(self, tmp_path):
        diff = {"a;b": (10, 3)}
        p = tmp_path / "d.txt"
        assert write_diff_collapsed(str(p), diff) == str(p)
        assert p.read_text() == "a;b 10 3\n"
        buf = io.StringIO()
        assert write_diff_collapsed(buf, diff) is None
        assert buf.getvalue() == "a;b 10 3\n"


class TestChromeTraceCounterTracks:
    def test_wait_series_become_valid_counter_tracks(self):
        from repro.sim.chrometrace import build_chrome_trace, validate_chrome_trace

        env = Environment()
        col = SpanCollector(env)
        srv = FifoServer(env, name="dev")
        tracer = WaitTracer(env).install()

        def first(env):
            tr = col.trace("op0")
            yield srv.serve(1e-3)
            tr.finish()

        def second(env):
            yield env.timeout(5e-4)
            tr = col.trace("op1")
            yield srv.serve(1e-3)
            tr.finish()

        env.process(first(env))
        env.process(second(env))
        env.run()
        doc = build_chrome_trace(spans=col.spans,
                                 extra_series=tracer.wait_series())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["n_counter_tracks"] == 1
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all(e["name"] == "wait.dev" for e in counters)
        assert counters[-1]["args"]["wait.dev"] == pytest.approx(5e-4)
