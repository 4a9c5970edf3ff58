"""What an observed cell keeps per sampled span and per wait record.

A finished span is a row of the :class:`~repro.sim.spans.SpanCollector`
and a wait booking a row of the :class:`~repro.sim.waits.WaitTracer`:
``array`` columns, not one Python object each.  This test runs the
doctored 4 KiB read cell of ``tests/test_perf_budget.py`` (DPU client,
2 jobs, seed 7, the wait tracer and 1-in-20 request spans on, no
sampler) at a window W and at 4W, drained, with ``tracemalloc`` on.  The
bytes still allocated from ``repro/sim/spans.py`` and
``repro/sim/waits.py`` grow by the rows the longer window added, so
their growth over the growth in finished spans and in records is the
cost of one row; the tables of interned stages and causes are fixed
costs and cancel.

As objects, a span kept 158.7 / 168.0 B traced here on TCP / RDMA
(~176 B counting the boxed floats and ints allocated elsewhere) and a
record ~97 B (~146 B).  As rows, a span keeps 56 B of columns and a
record 48 B, plus the columns' over-allocation: 58.0 / 57.0 B and
49.6 / 50.8 B.  The
bounds are those figures plus 5 %, measured on CPython 3.11 like the
call counts.

The second test checks that nothing keeps a ``Span`` once it finishes:
after the run, the ``Span`` objects alive (the cycle collector off, so
garbage counts too) are exactly the spans opened and never finished.
"""

import gc
import tracemalloc

import pytest

import repro.sim.spans as spans_mod
from repro.bench import runner
from repro.sim.spans import Span

#: Traced bytes per finished span and per wait record: (measured, bound).
ROW_BYTES = {
    "tcp": ((58.0, 49.6), (58.0 * 1.05, 49.6 * 1.05)),
    "rdma": ((57.0, 50.8), (57.0 * 1.05, 50.8 * 1.05)),
}

#: Simulated window of the shorter run, in seconds.
WINDOW = 0.004


def _doctored(provider, window):
    run = runner.run_fig5_doctored(provider, "dpu", "randread", 4096, 2,
                                   runtime=window, seed=7,
                                   observe_sampler=False)
    run.system.env.run()
    return run


def _held(provider, window):
    """``(bytes from spans.py, bytes from waits.py, spans, records)``
    still allocated after the drained cell."""
    gc.collect()
    tracemalloc.start()
    try:
        run = _doctored(provider, window)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = {}
    for name in ("spans", "waits"):
        f = tracemalloc.Filter(True, f"*/repro/sim/{name}.py")
        held[name] = sum(st.size for st in snapshot.filter_traces([f])
                         .statistics("filename"))
    return (held["spans"], held["waits"], len(run.collector.spans),
            len(run.tracer.records))


@pytest.mark.parametrize("provider", sorted(ROW_BYTES))
def test_a_finished_span_and_a_record_are_rows(provider):
    (span_set, record_set), (span_bound, record_bound) = ROW_BYTES[provider]
    short = _held(provider, WINDOW)
    long = _held(provider, 4 * WINDOW)
    spans, records = long[2] - short[2], long[3] - short[3]
    assert spans > 500 and records > 500
    per_span = (long[0] - short[0]) / spans
    per_record = (long[1] - short[1]) / records
    assert per_span <= span_bound, (
        f"{provider}: a finished span keeps {per_span:.1f} B, over the "
        f"bound {span_bound:.1f} (set at {span_set})")
    assert per_record <= record_bound, (
        f"{provider}: a wait record keeps {per_record:.1f} B, over the "
        f"bound {record_bound:.1f} (set at {record_set})")


@pytest.mark.parametrize("provider", sorted(ROW_BYTES))
def test_no_span_outlives_its_finish(provider):
    gc.collect()
    gc.disable()
    try:
        first = next(spans_mod._span_ids)
        run = _doctored(provider, WINDOW)
        opened = next(spans_mod._span_ids) - first - 1
        alive = [o for o in gc.get_objects()
                 if isinstance(o, Span) and o.collector is run.collector]
    finally:
        gc.enable()
    finished = len(run.collector.spans)
    assert finished > 0
    assert all(s.t_end is None for s in alive)
    assert len(alive) == opened - finished
