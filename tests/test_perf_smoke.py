"""Tracing must be free when off: identical results, zero allocations.

The design rule in :mod:`repro.sim.spans` is that spans never schedule
events or touch the event loop, so an instrumented run is
*bit-identical* to a bare one, and the only hot-loop cost with no
collector attached is an ``is not None`` test (no Span objects are ever
created).
"""

import pytest

import repro.sim.spans as spans_mod
from repro.bench.runner import run_fig5_cell, run_fig5_doctored
from repro.sim import SpanCollector

MIB = 1 << 20


def _cell():
    return run_fig5_cell("tcp", "dpu", "randread", 4096, 2, runtime=0.004)


def _doctored(sample_every):
    return run_fig5_doctored("tcp", "dpu", "randread", 4096, 2,
                             runtime=0.004, sample_every=sample_every,
                             observe_sampler=False)


def _outcome(result):
    """The result minus ``latency``, which only the doctored run records."""
    doc = result.to_dict()
    del doc["latency"]
    return doc


class TestTracedRunsAreBitIdentical:
    def test_same_result_with_and_without_collector(self):
        base = _cell()
        run = _doctored(sample_every=10)
        assert run.collector.traces_started > 0
        assert _outcome(run.result) == _outcome(base)

    def test_sampled_out_requests_do_not_perturb(self):
        """A collector that samples (almost) nothing == no collector."""
        base = _cell()
        # sample_every larger than the request count: only the very first
        # request is traced, every later trace() returns None.
        run = _doctored(sample_every=10_000_000)
        assert run.collector.traces_started == 1
        assert run.collector.requests_seen > 10
        assert _outcome(run.result) == _outcome(base)


@pytest.mark.parametrize("provider", ["rdma", "tcp"])
@pytest.mark.parametrize("rw", ["read", "write"])
@pytest.mark.parametrize("ssds", [1, 4])
def test_observed_1mib_cell_matches_plain(provider, rw, ssds):
    """The observed run moves every pipe chunk as its own event; the plain
    run schedules multi-chunk transfers analytically.  Same outcome."""
    base = run_fig5_cell(provider, "dpu", rw, MIB, 8, n_ssds=ssds,
                         runtime=0.01)
    run = run_fig5_doctored(provider, "dpu", rw, MIB, 8, n_ssds=ssds,
                            runtime=0.01, observe_sampler=False)
    assert base.total_ios > 0
    assert _outcome(run.result) == _outcome(base)


class TestZeroCostWhenOff:
    def test_no_spans_allocated_without_collector(self):
        """The global span-id counter must not move during an untraced run."""
        before = next(spans_mod._span_ids)
        _cell()
        after = next(spans_mod._span_ids)
        assert after == before + 1

    def test_unsampled_requests_allocate_no_spans(self):
        """Only the single sampled request (the first) allocates spans."""
        before = next(spans_mod._span_ids)
        run = _doctored(sample_every=10_000_000)
        after = next(spans_mod._span_ids)
        allocated = after - before - 1  # minus this probe's own next()
        # One trace's worth of spans (a few dozen stages), not one per I/O.
        assert run.collector.requests_seen > 10
        assert allocated <= 50

    def test_collector_absent_means_no_trace_kwarg_cost(self):
        """The bare runner never calls SpanCollector.trace."""
        calls = []
        orig = SpanCollector.trace
        SpanCollector.trace = lambda self, *a, **k: calls.append(1) or orig(
            self, *a, **k)
        try:
            _cell()
        finally:
            SpanCollector.trace = orig
        assert calls == []
