"""Tracing must be free when off: identical results, zero allocations.

The design rule in :mod:`repro.sim.spans` is that spans never schedule
events or touch the event loop, so an instrumented run is
*bit-identical* to a bare one, and the only hot-loop cost with no
collector attached is an ``is not None`` test (no Span objects are ever
created).
"""

import dataclasses
from types import SimpleNamespace

import pytest

import repro.sim.spans as spans_mod
from repro.bench.runner import doctor_stations, run_fig5_cell, run_fig5_doctored
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


def _fig5_cells():
    """Every Fig. 5 transport, client, workload and SSD count.

    4 KiB cells run ``randread``/``randwrite``, 1 MiB cells ``read``/
    ``write``.  An id reads ``ssds-rw-provider``, ending in ``-host`` for
    the host client (the DPU client otherwise).
    """
    return [
        pytest.param("fig5", provider, client, rw, ssds,
                     id="-".join([str(ssds), rw, provider]
                                 + (["host"] if client == "host" else [])))
        for client in ("dpu", "host")
        for provider in ("rdma", "tcp")
        for rw in ("read", "write", "randread", "randwrite")
        for ssds in (1, 4)
    ]


def _fig4_cells():
    return [pytest.param("fig4", provider, "host", rw, 1,
                         id=f"fig4-{rw}-{provider}")
            for provider, rw in (("ucx+rc", "randread"),
                                 ("ofi+tcp;ofi_rxm", "write"))]


def _fig3_cells():
    """4 MiB local I/Os over 4 SSDs: each splits into 4 NVMe pieces."""
    return [pytest.param("fig3", "io_uring", "host", rw, 4,
                         id=f"fig3-{rw}-4ssd")
            for rw in ("read", "write")]


def _run_cell(fig, provider, client, rw, ssds, observed, monkeypatch):
    """Run one cell, plain or observed, with per-op latency recorded.

    The observed Fig. 5 run is the doctor's with its sampler on: a wait
    tracer from *t = 0*, station recorders, and every measured request
    traced (``sample_every=1``).  That sends each event merge down its
    reference path: the pipe's chunk loop (tracer), the traced RDMA post,
    read and transmit and the TCP stream (spans).  An observed Fig. 3 or
    Fig. 4 cell gets a wait tracer and a ``SpanCollector(sample_every=1)``;
    its spans reach the NVMe array, which then runs a process per piece.
    Returns the result, every latency sample in record order, the station
    busy times, the final clock and the events dispatched.
    """
    from repro.bench import runner
    from repro.sim.monitor import LatencyRecorder
    from repro.sim.waits import WaitTracer
    from repro.workload.fio import run_fio

    envs, samples = [], []
    record = LatencyRecorder.record

    def recording(self, latency):
        samples.append((self.name, latency))
        record(self, latency)

    def run_fio_recorded(env, adapter, spec, collector=None):
        envs.append(env)
        if observed and collector is None:
            WaitTracer(env).install()
            collector = SpanCollector(env, sample_every=1)
        spec = dataclasses.replace(spec, record_latency=True)
        return run_fio(env, adapter, spec, collector=collector)

    bs = MIB if rw in ("read", "write") else 4096
    jobs, runtime = (8, 0.01) if bs == MIB else (2, 0.004)
    with monkeypatch.context() as patch:
        patch.setattr(LatencyRecorder, "record", recording)
        patch.setattr(runner, "run_fio", run_fio_recorded)
        if fig == "fig3":
            result = runner.run_fig3_cell(rw, 4 * MIB, 2, n_ssds=ssds,
                                          runtime=0.004)
        elif fig == "fig4":
            result = runner.run_fig4_cell(provider, rw, bs, 2, 2,
                                          runtime=runtime)
        elif observed:
            result = run_fig5_doctored(provider, client, rw, bs, jobs,
                                       n_ssds=ssds, runtime=runtime,
                                       sample_every=1).result
        else:
            result = run_fig5_cell(provider, client, rw, bs, jobs,
                                   n_ssds=ssds, runtime=runtime)
    (env,) = envs
    stations = doctor_stations(SimpleNamespace(env=env))
    return (result, samples, stations, env.now), env.events_processed


@pytest.mark.parametrize("fig,provider,client,rw,ssds",
                         _fig5_cells() + _fig4_cells() + _fig3_cells())
def test_observed_1mib_cell_matches_plain(fig, provider, client, rw, ssds,
                                          monkeypatch):
    """Every event merge equals its observed reference, bit for bit.

    The plain run merges: multi-chunk pipe transfers, fixed-delay wire
    hops, the NVMe join.  The observed run takes every reference path.
    Same result, latency samples, station busy times and clock; and the
    plain run dispatches fewer events, so a merge cannot silently stop
    firing.  (The name predates the 4 KiB, Fig. 3 and Fig. 4 cells.)
    """
    plain, plain_events = _run_cell(fig, provider, client, rw, ssds,
                                    False, monkeypatch)
    observed, observed_events = _run_cell(fig, provider, client, rw, ssds,
                                          True, monkeypatch)
    assert plain[0].total_ios > 0
    assert plain == observed
    assert plain_events < observed_events


@pytest.mark.parametrize("provider,rw", [("rdma", "write"), ("tcp", "read")])
def test_sampler_leaves_the_doctors_answer_alone(provider, rw):
    """Station recorders watch; they select no path.

    A doctored 1 MiB I/O over 4 SSDs usually splits on the NVMe array; its
    ``media.nvme`` span must keep the record of the piece it waited for
    with the sampler on as with it off.
    """
    runs = [run_fig5_doctored(provider, "dpu", rw, MIB, 8, n_ssds=4,
                              runtime=0.01, sample_every=1,
                              observe_sampler=observe)
            for observe in (False, True)]
    off, on = (run.tracer for run in runs)
    assert runs[1].sampler is not None
    assert "nvme.ssd0" in off.blame()
    assert on.blame() == off.blame()
    assert on.blame_components() == off.blame_components()
    assert ({k: v.to_dict() for k, v in on.aggregates.items()}
            == {k: v.to_dict() for k, v in off.aggregates.items()})
    assert len(on.records) == len(off.records)


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
