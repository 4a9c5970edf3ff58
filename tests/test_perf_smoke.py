"""Tracing must be free when off: identical results, zero allocations.

The design rule in :mod:`repro.sim.spans` is that spans never schedule
events or touch the event loop, so an instrumented run is
*bit-identical* to a bare one, and the only hot-loop cost with no
collector attached is an ``is not None`` test (no Span objects are ever
created).  When on, observation selects no slower path: an observed
cell dispatches the events of its plain twin.
"""

import dataclasses
import os
from types import SimpleNamespace

import pytest

import repro.sim.spans as spans_mod
from repro.bench.campaign import cell_record, normalize_cell, run_cell
from repro.bench.runner import doctor_stations, run_fig5_doctored
from repro.hw.nvme import NvmeArray
from repro.sim import SpanCollector
from repro.sim.queues import BandwidthPipe
from tests.reference import chunk_loop_transfer, process_per_piece_submit

MIB = 1 << 20


def _plain(transport, client, rw, bs, numjobs, **knobs):
    """An unobserved Fig. 5 cell's result, as the ``fig5`` subcommand
    runs it."""
    config = normalize_cell(dict(knobs, observe=False, transport=transport,
                                 client=client, rw=rw, bs=bs,
                                 numjobs=numjobs))
    return run_cell(config).result


def _cell():
    return _plain("tcp", "dpu", "randread", 4096, 2, runtime=0.004)


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


def _patch_reference(patch, fig):
    """Patch in the reference of the closed form a cell leans on: every
    bandwidth pipe runs the chunk-per-event loop (Fig. 4 and Fig. 5), or
    the NVMe array runs a process per piece (Fig. 3, whose 4 MiB I/Os
    split over 4 SSDs)."""
    if fig == "fig3":
        patch.setattr(NvmeArray, "submit", process_per_piece_submit)
    else:
        patch.setattr(BandwidthPipe, "transfer", chunk_loop_transfer)


def _run_cell(fig, provider, client, rw, ssds, observed, monkeypatch,
              reference=False):
    """Run one cell, plain or observed, with per-op latency recorded.

    The observed Fig. 5 run is the doctor's with its sampler on: a wait
    tracer from *t = 0*, station recorders, and every measured request
    traced (``sample_every=1``).  An observed Fig. 3 or Fig. 4 cell gets a
    wait tracer and a ``SpanCollector(sample_every=1)``; its spans reach
    the NVMe array.  ``reference`` patches in the cell's reference
    (:func:`_patch_reference`).  Returns the result, every latency sample
    in record order, the station busy times and the final clock, then the
    events dispatched and the sampler's ticks (0 without one).
    """
    from repro.bench import runner
    from repro.sim.monitor import LatencyRecorder
    from repro.sim.waits import WaitTracer
    from repro.workload.fio import run_fio

    envs, samples = [], []
    ticks = 0
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
        if reference:
            _patch_reference(patch, fig)
        if fig == "fig3":
            result = runner.run_fig3_cell(rw, 4 * MIB, 2, n_ssds=ssds,
                                          runtime=0.004)
        elif fig == "fig4":
            result = runner.run_fig4_cell(provider, rw, bs, 2, 2,
                                          runtime=runtime)
        elif observed:
            run = run_fig5_doctored(provider, client, rw, bs, jobs,
                                    n_ssds=ssds, runtime=runtime,
                                    sample_every=1)
            result, ticks = run.result, run.sampler.ticks
        else:
            result = _plain(provider, client, rw, bs, jobs, ssds=ssds,
                            runtime=runtime)
    (env,) = envs
    stations = doctor_stations(SimpleNamespace(env=env))
    return (result, samples, stations, env.now), env.events_processed, ticks


@pytest.mark.parametrize("fig,provider,client,rw,ssds",
                         _fig5_cells() + _fig4_cells() + _fig3_cells())
def test_observed_1mib_cell_matches_plain(fig, provider, client, rw, ssds,
                                          monkeypatch):
    """Observation changes no outcome, bit for bit, and selects no path.

    The plain and the observed run take the same paths: merged wire hops,
    scheduled multi-chunk pipe transfers, split NVMe I/Os joined inline.
    The observed run dispatches exactly the plain run's events, plus the
    sampler's ticks and its stop on a Fig. 5 cell.  The observed run with
    the cell's reference patched in (the chunk loop, or a process per NVMe
    piece) gives the same result, latency samples, station busy times and
    clock, at more events wherever the closed form has work, so it cannot
    silently stop firing.
    (The name predates the 4 KiB, Fig. 3 and Fig. 4 cells.)
    """
    plain, plain_events, _ = _run_cell(fig, provider, client, rw, ssds,
                                       False, monkeypatch)
    observed, observed_events, ticks = _run_cell(
        fig, provider, client, rw, ssds, True, monkeypatch)
    ref, ref_events, ref_ticks = _run_cell(fig, provider, client, rw, ssds,
                                           True, monkeypatch, reference=True)
    assert plain[0].total_ios > 0
    assert plain == observed == ref
    assert (ticks > 0) == (fig == "fig5")
    assert observed_events == plain_events + (ticks + 1 if ticks else 0)
    # A 4 KiB cell without a prefill (random writes, Fig. 4's raw reads)
    # moves no multi-chunk transfer.
    if rw == "randwrite" or (fig, rw) == ("fig4", "randread"):
        assert ref_events - ref_ticks == observed_events - ticks
    else:
        assert ref_events - ref_ticks > observed_events - ticks


@pytest.mark.parametrize("provider,rw,bs,ssds", [
    pytest.param("rdma", "write", MIB, 4, id="rdma-write"),
    pytest.param("tcp", "read", MIB, 4, id="tcp-read"),
    pytest.param("rdma", "read", MIB, 1, id="rdma-read-1ssd"),
    pytest.param("tcp", "read", MIB, 1, id="tcp-read-1ssd"),
    pytest.param("rdma", "randread", 4096, 1, id="rdma-randread-4k"),
    pytest.param("tcp", "randread", 4096, 1, id="tcp-randread-4k"),
])
def test_sampler_leaves_the_doctors_answer_alone(provider, rw, bs, ssds,
                                                 monkeypatch):
    """Station recorders watch; the wait tracer's answer does not move.

    The doctored cell runs with no sampler, and again with its sampler on
    and the chunk-per-event loop patched into every bandwidth pipe.  The
    scheduler's closed-form
    booking must give the chunk loop's blame, wait series and,
    per resource, the same records in the same order.  A doctored 1 MiB
    I/O over 4 SSDs usually splits on the NVMe array; its ``media.nvme``
    span keeps the record of the piece it waited for either way.
    """
    def answer(run):
        tracer = run.tracer
        records = {}
        for r in tracer.records:
            records.setdefault(r.resource, []).append(
                (r.kind, r.wait, r.service, r.latency, r.t, r.stage))
        return {
            "blame": tracer.blame(),
            "components": tracer.blame_components(),
            "series": {ts.name: ts.points() for ts in tracer.wait_series()},
            "records": records,
        }

    jobs, runtime = (8, 0.01) if bs == MIB else (4, 0.004)
    off = run_fig5_doctored(provider, "dpu", rw, bs, jobs, n_ssds=ssds,
                            runtime=runtime, sample_every=1,
                            observe_sampler=False)
    with monkeypatch.context() as patch:
        _patch_reference(patch, "fig5")
        on = run_fig5_doctored(provider, "dpu", rw, bs, jobs, n_ssds=ssds,
                               runtime=runtime, sample_every=1)
    assert on.sampler is not None
    assert off.result.to_dict() == on.result.to_dict()
    want, got = answer(on), answer(off)
    assert "nvme.ssd0" in got["blame"]
    assert any(name.startswith("net.") for name in got["records"])
    assert got == want


@pytest.mark.parametrize("provider,rw,bs,ssds", [
    pytest.param("rdma", "write", MIB, 4, id="rdma-write-1m-4ssd"),
    pytest.param("tcp", "randread", 4096, 1, id="tcp-randread-4k"),
])
def test_the_sampler_selects_no_path(provider, rw, bs, ssds):
    """A doctored cell with its sampler on dispatches the events of its
    sampler-off twin plus the sampler's own, one per tick and one for its
    stop, with an equal result."""
    jobs, runtime = (8, 0.01) if bs == MIB else (4, 0.004)
    off, on = (run_fig5_doctored(provider, "dpu", rw, bs, jobs, n_ssds=ssds,
                                 runtime=runtime, observe_sampler=sampler)
               for sampler in (False, True))
    assert on.sampler.ticks > 0
    assert on.result.total_ios > 0
    assert on.result == off.result
    assert on.system.env.events_processed \
        == off.system.env.events_processed + on.sampler.ticks + 1


def _ledger_configs():
    """The committed Fig. 5 campaign's cells, as the campaign runs them."""
    from repro.bench.campaign import expand_spec, load_spec

    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                        "campaigns", "fig5_ci.json")
    return [pytest.param(config, id=f"{config['transport']}-{config['rw']}-"
                                    f"{config['bs']}-{config['ssds']}ssd")
            for config in expand_spec(load_spec(path))]


@pytest.mark.parametrize("config", _ledger_configs())
def test_observed_ledger_cell_costs_what_its_plain_twin_costs(config):
    """Observation selects no slower path.

    Each committed Fig. 5 ledger cell runs doctored (wait tracer from
    *t = 0*, 1 request in 20 traced, no sampler) and as its plain
    ``observe: false`` twin.  The sampled requests' spans and records are
    booked in closed form and the pipes schedule their chunks under the
    tracer, so setup (the prefill), ramp and measured window dispatch
    exactly the plain run's events: the two records' ``cost`` is equal.
    """
    assert config["observe"]
    twin = normalize_cell(dict(
        {k: v for k, v in config.items() if k != "sample_every"},
        observe=False))
    observed, plain = run_cell(config), run_cell(twin)
    assert observed.result.total_ios == plain.result.total_ios > 0
    assert observed.result.phase_events == plain.result.phase_events
    cost = cell_record(config, observed)["cost"]
    assert cost == cell_record(twin, plain)["cost"]
    assert cost["drain"] == 0


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
