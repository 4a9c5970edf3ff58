"""Integration: the full observability stack on a real Fig. 5 cell.

These are the acceptance checks of the telemetry layer, run on the
instrumented runner every ``doctor`` invocation uses: a sampled run must
(1) satisfy Little's law on every station's servers, with the number in
service read off its ``.busy`` series (downsampled or not) and the
arrivals and service times from the station's own counters — so the
sampling and downsampling pipeline reports the system that ran — and a
run with every request sampled must book one wait-tracer reservation
for each one a station counted, (2) export a schema-valid Perfetto
trace carrying request spans, wait counters and the telemetry counter
tracks the paper's analysis needs, and (3) show the bottleneck moving
from the media during prefill to the DPU's RX path in the measured
window.
"""

import dataclasses
from collections import Counter

import pytest

from repro.bench.runner import run_fig5_doctored
from repro.sim.chrometrace import build_chrome_trace, validate_chrome_trace
from repro.sim.registry import STATION_KINDS
from repro.sim.spans import SpanCollector
from repro.sim.timeseries import UTILIZATION
from repro.sim.waits import RESERVE, WaitTracer
from tests.reference import window_mean


@pytest.fixture(scope="module")
def observed():
    """One instrumented TCP/DPU 4 KiB randread cell, shared by the tests.

    ``at_start`` and ``at_last_tick`` hold every station's own
    ``(busy_time, ops)`` when the sampler started and at its last tick.
    """
    from repro.core import telemetry

    orig = telemetry.observe
    at_start, at_last_tick = {}, {}

    def counters(system):
        return {c.name: (c.obj.busy_time, c.obj.ops)
                for c in system.env.components.of_kind(*STATION_KINDS)}

    def observe(system, **kwargs):
        sampler = orig(system, **kwargs)
        at_start.update(counters(system))
        sample_now = sampler.sample_now

        def tick():
            sample_now()
            at_last_tick.update(counters(system))

        sampler.sample_now = tick
        return sampler

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(telemetry, "observe", observe)
        run = run_fig5_doctored("tcp", "dpu", "randread", 4096, 16,
                                runtime=0.02, sample_every=20)
    run.at_start = at_start
    run.at_last_tick = at_last_tick
    return run


def test_littles_law_holds_at_every_station(observed):
    """Little's law on each station's servers over the sampled window, in
    its integral form: the area under the number in service, read off
    the ``<station>.busy`` series (downsampled or not), equals the
    arrivals times their mean service time, both from the station's own
    ``ops`` and ``busy_time``, up to float rounding."""
    series = observed.sampler.series
    merged = checked = 0
    for c in observed.system.env.components.of_kind(*STATION_KINDS):
        s = series.get(f"{c.name}.busy")
        if s is None:
            continue
        area = sum(v * dt for _t, dt, v in s.points())
        # A component that joins later (a TCP stack section) starts idle.
        busy0, ops0 = observed.at_start.get(c.name, (0.0, 0))
        busy1, ops1 = observed.at_last_tick[c.name]
        arrivals = ops1 - ops0
        mean_service = (busy1 - busy0) / arrivals if arrivals else 0.0
        assert c.capacity * area == pytest.approx(
            arrivals * mean_service, rel=1e-9, abs=1e-15), c.name
        merged += s.merges > 0
        checked += 1
    assert checked >= 10 and merged == checked
    assert observed.at_last_tick["dpu.arm_rx"][1] > 0


def test_stations_count_exactly_what_the_tracer_booked(monkeypatch):
    """With every request sampled, no ramp, and the run drained, the
    tracer books one reservation for each one a station counted: per
    blame bucket (the BF3 ``tcp_stack`` section books as ``dpu.arm_rx``),
    its ``reserve`` records are the ``ops`` its stations grew by from
    the first request on."""
    from repro.bench import runner

    system, spec = runner._build_fig5("tcp", "dpu", "randread", 4096, 16,
                                      runtime=0.003)
    spec = dataclasses.replace(spec, ramp_time=0.0)
    stations = system.env.components.of_kind
    at_start = {}
    run_fio = runner.run_fio

    def start_fio(*args, **kwargs):
        at_start.update((c.name, c.obj.ops)
                        for c in stations(*STATION_KINDS))
        return run_fio(*args, **kwargs)

    monkeypatch.setattr(runner, "run_fio", start_fio)
    tracer = WaitTracer(system.env).install()
    collector = SpanCollector(system.env, sample_every=1)
    runner.run_ros2_fio(system, spec, collector=collector)
    system.env.run()  # drain: every lane sees the stop flag and exits
    tracer.uninstall()
    assert collector.traces_started == collector.requests_seen > 0

    counted = Counter()
    for c in stations(*STATION_KINDS):
        # A section that joins later (a TCP stack section) starts at 0.
        counted[c.bucket] += c.obj.ops - at_start.get(c.name, 0)
    booked = Counter(r.resource for r in tracer.records
                     if r.kind == RESERVE and r.resource in counted)
    assert booked == counted
    assert counted["dpu.arm_rx"] > counted["nvme.ssd0"] > 0
def test_sampled_series_cover_the_required_signals(observed):
    names = set(observed.sampler.series)
    # CPU, NVMe, NIC, Arm-core/TCP-RX and engine load; no queue gauges.
    assert any(".cpu.busy" in n for n in names)
    assert "nvme.ssd0.busy" in names and "engine.xstreams.busy" in names
    assert "net.dpu.tx.busy" in names and "net.dpu.rx.bytes" in names
    assert {"dpu.arm_rx.busy", "dpu.tcp_stack.busy"} <= names
    assert not [n for n in names if n.endswith(".in_flight")]
    # Downsampling kept every series within its bound.
    for s in observed.sampler.series.values():
        assert len(s) < s.capacity


def test_perfetto_export_is_valid_and_complete(observed):
    doc = build_chrome_trace(observed.collector.spans, observed.sampler,
                             label="it",
                             extra_series=observed.tracer.wait_series())
    assert validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    counters = {e["name"] for e in events if e["ph"] == "C"}
    spans = [e for e in events if e["ph"] == "X"]
    assert len(counters) >= 5
    assert spans, "no span duration events exported"
    stages = {e["name"] for e in spans}
    assert "nvme" in stages or any("rpc" in s for s in stages)


def _busiest(sampler, t0, t1):
    """The utilization series with the highest mean over ``[t0, t1]``."""
    means = {name: window_mean(s, t0, t1)
             for name, s in sampler.series.items() if s.kind == UTILIZATION}
    name = min(means, key=lambda n: (-means[n], n))
    return name, means[name]


def test_phase_attribution_is_plausible(observed):
    # The sampler ran from t = 0 to the end of the measured window.
    t_end = observed.system.env.now
    measured_from = t_end - observed.spec.runtime
    warmup, _ = _busiest(observed.sampler, observed.sampler.t_start,
                         measured_from)
    steady, util = _busiest(observed.sampler, measured_from, t_end)
    # Warmup = prefill writes: an NVMe device dominates.
    assert warmup.startswith("nvme"), warmup
    # Steady 4 KiB randread over TCP through the DPU: the DPU's RX path
    # (Arm TCP cores or the tcp_stack lock) is the paper's bottleneck.
    assert steady.startswith("dpu."), steady
    assert util > 0.5


def test_determinism_identical_runs_identical_telemetry():
    """The same cell twice: bit-identical results *and* telemetry."""
    a = run_fig5_doctored("tcp", "dpu", "randread", 4096, 4, runtime=0.005)
    b = run_fig5_doctored("tcp", "dpu", "randread", 4096, 4, runtime=0.005)
    assert a.result.to_dict() == b.result.to_dict()
    assert a.sampler.to_dict() == b.sampler.to_dict()
