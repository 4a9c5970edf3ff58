"""Integration: the full observability stack on a real Fig. 5 cell.

These are the acceptance checks of the telemetry layer, run on the
instrumented runner every ``doctor`` invocation uses: a sampled run must
(1) satisfy Little's law at every instrumented station — proving the
sampling + downsampling pipeline reports the system that actually ran —
(2) export a schema-valid Perfetto trace carrying request spans, wait
counters and the telemetry counter tracks the paper's analysis needs,
and (3) show the bottleneck moving from the media during prefill to the
DPU's RX path in the measured window.
"""

import pytest

from repro.bench.runner import run_fig5_doctored
from repro.sim.chrometrace import build_chrome_trace, validate_chrome_trace
from repro.sim.timeseries import UTILIZATION


@pytest.fixture(scope="module")
def observed():
    """One instrumented TCP/DPU 4 KiB randread cell, shared by the tests."""
    return run_fig5_doctored("tcp", "dpu", "randread", 4096, 16,
                             runtime=0.02, sample_every=20)


def test_littles_law_holds_at_every_station(observed):
    law = observed.sampler.littles_law(tolerance=0.05)
    assert law, "no stations instrumented"
    checked = {k: v for k, v in law.items() if v["checked"]}
    assert checked, "no station saw enough arrivals to check"
    for name, row in checked.items():
        assert row["ok"], (
            f"{name}: L={row['L_sampled']:.3f} vs "
            f"lambda*W={row['lambda_W']:.3f} "
            f"(rel_err={row['rel_err'] * 100:.1f}%)")


def test_sampled_series_cover_the_required_signals(observed):
    names = set(observed.sampler.series)
    # CPU, NVMe queue depth, NIC, Arm-core/TCP-RX load, in-flight RPCs.
    assert any(".cpu.busy" in n for n in names)
    assert any(n.startswith("nvme.ssd") and n.endswith(".in_flight")
               for n in names)
    assert "net.dpu.tx.busy" in names and "net.dpu.rx.bytes" in names
    assert {"dpu.arm_rx.busy", "dpu.tcp_stack.busy"} <= names
    assert "engine.rpc.in_flight" in names
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
    means = {name: s.time_weighted_mean(t0, t1)
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
