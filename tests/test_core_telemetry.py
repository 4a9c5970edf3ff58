"""Unit tests for the telemetry snapshot."""

import json

import pytest

from repro.core import Ros2Config, Ros2System
from repro.core.telemetry import SystemReport, snapshot
from repro.hw.specs import MIB
from repro.sim import Environment


def run_workload(client="dpu", transport="rdma"):
    env = Environment()
    system = Ros2System(env, Ros2Config(transport=transport, client=client,
                                        n_ssds=2))
    token = system.register_tenant("telemetry")

    def go(env):
        yield from system.start()
        session = yield from system.open_session(token)
        fh = yield from session.create("/t.dat")
        port = session.data_port()
        ctx = port.new_context()
        for i in range(16):
            yield from port.write(ctx, fh, i * MIB, nbytes=MIB)
        for i in range(16):
            yield from port.read(ctx, fh, i * MIB, MIB)

    p = env.process(go(env))
    env.run(until=p)
    return system


def test_snapshot_structure():
    system = run_workload()
    report = snapshot(system)
    assert isinstance(report, SystemReport)
    assert report.now > 0
    names = {n.name for n in report.nodes}
    assert names == {"dpu", "storage", "host"}
    assert len(report.devices) == 2


def test_snapshot_counts_data_plane_traffic():
    system = run_workload()
    report = snapshot(system)
    assert report.data_plane_write_bytes == 16 * MIB
    assert report.data_plane_read_bytes == 16 * MIB
    assert report.staged_peak_bytes >= MIB


def test_snapshot_devices_saw_io():
    system = run_workload()
    report = snapshot(system)
    assert sum(d.write_bytes for d in report.devices) == 16 * MIB
    assert sum(d.read_bytes for d in report.devices) == 16 * MIB


def test_tenant_stats_in_report():
    system = run_workload()
    report = snapshot(system)
    assert report.tenant_stats["telemetry"]["ops"] == 32
    assert report.tenant_stats["telemetry"]["bytes"] == 32 * MIB


def test_render_produces_tables():
    system = run_workload(transport="tcp")
    text = snapshot(system).render()
    assert "Nodes @" in text
    assert "NVMe devices" in text


def test_host_mode_snapshot_has_two_nodes():
    system = run_workload(client="host")
    report = snapshot(system)
    assert {n.name for n in report.nodes} == {"host", "storage"}


def test_system_report_to_dict_and_json():
    env = Environment()
    system = Ros2System(env, Ros2Config(transport="tcp", client="host"))

    def setup(env):
        yield from system.start()

    p = env.process(setup(env))
    env.run(until=p)
    report = snapshot(system)
    d = report.to_dict()
    assert d["now"] == env.now
    assert {n["name"] for n in d["nodes"]}  # at least one node
    doc = json.loads(json.dumps(d, indent=2))
    assert doc == json.loads(json.dumps(d, sort_keys=True))


def test_observe_on_real_system():
    from repro.core.telemetry import observe

    env = Environment()
    system = Ros2System(env, Ros2Config(transport="tcp", client="dpu",
                                        n_ssds=1))
    token = system.register_tenant("tl")
    sampler = observe(system, interval=1e-4)
    # The probes read counters: observing installs no wait tracer.
    assert env._wait_tracer is None

    def go(env):
        yield from system.start()
        session = yield from system.open_session(token)
        fh = yield from session.create("/tl.dat")
        port = session.data_port()
        ctx = port.new_context()
        for i in range(8):
            yield from port.write(ctx, fh, i * MIB, nbytes=MIB)

    p = env.process(go(env))
    env.run(until=p)
    sampler.stop()
    assert sampler.ticks > 0
    # Sequential 1 MiB writes: the NVMe busy series saw real load.
    assert sampler.series["nvme.ssd0.busy"].max() > 0.0
    assert env._wait_tracer is None
    doc = sampler.to_dict()
    assert set(doc["series"]) == set(sampler.series)


def test_observing_adds_no_component():
    """Views read the registry; none of them builds a station to read."""
    from repro.bench.runner import doctor_stations
    from repro.core.telemetry import observe

    system = run_workload(client="host")  # RDMA: no storage TCP stack
    reg = system.env.components
    before = [c.name for c in reg]
    assert "storage.tcp_stack" not in before
    snapshot(system)
    doctor_stations(system)
    assert system.env._wait_tracer is None
    observe(system).stop()
    assert [c.name for c in reg] == before
    # Nor does observing install a wait tracer.
    assert system.env._wait_tracer is None


def test_one_name_per_resource():
    """Every view of a doctored DPU-TCP cell names a resource the way the
    component registry does."""
    from repro.bench.runner import doctor_stations, run_fig5_doctored
    from repro.faults.plan import (FaultEvent, FaultInjector, FaultPlan,
                                   FaultTargetError)
    from repro.sim.spans import SpanCollector

    run = run_fig5_doctored("tcp", "dpu", "randread", 4096, 16, n_ssds=4,
                            runtime=0.004)
    env = run.system.env
    reg = env.components
    names = {c.name for c in reg}
    buckets = {c.bucket for c in reg}
    assert buckets - names == set()  # a shared bucket is a pool's name
    assert "dpu.arm_rx" in {c.bucket for c in reg.of_kind("section")}

    # Doctor stations are registry names or buckets; probes are registry
    # names plus a suffix.
    assert {s.name for s in doctor_stations(run.system)} <= names | buckets
    def registered(series):
        return any(series.startswith(n + ".") or series == n for n in names)
    assert all(registered(p) for p in run.sampler.series)
    assert {s.node for s in run.collector.spans} - {None} <= names

    # NVMe: one name in meters, span nodes, snapshot rows and faults.
    ssds = [f"nvme.ssd{i}" for i in range(4)]
    assert reg.names("nvme") == ssds
    devices = [c.obj for c in reg.of_kind("nvme")]
    assert [d.reads.name for d in devices] == [f"{n}.reads" for n in ssds]
    assert [d.writes.name for d in devices] == [f"{n}.writes" for n in ssds]
    assert [d.name for d in snapshot(run.system).devices] == ssds
    collector = SpanCollector(env)
    io = env.process(devices[2].submit(4096, False))
    io.span = collector.trace("io").root
    env.run(until=io)
    assert [s.node for s in collector.spans] == ["nvme.ssd2"]
    spike = FaultEvent(kind="nvme_latency_spike", target="nvme.ssd3", at=0.0)
    FaultInjector(env, FaultPlan(events=(spike,))).check_targets()
    old = FaultEvent(kind="nvme_latency_spike", target="nvme3", at=0.0)
    with pytest.raises(FaultTargetError, match="valid: " + ", ".join(ssds)):
        FaultInjector(env, FaultPlan(events=(old,))).check_targets()
