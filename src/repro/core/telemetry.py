"""System-wide telemetry: snapshots *and* continuous time series.

Operating a storage system means knowing where the time went.  This
module walks an assembled :class:`~repro.core.ros2.Ros2System` and
produces a structured report — per-node CPU and lock utilizations, NIC
port throughput, NVMe device busy fractions, engine xstream load, data
plane counters, tenancy stats — the same numbers the benches used when
diagnosing bottlenecks, packaged as a public API (and a printable table).

On top of the point-in-time :class:`SystemReport`, :func:`observe`
attaches a :class:`~repro.sim.timeseries.Sampler` with the standard probe
set (CPU pools, Arm TCP-RX cores, lock sections, NVMe queue depth and
busy fraction, NIC occupancy and byte rates, engine xstreams, data-plane
staging and byte rates, in-flight RPCs) — the utilization-over-time
curves in which the paper's temporal phenomena, like the DPU Arm-RX
bottleneck of Fig. 5, actually show up.
"""

from __future__ import annotations

import json
from math import fsum
from dataclasses import asdict, dataclass, field
from typing import Dict, List

from repro.bench.report import Table
from repro.sim.timeseries import GAUGE, RATE, UTILIZATION, Sampler, StationStats

__all__ = [
    "SystemReport",
    "snapshot",
    "install_probes",
    "observe",
]

GIB = 2**30


@dataclass(slots=True)
class NodeReport:
    """Utilization of one node's compute resources."""

    name: str
    cpu_utilization: float
    tcp_rx_utilization: float
    lock_utilization: Dict[str, float]
    dram_used_bytes: float
    port_tx_bytes: int
    port_rx_bytes: int


@dataclass(slots=True)
class DeviceReport:
    """One NVMe device's load."""

    index: int
    utilization: float
    read_bytes: int
    write_bytes: int


@dataclass(slots=True)
class SystemReport:
    """A full snapshot at one simulated instant."""

    now: float
    nodes: List[NodeReport] = field(default_factory=list)
    devices: List[DeviceReport] = field(default_factory=list)
    xstream_utilization: float = 0.0
    data_plane_read_bytes: int = 0
    data_plane_write_bytes: int = 0
    staged_peak_bytes: float = 0.0
    tenant_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Kernel cost counters (DESIGN.md §9): total dispatched simulation
    #: events and recycled Timeout objects.  Dividing events by completed
    #: IOs gives the events/IO figure the perf harness gates on.
    sim_events_processed: int = 0
    sim_timeouts_recycled: int = 0
    #: Recovery counters (DESIGN.md §14): all zero unless a fault plan
    #: was installed, so no-fault reports are unchanged.
    retries: int = 0
    reconnects: int = 0
    degraded_reads: int = 0
    fault_downtime: float = 0.0

    def to_dict(self) -> dict:
        """The whole snapshot as plain dicts/lists (JSON-serialisable)."""
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document (machine-readable telemetry)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """A printable multi-table report."""
        nodes = Table(f"Nodes @ t={self.now:.3f}s",
                      ["cpu", "tcp_rx", "hottest lock", "tx GiB", "rx GiB"],
                      row_header="node")
        for n in self.nodes:
            hottest = max(n.lock_utilization.items(), key=lambda kv: kv[1],
                          default=("-", 0.0))
            nodes.add_row(n.name, [
                f"{n.cpu_utilization * 100:.0f}%",
                f"{n.tcp_rx_utilization * 100:.0f}%",
                f"{hottest[0]} {hottest[1] * 100:.0f}%",
                f"{n.port_tx_bytes / GIB:.2f}",
                f"{n.port_rx_bytes / GIB:.2f}",
            ])
        devs = Table("NVMe devices", ["busy", "read GiB", "written GiB"],
                     row_header="device")
        for d in self.devices:
            devs.add_row(f"nvme{d.index}", [
                f"{d.utilization * 100:.0f}%",
                f"{d.read_bytes / GIB:.2f}",
                f"{d.write_bytes / GIB:.2f}",
            ])
        tail = (
            f"engine xstreams: {self.xstream_utilization * 100:.0f}% | "
            f"data plane: {self.data_plane_read_bytes / GIB:.2f} GiB read, "
            f"{self.data_plane_write_bytes / GIB:.2f} GiB written | "
            f"staging peak: {self.staged_peak_bytes / GIB:.3f} GiB\n"
            f"kernel: {self.sim_events_processed} events dispatched, "
            f"{self.sim_timeouts_recycled} timeouts recycled"
        )
        if (self.retries or self.reconnects or self.degraded_reads
                or self.fault_downtime):
            tail += (
                f"\nrecovery: {self.retries} retries, "
                f"{self.reconnects} reconnects, "
                f"{self.degraded_reads} degraded reads, "
                f"{self.fault_downtime * 1e3:.2f} ms fault downtime"
            )
        return nodes.render() + "\n\n" + devs.render() + "\n\n" + tail


def snapshot(system) -> SystemReport:
    """Collect a :class:`SystemReport` from a running Ros2System."""
    env = system.env
    report = SystemReport(
        now=env.now,
        sim_events_processed=env.events_processed,
        sim_timeouts_recycled=env.timeouts_recycled,
    )
    seen = set()
    for node in [system.client_node, system.server_node, system.launcher_node]:
        if node.name in seen:
            continue
        seen.add(node.name)
        report.nodes.append(NodeReport(
            name=node.name,
            cpu_utilization=node.cpu.utilization(),
            tcp_rx_utilization=node.tcp_rx_cpu.utilization(),
            lock_utilization={
                name: sec.utilization() for name, sec in node._locks.items()
            },
            dram_used_bytes=node.dram.used_bytes,
            port_tx_bytes=node.port.bytes_sent(),
            port_rx_bytes=node.port.bytes_received(),
        ))
    for dev in system.server_node.nvme.devices:
        report.devices.append(DeviceReport(
            index=dev.index,
            utilization=dev.utilization(),
            read_bytes=dev.reads.bytes,
            write_bytes=dev.writes.bytes,
        ))
    report.xstream_utilization = system.engine.xstream_utilization()
    report.degraded_reads = system.engine.degraded_reads
    fx = env._faults
    if fx is not None:
        report.retries = fx.stats.retries
        report.reconnects = fx.stats.reconnects
        report.fault_downtime = fx.stats.fault_downtime
    dp = system.service.data_plane
    report.data_plane_read_bytes = dp.reads.bytes
    report.data_plane_write_bytes = dp.writes.bytes
    report.staged_peak_bytes = dp.staged.peak
    report.tenant_stats = {
        name: dict(system.service.tenants._by_name[name].stats)
        for name in system.service.tenants.tenants()
    }
    return report


# ---------------------------------------------------------------------------
# Continuous telemetry: the standard probe set
# ---------------------------------------------------------------------------

def install_probes(system, sampler: Sampler) -> Sampler:
    """Register the standard probe set for an assembled Ros2System.

    One call wires every station :func:`snapshot` reports — plus the
    queueing stations behind the Little's-law self-check — into
    ``sampler``:

    * per node: CPU-pool busy fraction, the restricted TCP-RX core set
      (the DPU's Arm RX path), every serialized section existing at
      attach time (``tcp_stack`` is pre-created so the hot one is never
      missed), NIC TX/RX occupancy and byte rates;
    * per NVMe device: busy fraction and queue depth (a
      :class:`~repro.sim.timeseries.StationStats` attached to the command
      queue, also checked against ``L = λW``);
    * engine: mean xstream busy fraction and the in-flight RPC station;
    * data plane: staged bytes and read/write byte rates;
    * client: the submission CPU-pool station.
    """
    seen = set()
    for node in [system.client_node, system.server_node, system.launcher_node]:
        if node.name in seen:
            continue
        seen.add(node.name)
        name = node.name
        cpu = node.cpu
        sampler.add_probe(f"{name}.cpu.busy",
                          lambda c=cpu: c.busy_time / c.n_cores,
                          kind=UTILIZATION, node=name)
        rx = node.tcp_rx_cpu
        sampler.add_probe(f"{name}.tcp_rx.busy",
                          lambda r=rx: r.busy_time / r.n_cores,
                          kind=UTILIZATION, node=name)
        node.lock("tcp_stack")  # ensure the hottest section exists
        for lname, sec in node._locks.items():
            sampler.add_probe(f"{name}.lock.{lname}.busy",
                              lambda s=sec: s.busy_time,
                              kind=UTILIZATION, node=name)
        port = getattr(node, "port", None)
        if port is not None:
            sampler.add_probe(f"{name}.nic.tx.busy",
                              lambda p=port: p.tx.busy_time,
                              kind=UTILIZATION, node=name)
            sampler.add_probe(f"{name}.nic.rx.busy",
                              lambda p=port: p.rx.busy_time,
                              kind=UTILIZATION, node=name)
            sampler.add_probe(f"{name}.nic.tx.bytes",
                              lambda p=port: float(p.bytes_sent()),
                              kind=RATE, unit="B/s", node=name)
            sampler.add_probe(f"{name}.nic.rx.bytes",
                              lambda p=port: float(p.bytes_received()),
                              kind=RATE, unit="B/s", node=name)

    server = system.server_node
    for dev in server.nvme.devices:
        dname = f"nvme{dev.index}"
        sampler.add_probe(f"{dname}.busy", lambda d=dev: d.busy_time,
                          kind=UTILIZATION, node=server.name)
        stats = StationStats(dname)
        dev.attach_stats(stats)
        sampler.add_station(dname, stats, node=server.name)

    engine = system.engine
    sampler.add_probe(
        "engine.xstreams.busy",
        lambda e=engine: fsum(t.xstream.busy_time for t in e.targets) / e.n_targets,
        kind=UTILIZATION, node=server.name,
    )
    rpc_stats = StationStats("engine.rpc")
    engine.rpc.attach_stats(rpc_stats)
    sampler.add_station("engine.rpc", rpc_stats, node=server.name)

    dp = system.service.data_plane
    cname = system.client_node.name
    sampler.add_probe(f"{cname}.dp.staged", lambda d=dp: d.staged.level,
                      kind=GAUGE, unit="bytes", node=cname)
    sampler.add_probe(f"{cname}.dp.read.bytes",
                      lambda d=dp: float(d.reads.bytes),
                      kind=RATE, unit="B/s", node=cname)
    sampler.add_probe(f"{cname}.dp.write.bytes",
                      lambda d=dp: float(d.writes.bytes),
                      kind=RATE, unit="B/s", node=cname)
    client_stats = StationStats(f"{cname}.cpu")
    system.client_node.cpu.attach_stats(client_stats)
    sampler.add_station(f"{cname}.cpu", client_stats, node=cname)
    return sampler


def observe(system, interval: float = 1e-4, capacity: int = 512) -> Sampler:
    """Attach and start the standard sampler on a running system.

    ``interval`` is the sampling period in simulated seconds; ``capacity``
    bounds every series (older windows merge pairwise past it).  Returns
    the started :class:`~repro.sim.timeseries.Sampler`.
    """
    sampler = Sampler(system.env, interval=interval, capacity=capacity)
    install_probes(system, sampler)
    return sampler.start()
