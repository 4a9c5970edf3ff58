"""System-wide telemetry: snapshots *and* continuous time series.

Both are views over the environment's component registry
(:mod:`repro.sim.registry`).  :func:`snapshot` is a structured report —
per-node CPU and lock utilizations, NIC port throughput, NVMe device
busy fractions, engine xstream load, data plane counters, tenancy stats
— with a printable table.  :func:`observe` attaches a
:class:`~repro.sim.timeseries.Sampler` with the standard probe set, the
utilization-over-time curves in which the paper's temporal phenomena,
like the DPU Arm-RX bottleneck of Fig. 5, show up.
"""

from __future__ import annotations

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

    name: str
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
            devs.add_row(d.name, [
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
    reg = env.components
    report = SystemReport(
        now=env.now,
        sim_events_processed=env.events_processed,
        sim_timeouts_recycled=env.timeouts_recycled,
    )
    for c in reg.of_kind("node"):
        node = c.obj
        report.nodes.append(NodeReport(
            name=c.name,
            cpu_utilization=node.cpu.utilization(),
            tcp_rx_utilization=node.tcp_rx_cpu.utilization(),
            lock_utilization={
                sec.name: sec.obj.utilization()
                for sec in reg.of_kind("section") if sec.node == c.name
            },
            dram_used_bytes=node.dram.used_bytes,
            port_tx_bytes=node.port.bytes_sent(),
            port_rx_bytes=node.port.bytes_received(),
        ))
    for c in reg.of_kind("nvme"):
        dev = c.obj
        report.devices.append(DeviceReport(
            name=c.name,
            utilization=dev.utilization(),
            read_bytes=dev.reads.bytes,
            write_bytes=dev.writes.bytes,
        ))
    xs = [c.obj for c in reg.of_kind("xstream")]
    if env.now > 0 and xs:
        report.xstream_utilization = (fsum(x.busy_time for x in xs)
                                      / (env.now * len(xs)))
    report.degraded_reads = system.engine.degraded_reads
    fx = env._faults
    if fx is not None:
        report.retries = fx.stats.retries
        report.reconnects = fx.stats.reconnects
        report.fault_downtime = fx.stats.fault_downtime
    dp = system.service.data_plane
    report.data_plane_read_bytes = dp.reads.bytes
    report.data_plane_write_bytes = dp.writes.bytes
    report.staged_peak_bytes = dp.staged.peak_bytes
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

    Every registry component, also one that joins later (a TCP stack
    section is built with its first connection), gets probes named
    after it: ``<name>.busy`` for CPU pools, sections, port pipes and
    NVMe devices; ``<name>.bytes`` for pipes; an in-flight station (the
    Little's-law check) per NVMe device.  The engine adds
    ``engine.xstreams.busy`` and the ``engine.rpc`` station; the client
    node its data-plane probes and ``<node>.cpu`` station.
    """
    def probe(c) -> None:
        obj, cap, node = c.obj, c.capacity, c.node
        if c.kind in ("cpu", "section", "pipe", "nvme"):
            sampler.add_probe(f"{c.name}.busy", lambda: obj.busy_time / cap,
                              kind=UTILIZATION, node=node)
        if c.kind == "pipe":
            sampler.add_probe(f"{c.name}.bytes",
                              lambda: float(obj.bytes_moved),
                              kind=RATE, unit="B/s", node=node)
        elif c.kind == "nvme":
            stats = StationStats(c.name)
            obj.attach_stats(stats)
            sampler.add_station(c.name, stats, node=node)
        elif c.kind == "engine":
            sampler.add_probe(
                "engine.xstreams.busy",
                lambda: fsum(t.xstream.busy_time for t in obj.targets) / obj.n_targets,
                kind=UTILIZATION, node=node,
            )
            rpc_stats = StationStats("engine.rpc")
            obj.rpc.attach_stats(rpc_stats)
            sampler.add_station("engine.rpc", rpc_stats, node=node)

    system.env.components.subscribe(probe)
    dp = system.service.data_plane
    cname = system.client_node.name
    sampler.add_probe(f"{cname}.dp.staged", lambda d=dp: d.staged.used_bytes,
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
