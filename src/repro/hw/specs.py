"""Hardware specifications and performance-model calibration constants.

Everything the simulation needs to know about the paper's testbed (§4.1)
lives here, in one place, with the reasoning recorded next to each number.
Two kinds of constants coexist:

* **Datasheet values** — link rates, core counts, memory sizes, and the
  NVIDIA GPU generation table (paper Table 1).
* **Calibration values** — per-operation software costs chosen so that the
  simulated stack reproduces the *measured ceilings* the paper reports
  (Fig. 3 local FIO, Fig. 4 remote SPDK, Fig. 5 end-to-end DFS).  These are
  not predictions; they are the knobs that make the synthetic testbed
  behave like the physical one, as allowed by the reproduction brief.

Units: bytes, seconds.  ``KIB``/``MIB``/``GIB`` are binary; network *rates*
are decimal bits-per-second converted to bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "US",
    "NS",
    "NvmeSpec",
    "HostSpec",
    "LinkSpec",
    "TransportCosts",
    "GpuSpec",
    "NVME_SSD",
    "EPYC_HOST",
    "BLUEFIELD3",
    "PAPER_LINK",
    "TCP_COSTS",
    "RDMA_COSTS",
    "IOURING_PATH",
    "SPDK_PATH",
    "DAOS_PATH",
    "GPU_GENERATIONS",
]

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

US = 1e-6  # one microsecond in seconds
NS = 1e-9  # one nanosecond in seconds


# ---------------------------------------------------------------------------
# NVMe SSD
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class NvmeSpec:
    """One NVMe SSD.

    The device is modeled as a FIFO serializer whose per-operation cost is
    ``max(size / bandwidth, 1 / iops_cap)`` plus an access latency paid in
    parallel (it delays completion but does not consume device throughput).

    Calibration: the paper's local io_uring runs plateau at ~5.6 GiB/s
    sequential read / ~2.7 GiB/s write per device (Fig. 3a) while the
    user-space SPDK/DFS paths reach ~6.4 GiB/s on the same drive (Fig. 5b)
    — the difference is the kernel block layer, which we model as a
    path-efficiency factor in :data:`IOURING_PATH`, so the *raw* device is
    calibrated to the user-space ceiling.
    """

    name: str = "nvme-1.6tb"
    capacity_bytes: int = 1600 * 10**9
    read_bw: float = 6.45 * GIB  # raw sequential read, user-space ceiling
    write_bw: float = 2.9 * GIB  # raw sequential write
    read_iops_cap: float = 650_000.0  # 4 KiB random read media cap
    write_iops_cap: float = 600_000.0  # 4 KiB random write media cap
    read_latency: float = 78 * US  # NAND access latency floor
    write_latency: float = 18 * US  # write-cache absorbed

    def access_latency(self, is_write: bool) -> float:
        """Parallel completion latency for one operation."""
        return self.write_latency if is_write else self.read_latency


#: The paper's storage server uses 4x NVMe SSDs, 6.4 TB total (§4.1).
NVME_SSD = NvmeSpec()


# ---------------------------------------------------------------------------
# CPU complexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class HostSpec:
    """A CPU complex (x86 host, BlueField-3 Arm SoC, or storage server).

    ``cycle_factor`` scales every per-operation CPU cost relative to the
    x86 baseline; ``lock_factor`` additionally scales costs in *serialized*
    sections (locks, single progress threads), which suffer more on the
    A78's weaker single-thread performance and cache hierarchy.

    ``tcp_rx_cores``/``tcp_rx_byte_factor`` encode the paper's central DPU
    observation: the BlueField-3 TCP *receive* path bottlenecks (§4.4,
    "good TX, weak RX"), because RX processing (softirq + copy) lands on a
    small number of Arm cores with much higher per-byte cost.
    """

    name: str
    cores: int
    dram_bytes: int
    cycle_factor: float = 1.0
    lock_factor: float = 1.0
    tcp_rx_cores: int = 4
    tcp_rx_byte_factor: float = 1.0


#: Dual-socket AMD EPYC 7443 client host with a 200 Gb ConnectX-6: 48
#: physical cores, 251 GiB (§4.1).
#: We expose physical cores; SMT adds nothing in these I/O-bound runs.
EPYC_HOST = HostSpec(
    name="epyc-7443",
    cores=48,
    dram_bytes=251 * GIB,
    cycle_factor=1.0,
    lock_factor=1.0,
    tcp_rx_cores=4,
    tcp_rx_byte_factor=1.0,
)

#: NVIDIA BlueField-3 (ConnectX-7 based, §2.5): 16 Arm Cortex-A78AE cores,
#: 30 GiB DRAM (§4.1).
#: cycle_factor 2.2: A78AE at ~2 GHz vs EPYC Zen3 at ~2.85 GHz plus lower
#: IPC on the I/O-heavy paths; lock_factor 2.5: serialized sections
#: (contended atomics, LLC misses) degrade more than straight-line code —
#: this drives both the DPU TCP IOPS cap (2 us -> 5 us => ~200 K, Fig. 5c
#: bottom) and the DPU RDMA progress-context cap (1 us -> 2.5 us =>
#: ~400 K, the 20-40 % gap of Fig. 5d).  tcp_rx: RX processing confined
#: to 2 cores at 3.5x per-byte cost => ~2.1 GiB/s receive ceiling, the
#: 1.6-3.1 GiB/s read cap of Fig. 5a (bottom).
BLUEFIELD3 = HostSpec(
    name="bluefield-3",
    cores=16,
    dram_bytes=30 * GIB,
    cycle_factor=2.2,
    lock_factor=2.5,
    tcp_rx_cores=2,
    tcp_rx_byte_factor=3.5,
)

#: Storage server: 2 NUMA nodes, 128 cores; experiments pinned to NUMA 0
#: (64 cores) with 4 NVMe SSDs and a ConnectX-6 (§4.1).
STORAGE_SERVER = HostSpec(
    name="storage-server",
    cores=64,
    dram_bytes=251 * GIB,
    cycle_factor=1.0,
    lock_factor=1.0,
)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LinkSpec:
    """A switched network path between two nodes.

    The paper's client and storage server connect through a 100 Gbps
    switch, which "constrains the maximum throughput especially when
    multiple SSDs are enabled" (§4.1).
    """

    name: str = "switch-100g"
    rate_bits: float = 100e9  # 100 Gbps switch port
    propagation: float = 1.5 * US  # one-way switch + wire latency
    chunk_bytes: int = 64 * KIB  # simulation interleave granularity

    @property
    def rate_bytes(self) -> float:
        """Raw link rate in bytes/second (11.64 GiB/s for 100 Gbps)."""
        return self.rate_bits / 8.0


PAPER_LINK = LinkSpec()


# ---------------------------------------------------------------------------
# Transport cost models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TransportCosts:
    """Per-operation and per-byte software costs of one transport.

    All CPU costs are expressed for the x86 baseline and are scaled by each
    host's ``cycle_factor``/``lock_factor``/``tcp_rx_byte_factor``.

    * ``tx_cpu_per_op`` / ``rx_cpu_per_op`` — parallelizable per-message
      CPU work on the sending/receiving host (syscalls, interrupts,
      doorbells, CQ polling).
    * ``tx_cpu_per_byte`` / ``rx_cpu_per_byte`` — copy/checksum work; zero
      for RDMA (zero-copy, kernel bypass).
    * ``stack_serial_per_op`` — cost in the host-wide serialized section of
      the stack (TCP: softirq/socket locks; RDMA: none).
    * ``goodput_efficiency`` — payload/wire ratio through the link
      (headers, acks, retransmit headroom).
    * ``per_conn_byte_cost`` — serialized per-connection/QP processing; for
      TCP this is the classic single-stream ceiling, for RDMA the NIC
      processes at line rate.
    * ``rtt_overhead`` — extra request/response latency of the stack
      beyond wire propagation.
    * ``rendezvous_threshold`` — messages above this size use a rendezvous
      (RTS/CTS) exchange costing one extra RTT but enabling zero-copy.
    """

    name: str
    tx_cpu_per_op: float
    rx_cpu_per_op: float
    tx_cpu_per_byte: float
    rx_cpu_per_byte: float
    stack_serial_per_op: float
    goodput_efficiency: float
    per_conn_byte_cost: float
    rtt_overhead: float
    rendezvous_threshold: Optional[int] = None


#: Kernel TCP (ofi+tcp / ucx+tcp providers).
#: Calibration: 8 us/op per side -> ~125 K 4 KiB IOPS per core;
#: 1 us serialized stack cost per message (one request + one response per
#: I/O -> 2 us/IO) -> ~500 K IOPS/host ceiling (Fig. 5c top), x2.5 on the
#: DPU -> ~200 K (Fig. 5c bottom); 0.17 ns/B per-connection processing ->
#: ~5.5 GiB/s single-stream (Fig. 5a top, 1 SSD); RX copies at 0.25 ns/B
#: bound 1-core receive to ~3.7 GiB/s (Fig. 4a at 1 client core).
TCP_COSTS = TransportCosts(
    name="tcp",
    tx_cpu_per_op=8.0 * US,
    rx_cpu_per_op=8.0 * US,
    tx_cpu_per_byte=0.10 * NS,
    rx_cpu_per_byte=0.25 * NS,
    stack_serial_per_op=1.0 * US,
    goodput_efficiency=0.88,
    per_conn_byte_cost=0.17 * NS,
    rtt_overhead=28.0 * US,
    rendezvous_threshold=None,
)

#: RDMA verbs (ucx+rc / ucx+dc_x / ofi+verbs providers, IB or RoCEv2).
#: Calibration: 1.6 us post+poll per op on the initiator, 1.0 us on the
#: target (SPDK/engine polls its CQ); no per-byte CPU anywhere (zero-copy
#: DMA); goodput 0.93 (RoCE headers + ECN headroom) -> ~10.8 GiB/s on the
#: 100 Gb link (Fig. 5b, 4 SSDs); rendezvous above 16 KiB.
RDMA_COSTS = TransportCosts(
    name="rdma",
    tx_cpu_per_op=1.6 * US,
    rx_cpu_per_op=1.0 * US,
    tx_cpu_per_byte=0.0,
    rx_cpu_per_byte=0.0,
    stack_serial_per_op=0.0,
    goodput_efficiency=0.93,
    per_conn_byte_cost=0.0,
    rtt_overhead=4.0 * US,
    rendezvous_threshold=16 * KIB,
)


# ---------------------------------------------------------------------------
# Storage software path costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StoragePathCosts:
    """Software costs of one storage stack layer (x86 baseline).

    * ``submit_cpu_per_op`` — per-I/O cost on the submitting thread.
    * ``complete_cpu_per_op`` — per-I/O completion-path cost.
    * ``read_bw_efficiency`` / ``write_bw_efficiency`` — fraction of raw
      device bandwidth the path can extract (kernel block layer tax).
    * ``serial_per_op`` — host-wide serialized cost (e.g. the DAOS client's
      single event-queue progress context).
    """

    name: str
    submit_cpu_per_op: float
    complete_cpu_per_op: float
    read_bw_efficiency: float = 1.0
    write_bw_efficiency: float = 1.0
    serial_per_op: float = 0.0


#: Local kernel io_uring path (Fig. 3).  11.5 us/op per job thread gives
#: the measured ~80 K IOPS per job; the block-layer efficiency factors
#: reduce the raw 6.45/2.9 GiB/s device to the observed 5.6/2.75 GiB/s.
IOURING_PATH = StoragePathCosts(
    name="io_uring",
    submit_cpu_per_op=7.5 * US,
    complete_cpu_per_op=4.0 * US,
    read_bw_efficiency=0.87,
    write_bw_efficiency=0.95,
)

#: SPDK user-space NVMe path (Fig. 4): polled, no syscalls, full raw
#: bandwidth; 2.4 us submit + 1.6 us complete -> ~250 K IOPS per core
#: initiator-side; target-side processing is 1 us/op on its poller.
SPDK_PATH = StoragePathCosts(
    name="spdk",
    submit_cpu_per_op=2.4 * US,
    complete_cpu_per_op=1.6 * US,
    read_bw_efficiency=1.0,
    write_bw_efficiency=1.0,
)

#: DAOS/DFS client+engine software (Fig. 5): DFS translation + object I/O
#: dispatch on the client (6 us/op) and VOS/engine service on the server
#: (5 us/op, on engine xstreams).  serial_per_op is the client's single
#: event-queue progress context: invisible on x86 (1 us -> 1 M cap, above
#: the 650 K media ceiling) but, scaled by BlueField's lock_factor 2.5,
#: it caps the DPU at ~400 K 4 KiB IOPS — the 20-40 % RDMA gap of Fig. 5d.
DAOS_PATH = StoragePathCosts(
    name="daos-dfs",
    submit_cpu_per_op=6.0 * US,
    complete_cpu_per_op=3.0 * US,
    read_bw_efficiency=1.0,
    write_bw_efficiency=1.0,
    serial_per_op=1.0 * US,
)


# ---------------------------------------------------------------------------
# GPU generations (paper Table 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GpuSpec:
    """One row of paper Table 1 (representative configurations)."""

    name: str
    architecture: str
    memory_gb: int
    memory_type: str
    mem_bw_gbs: float  # GB/s
    nvlink_gen: int
    nvlink_gbs: float  # per-GPU aggregate GB/s
    fp16_tflops: float
    fp8_tflops: Optional[float] = None
    fp4_tflops: Optional[float] = None

    @property
    def mem_bw_bytes(self) -> float:
        """HBM bandwidth in bytes/second."""
        return self.mem_bw_gbs * 1e9


#: Paper Table 1, verbatim.
GPU_GENERATIONS: Tuple[GpuSpec, ...] = (
    GpuSpec("P100", "Pascal", 16, "HBM2", 732, 1, 80, 21.2),
    GpuSpec("V100", "Volta", 32, "HBM2", 1134, 2, 300, 130.0),
    GpuSpec("A100", "Ampere", 80, "HBM2e", 2000, 3, 600, 624.0),
    GpuSpec("H100", "Hopper", 80, "HBM3", 3350, 4, 900, 2000.0, 4000.0),
    GpuSpec("H200", "Hopper", 141, "HBM3e", 4800, 4, 900, 2000.0, 4000.0),
    GpuSpec("B200", "Blackwell", 186, "HBM3e", 8000, 5, 1800, 5000.0, 10000.0, 20000.0),
)

#: Name -> spec lookup for Table 1 rows.
GPU_BY_NAME: Dict[str, GpuSpec] = {g.name: g for g in GPU_GENERATIONS}
