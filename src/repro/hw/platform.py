"""Assembled nodes and the paper's testbed topology (§4.1).

A :class:`Node` bundles the per-host queueing stations every layer above
needs: the general core pool, the restricted TCP-RX core set, named
serialized sections, and a DRAM pool.  :class:`ComputeNode` adds a switch
port; :class:`StorageNode` adds the NVMe array and an SCM byte budget.

:func:`make_paper_testbed` builds the exact configurations evaluated in
the paper: an EPYC host client or a BlueField-3 DPU client, and the
storage server with 1 or 4 NVMe SSDs, all behind the 100 Gbps switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Optional

from repro.hw.cpu import CpuPool
from repro.hw.dram import DramPool
from repro.hw.nic import Port, Switch
from repro.hw.nvme import NvmeArray
from repro.hw.specs import (
    BLUEFIELD3,
    EPYC_HOST,
    GIB,
    NVME_SSD,
    PAPER_LINK,
    STORAGE_SERVER,
    HostSpec,
    NvmeSpec,
)
from repro.sim.core import Environment
from repro.sim.queues import FifoServer

__all__ = ["Node", "ComputeNode", "StorageNode", "ClusterTopology", "make_paper_testbed"]


class Node:
    """One host: cores, locks and DRAM."""

    def __init__(self, env: Environment, name: str, spec: HostSpec) -> None:
        self.env = env
        self.name = name
        self.spec = spec
        #: True for the BlueField-3's Arm complex (blame-bucket naming).
        self.is_arm_dpu = "bluefield" in spec.name.lower()
        #: General-purpose core pool (application + stack work).
        self.cpu = CpuPool(env, spec, name=f"{name}.cpu")
        #: Cores that TCP receive processing is confined to (softirq/NAPI).
        #: The pool factor is the platform's *total* per-byte RX penalty
        #: (it already subsumes the cycle factor for this specialized path).
        #: On the BlueField it is ``<node>.arm_rx``, the paper's Arm RX
        #: path (§4.4, Fig. 5), a bucket the stack section shares.
        self.tcp_rx_cpu = CpuPool(
            env,
            spec,
            n_cores=max(1, min(spec.tcp_rx_cores, spec.cores)),
            factor=spec.tcp_rx_byte_factor,
            name=f"{name}.arm_rx" if self.is_arm_dpu else f"{name}.tcp_rx",
        )
        self.dram = DramPool(env, spec.dram_bytes, name=f"{name}.dram")
        self._locks: Dict[str, FifoServer] = {}
        reg = env.components
        reg.add(name, "node", self, node=name)
        for pool in (self.cpu, self.tcp_rx_cpu):
            reg.add(pool.name, "cpu", pool, node=name, capacity=pool.n_cores)

    def lock(self, name: str) -> FifoServer:
        """Get or create the named host-wide serialized section.

        It joins the registry as ``<node>.<name>``, and its own name is
        its blame bucket: the BF3 ``tcp_stack`` section, the calibrated
        stand-in for the Arm kernel RX/stack path, books as
        ``<node>.arm_rx``, the bucket of the Arm-RX core pool.
        """
        sec = self._locks.get(name)
        if sec is None:
            reg_name = f"{self.name}.{name}"
            bucket = (self.tcp_rx_cpu.name
                      if self.is_arm_dpu and name == "tcp_stack" else reg_name)
            sec = self._locks[name] = FifoServer(self.env, bucket,
                                                 self.spec.lock_factor)
            self.env.components.add(reg_name, "section", sec, node=self.name,
                                    bucket=bucket)
        return sec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} ({self.spec.name}, {self.spec.cores} cores)>"


class ComputeNode(Node):
    """A node attached to the switch (client host, DPU, or server NIC side)."""

    def __init__(
        self, env: Environment, name: str, spec: HostSpec, switch: Switch
    ) -> None:
        super().__init__(env, name, spec)
        self.switch = switch
        self.port: Port = switch.attach(name)


class StorageNode(ComputeNode):
    """The object-storage server: NVMe array + SCM tier behind its NIC."""

    def __init__(
        self,
        env: Environment,
        name: str,
        spec: HostSpec,
        switch: Switch,
        nvme_spec: NvmeSpec,
        n_ssds: int,
    ) -> None:
        super().__init__(env, name, spec, switch)
        self.nvme = NvmeArray(env, nvme_spec, n_ssds)
        for dev in self.nvme.devices:
            env.components.add(dev.name, "nvme", dev, node=name)
        #: Storage-class-memory capacity (PMDK tier for metadata/small IO).
        self.scm_bytes = 512 * GIB


@dataclass(slots=True)
class ClusterTopology:
    """The assembled testbed handed to the storage/DAOS layers."""

    env: Environment
    switch: Switch
    client: ComputeNode
    server: StorageNode
    #: The x86 host that launches jobs; equals ``client`` in host mode and
    #: is a separate idle node in DPU-offload mode (host off the data path).
    launcher: ComputeNode


def make_paper_testbed(
    env: Environment,
    client: Literal["host", "dpu"] = "host",
    n_ssds: int = 1,
    client_cores: Optional[int] = None,
    server_cores: Optional[int] = None,
) -> ClusterTopology:
    """Build the paper's testbed (§4.1).

    ``client='host'`` places the DAOS/DFS client on the EPYC server;
    ``client='dpu'`` offloads it to the BlueField-3 (the host still exists
    but only launches jobs and observes results).  ``client_cores`` /
    ``server_cores`` pin the experiment to a core subset, as the remote
    SPDK sweep (Fig. 4) does.
    """
    import dataclasses

    if n_ssds not in (1, 2, 3, 4):
        raise ValueError(f"paper testbed has 1-4 SSDs, got {n_ssds}")

    def pin(spec: HostSpec, cores: Optional[int]) -> HostSpec:
        if cores is None:
            return spec
        if not 1 <= cores <= spec.cores:
            raise ValueError(f"{spec.name} has {spec.cores} cores; cannot pin {cores}")
        return dataclasses.replace(
            spec, cores=cores, tcp_rx_cores=min(spec.tcp_rx_cores, cores)
        )

    switch = Switch(env, PAPER_LINK)
    server = StorageNode(
        env, "storage", pin(STORAGE_SERVER, server_cores), switch, NVME_SSD, n_ssds
    )
    host = ComputeNode(env, "host", pin(EPYC_HOST, client_cores), switch)
    if client == "host":
        return ClusterTopology(env, switch, client=host, server=server, launcher=host)
    if client == "dpu":
        dpu = ComputeNode(env, "dpu", pin(BLUEFIELD3, client_cores), switch)
        return ClusterTopology(env, switch, client=dpu, server=server, launcher=host)
    raise ValueError(f"client must be 'host' or 'dpu', got {client!r}")
