"""Calibrated hardware models for the ROS2 simulated testbed.

Each model is a queueing station built on :mod:`repro.sim`:

* :mod:`repro.hw.specs` — every datasheet/calibration constant, including
  the NVIDIA GPU generation table reproduced as paper Table 1.
* :mod:`repro.hw.cpu` — CPU core pools with per-architecture speed factors;
  serialized sections (locks, single progress threads) are FIFO servers.
* :mod:`repro.hw.nvme` — NVMe SSD devices and striped arrays.
* :mod:`repro.hw.nic` — duplex network links and a store-and-forward switch.
* :mod:`repro.hw.dram` — DRAM buffer pools (host, DPU).
* :mod:`repro.hw.gpu` — GPU HBM sinks for the GPUDirect extension.
* :mod:`repro.hw.platform` — assembled host / DPU / storage-server nodes
  matching the paper's testbed (§4.1).
"""

from repro.hw.cpu import CpuPool
from repro.hw.dram import DramPool
from repro.hw.gpu import GpuDevice
from repro.hw.nic import DuplexLink, Switch
from repro.hw.nvme import NvmeArray, NvmeDevice
from repro.hw.platform import (
    ClusterTopology,
    ComputeNode,
    Node,
    StorageNode,
    make_paper_testbed,
)
from repro.hw.specs import (
    BLUEFIELD3,
    EPYC_HOST,
    GIB,
    GPU_GENERATIONS,
    KIB,
    MIB,
    NVME_SSD,
    PAPER_LINK,
    GpuSpec,
    HostSpec,
    LinkSpec,
    NvmeSpec,
)

__all__ = [
    "BLUEFIELD3",
    "ClusterTopology",
    "ComputeNode",
    "CpuPool",
    "DramPool",
    "DuplexLink",
    "EPYC_HOST",
    "GIB",
    "GPU_GENERATIONS",
    "GpuDevice",
    "GpuSpec",
    "HostSpec",
    "KIB",
    "LinkSpec",
    "MIB",
    "Node",
    "NVME_SSD",
    "NvmeArray",
    "NvmeDevice",
    "NvmeSpec",
    "PAPER_LINK",
    "StorageNode",
    "Switch",
    "make_paper_testbed",
]
