"""GPU device model for the GPUDirect RDMA extension (paper §3.5).

The paper leaves GPU placement as future work but specifies its mechanism
precisely: register GPU buffers (nvidia-peermem), convey the MR descriptors
through the control plane, and have the storage server RDMA-write straight
into GPU HBM.  We implement that extension, so the model only needs what
the data path touches: HBM capacity/bandwidth (a sink pipe) and the PCIe
staging path it *replaces* (host/DPU DRAM bounce + copy over PCIe).
"""

from __future__ import annotations

from typing import Generator

from repro.hw.specs import GIB, GpuSpec
from repro.sim.core import Environment, Event
from repro.sim.monitor import RateMeter
from repro.sim.queues import BandwidthPipe

__all__ = ["GpuDevice"]

#: PCIe Gen5 x16 effective rate (the paper's H100-class hosts).
PCIE_GEN5_X16 = 55 * GIB


class GpuDevice:
    """One GPU: an HBM sink plus the PCIe path used when staging instead.

    * :meth:`hbm_write` — data landing directly in HBM (GPUDirect path):
      bounded by HBM write bandwidth, no host involvement.
    * :meth:`staged_copy_in` — the baseline path: payload crosses PCIe into
      HBM after having been staged in DRAM (the extra hop GPUDirect
      removes).
    """

    def __init__(self, env: Environment, spec: GpuSpec) -> None:
        self.env = env
        self.spec = spec
        # HBM ingest: a fraction of HBM bandwidth is available to inbound
        # DMA (compute traffic owns the rest); 25% is a conservative slice.
        self._hbm = BandwidthPipe(env, spec.mem_bw_bytes * 0.25, latency=0.5e-6,
                                  name="gpu0.hbm")
        self._pcie = BandwidthPipe(env, PCIE_GEN5_X16, latency=0.8e-6,
                                   name="gpu0.pcie")
        self.ingest = RateMeter(env, "gpu0.ingest")

    def hbm_write(self, nbytes: int) -> Generator[Event, None, None]:
        """DMA ``nbytes`` directly into HBM (GPUDirect RDMA target)."""
        yield from self._hbm.transfer(nbytes)
        self.ingest.record(nbytes)

    def staged_copy_in(self, nbytes: int) -> Generator[Event, None, None]:
        """Copy ``nbytes`` from DRAM staging across PCIe into HBM."""
        yield from self._pcie.transfer(nbytes)
        yield from self._hbm.transfer(nbytes)
        self.ingest.record(nbytes)
