"""Optional GPU placement via GPUDirect RDMA (paper §3.5).

The paper outlines — but does not evaluate — replacing the DPU-DRAM sink
with GPU HBM: register GPU buffers (nvidia-peermem), convey the MR
descriptors through the control plane, and have the storage server RDMA-
write straight into GPU memory.  We implement both the extension and the
baseline it replaces so the ablation bench can measure the difference:

* :class:`GpuDirectPath` — reads land in GPU HBM directly: the DFS fetch
  targets a GPU-backed registration; the only extra cost is the HBM
  ingest, and no DPU/host DRAM is consumed.
* :class:`StagedGpuPath` — the status-quo path: the payload terminates in
  client DRAM (staged), then crosses PCIe into HBM as a second copy.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.offload import Ros2ClientService
from repro.hw.cpu import SerializedSection
from repro.hw.gpu import GpuDevice
from repro.sim.core import Event

__all__ = ["GpuDirectPath", "StagedGpuPath"]


class GpuDirectPath:
    """Reads placed directly into GPU HBM (the §3.5 extension)."""

    def __init__(self, service: Ros2ClientService, session_id: int, gpu: GpuDevice) -> None:
        self.service = service
        self.session_id = session_id
        self.gpu = gpu

    def read(
        self, ctx: SerializedSection, fh: int, offset: int, nbytes: int
    ) -> Generator[Event, None, None]:
        """One read whose payload lands in GPU HBM (no DRAM staging).

        The server's RDMA write targets the GPU MR (§3.5 step 3), so
        client DRAM is bypassed entirely; the HBM ingest happens while the
        wire transfer drains, and we charge it after the fetch completes.
        """
        state = self.service._state_for_io(self.session_id, fh)
        yield from self.service.tenants.admit(state.tenant, nbytes)
        data = yield from state.files[fh].read(ctx, offset, nbytes)
        yield from self.gpu.hbm_write(nbytes)
        self.service.data_plane.record_read(nbytes)
        return data


class StagedGpuPath:
    """The baseline: DPU/host DRAM staging + PCIe copy into the GPU."""

    def __init__(self, service: Ros2ClientService, session_id: int, gpu: GpuDevice) -> None:
        self.service = service
        self.session_id = session_id
        self.gpu = gpu

    def read(
        self, ctx: SerializedSection, fh: int, offset: int, nbytes: int
    ) -> Generator[Event, None, None]:
        """One read staged in client DRAM, then copied over PCIe into HBM."""
        data = yield from self.service.io_read(
            ctx, self.session_id, fh, offset, nbytes
        )
        # Second hop: DRAM -> PCIe -> HBM, plus the copy's CPU involvement.
        yield from self.gpu.staged_copy_in(nbytes)
        return data
