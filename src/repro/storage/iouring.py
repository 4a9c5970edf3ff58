"""Kernel io_uring local storage engine (the Fig. 3 baseline path).

Per-I/O costs: the submitting job thread pays ``submit_cpu_per_op`` to
prepare and ring the SQ doorbell and ``complete_cpu_per_op`` to reap the
CQE; the device sees the kernel block layer's bandwidth efficiency
(:data:`~repro.hw.specs.IOURING_PATH`).  With iodepth > 1 the FIO layer
keeps several of these generators in flight per thread, so device time
overlaps while the thread's CPU phases serialize — reproducing the
~80 K IOPS/job submission-path limit the paper measures.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hw.platform import Node
from repro.hw.specs import IOURING_PATH, US, StoragePathCosts
from repro.sim.core import Event
from repro.sim.queues import FifoServer
from repro.storage.block import BlockDevice

__all__ = ["IoUringEngine", "BLOCK_LAYER_SERIAL_PER_OP"]

#: Host-wide serialized cost in the kernel block layer (tag allocation,
#: completion locks).  This is the "software/host-path limit rather than a
#: single-drive media limit" the paper identifies in Fig. 3b/d: ~1.6 us/IO
#: caps the node at ~620 K IOPS regardless of drive count.
BLOCK_LAYER_SERIAL_PER_OP = 1.6 * US


class IoUringEngine:
    """Local POSIX I/O through io_uring onto the node's NVMe array."""

    def __init__(
        self,
        node: Node,
        device: BlockDevice,
        costs: StoragePathCosts = IOURING_PATH,
    ) -> None:
        self.node = node
        self.env = node.env
        self.device = device
        self.costs = costs
        self._block_layer = node.lock("block_layer")
        self._threads = 0

    def new_context(self, name: Optional[str] = None) -> FifoServer:
        """Create one job thread (an FIO job)."""
        self._threads += 1
        return FifoServer(
            self.env,
            name or f"{self.node.name}.iouring.job{self._threads}",
            factor=self.node.spec.cycle_factor,
        )

    def submit(
        self,
        ctx: FifoServer,
        offset: int,
        nbytes: int,
        is_write: bool,
        data: Optional[bytes] = None,
        trace=None,
    ) -> Generator[Event, None, Optional[bytes]]:
        """One POSIX read/write; completes when the CQE is reaped."""
        costs = self.costs
        span = None
        if trace is not None:
            span = trace.child("iouring.submit", node=self.node.name, nbytes=nbytes)
        yield ctx.enter(costs.submit_cpu_per_op)
        yield self._block_layer.enter(BLOCK_LAYER_SERIAL_PER_OP)
        if span is not None:
            span.finish()
        eff = costs.write_bw_efficiency if is_write else costs.read_bw_efficiency
        if is_write:
            yield from self.device.write(offset, nbytes=nbytes, data=data,
                                         bw_efficiency=eff, trace=trace)
            result = None
        else:
            result = yield from self.device.read(offset, nbytes, bw_efficiency=eff,
                                                 trace=trace)
        span = None
        if trace is not None:
            span = trace.child("iouring.complete", node=self.node.name)
        yield ctx.enter(costs.complete_cpu_per_op)
        if span is not None:
            span.finish()
        return result
