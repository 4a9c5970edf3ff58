"""The ROS2 data plane: fabric binding and DPU DRAM staging.

"All payloads currently terminate in DPU DRAM; the DPU notifies
completion to the caller" (§3.2).  The data plane therefore stages every
in-flight payload in the client node's DRAM pool — 30 GiB on BlueField-3
— giving natural back-pressure when tenants overrun the buffer budget,
and keeps the payload counts for the reports.  A caller frees a staged
buffer with :meth:`Allocation.free <repro.hw.dram.Allocation.free>` and
records each completed payload on :attr:`DataPlane.reads` or
:attr:`DataPlane.writes`.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hw.dram import Allocation, DramPool
from repro.hw.platform import ComputeNode
from repro.net.fabric import ProviderInfo, resolve_provider
from repro.sim.core import Environment, Event
from repro.sim.monitor import RateMeter

__all__ = ["DataPlane"]


class DataPlane:
    """Buffer staging + accounting for the offloaded client's bulk I/O."""

    def __init__(
        self,
        node: ComputeNode,
        provider: str,
        staging_budget_bytes: Optional[int] = None,
    ) -> None:
        self.node = node
        self.env: Environment = node.env
        self.provider: ProviderInfo = resolve_provider(provider)
        #: Staging budget: by default the whole node DRAM is eligible.
        #: A smaller budget (buffer pool carved out of node DRAM, the rest
        #: belonging to other services/tenants) is enforced as an
        #: *aggregate* in-flight cap, giving real back-pressure.
        self.budget = int(staging_budget_bytes or node.dram.capacity_bytes)
        if self.budget > node.dram.capacity_bytes:
            raise ValueError(
                f"staging budget {self.budget} exceeds node DRAM "
                f"{node.dram.capacity_bytes}"
            )
        self._pool: DramPool = DramPool(
            self.env, self.budget, name=f"{node.name}.dp.staging"
        )
        self.reads = RateMeter(self.env, f"{node.name}.dp.reads")
        self.writes = RateMeter(self.env, f"{node.name}.dp.writes")

    @property
    def staged(self) -> DramPool:
        """The staging pool: its ``used_bytes`` and ``peak_bytes`` are the
        staged level and watermark."""
        return self._pool

    def stage(self, nbytes: int, trace=None) -> Generator[Event, None, Allocation]:
        """Reserve DPU DRAM for one in-flight payload (``yield from``).

        Blocks when the staging budget is exhausted — the back-pressure a
        30 GiB DPU applies to greedy tenants.
        """
        if nbytes <= 0:
            raise ValueError(f"staging size must be positive, got {nbytes}")
        if nbytes > self.budget:
            raise MemoryError(
                f"payload of {nbytes} bytes exceeds staging budget {self.budget}"
            )
        span = None
        if trace is not None:
            span = trace.child("dp.stage", node=self.node.name, nbytes=nbytes)
        alloc = yield from self._pool.alloc(nbytes)
        if span is not None:
            span.finish()
        return alloc
