"""PMDK storage-class-memory tier.

The DAOS engine keeps metadata and small records on SCM through PMDK and
bulk data on NVMe through SPDK (§3.3).  SCM is byte-addressable: loads and
stores cost a fixed media latency plus a per-byte streaming cost through
the DIMM's bandwidth, with no block/IOPS structure.  The functional store
is optional, as with the block device.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hw.specs import GIB, US
from repro.sim.core import Environment, Event
from repro.sim.monitor import RateMeter
from repro.sim.queues import FifoServer
from repro.storage.sparse import SparseBytes

__all__ = ["PmemPool"]

#: Optane-class DIMM set: streaming bandwidth and access latency.
PMEM_BANDWIDTH = 8.0 * GIB
PMEM_READ_LATENCY = 0.17 * US
PMEM_WRITE_LATENCY = 0.30 * US  # includes the flush/fence on the persist path


class PmemPool:
    """A persistent-memory pool (one DAOS SCM target)."""

    def __init__(
        self,
        env: Environment,
        capacity_bytes: int,
        data_mode: bool = False,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.env = env
        self.capacity_bytes = int(capacity_bytes)
        self.allocated = 0
        self._dimm = FifoServer(env, "scm.dimm")
        self._store: Optional[SparseBytes] = (
            SparseBytes(capacity_bytes) if data_mode else None
        )
        self.reads = RateMeter(env, "pmem.reads")
        self.writes = RateMeter(env, "pmem.writes")

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes <= 0:
            raise ValueError(f"bad pmem range ({offset}, {nbytes})")
        if offset + nbytes > self.capacity_bytes:
            raise ValueError(
                f"range [{offset}, +{nbytes}) beyond pmem capacity {self.capacity_bytes}"
            )

    def persist(
        self, offset: int, nbytes: Optional[int] = None, data: Optional[bytes] = None
    ) -> Generator[Event, None, None]:
        """Store + flush ``data`` (or a virtual ``nbytes``) durably."""
        if nbytes is None:
            if data is None:
                raise ValueError("persist needs data or an explicit nbytes")
            nbytes = len(data)
        self._check(offset, nbytes)
        yield self._dimm.serve(nbytes / PMEM_BANDWIDTH)
        yield self.env.timeout(PMEM_WRITE_LATENCY)
        if self._store is not None and data is not None:
            self._store.write(offset, data)
        self.writes.record(nbytes)

    def load(
        self, offset: int, nbytes: int
    ) -> Generator[Event, None, Optional[bytes]]:
        """Load ``nbytes``; returns bytes in data mode."""
        self._check(offset, nbytes)
        yield self._dimm.serve(nbytes / PMEM_BANDWIDTH)
        yield self.env.timeout(PMEM_READ_LATENCY)
        self.reads.record(nbytes)
        if self._store is not None:
            return self._store.read(offset, nbytes)
        return None

    def reserve(self, nbytes: int) -> int:
        """Bump-allocate ``nbytes``; returns the offset.

        The VOS allocator above manages real placement; this only enforces
        the capacity envelope.
        """
        if nbytes <= 0:
            raise ValueError(f"allocation must be positive, got {nbytes}")
        if self.allocated + nbytes > self.capacity_bytes:
            raise MemoryError(
                f"pmem pool exhausted ({self.allocated}+{nbytes} > {self.capacity_bytes})"
            )
        offset = self.allocated
        self.allocated += nbytes
        return offset
