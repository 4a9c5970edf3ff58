"""Storage stacks: local kernel io_uring, user-space SPDK/NVMe-oF, PMDK SCM.

These are the three storage tiers the paper's evaluation climbs through:

* :mod:`repro.storage.iouring` — the kernel io_uring path used for the
  local device-ceiling baselines (Fig. 3).
* :mod:`repro.storage.spdk` — the NVMe over Fabrics target/initiator
  pair used for the remote transport comparison (Fig. 4).
* :mod:`repro.storage.pmdk` — byte-addressable storage-class memory, the
  metadata/small-I/O tier of the DAOS engine (§3.3).
* :mod:`repro.storage.block` / :mod:`repro.storage.sparse` — the logical
  block device over the NVMe array, with an optional functional byte store
  for end-to-end data-integrity tests.
"""

from repro.storage.block import BlockDevice
from repro.storage.iouring import IoUringEngine
from repro.storage.pmdk import PmemPool
from repro.storage.sparse import SparseBytes
from repro.storage.spdk import NvmfInitiator, NvmfTarget

__all__ = [
    "BlockDevice",
    "IoUringEngine",
    "NvmfInitiator",
    "NvmfTarget",
    "PmemPool",
    "SparseBytes",
]
