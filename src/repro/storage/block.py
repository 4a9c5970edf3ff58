"""Logical block device over the NVMe array.

Adds to :class:`~repro.hw.nvme.NvmeArray` (a flat byte-addressed space
that checks its own bounds) an optional **functional byte store**
(``data_mode=True``) so tests and examples can verify actual data
round-trips through every layer above.  Performance benches leave it off
— moving real megabytes per simulated I/O would only burn host memory
bandwidth — and then a device I/O is the array's I/O alone.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hw.nvme import NvmeArray
from repro.sim.core import Event
from repro.storage.sparse import SparseBytes

__all__ = ["BlockDevice"]


class BlockDevice:
    """A flat logical device striped across the NVMe array."""

    def __init__(self, array: NvmeArray, data_mode: bool = False) -> None:
        self.array = array
        self.env = array.env
        self.data_mode = bool(data_mode)
        #: Total logical capacity (the array's devices are fixed).
        self.capacity_bytes = array.capacity_bytes
        self._store: Optional[SparseBytes] = (
            SparseBytes(self.capacity_bytes) if data_mode else None
        )

    def read(
        self, offset: int, nbytes: int, bw_efficiency: float = 1.0
    ) -> Generator[Event, None, Optional[bytes]]:
        """Read; returns bytes in data mode, None otherwise.

        Without a byte store this is the array's I/O, bounds check
        included: its generator is returned for the caller to drive.
        """
        io = self.array.submit(offset, nbytes, is_write=False,
                               bw_efficiency=bw_efficiency)
        if self._store is None:
            return io
        return self._read_stored(io, offset, nbytes)

    def _read_stored(self, io, offset: int, nbytes: int):
        yield from io
        return self._store.read(offset, nbytes)

    def write(
        self,
        offset: int,
        nbytes: Optional[int] = None,
        data: Optional[bytes] = None,
        bw_efficiency: float = 1.0,
    ) -> Generator[Event, None, None]:
        """Write ``data`` (or a virtual payload of ``nbytes``); the array's
        I/O alone, as in :meth:`read`, unless bytes go to the store."""
        if nbytes is None:
            if data is None:
                raise ValueError("write needs data or an explicit nbytes")
            nbytes = len(data)
        if data is not None and len(data) != nbytes:
            raise ValueError(f"data of {len(data)} bytes but nbytes={nbytes}")
        io = self.array.submit(offset, nbytes, is_write=True,
                               bw_efficiency=bw_efficiency)
        if self._store is None or data is None:
            return io
        return self._write_stored(io, offset, data)

    def _write_stored(self, io, offset: int, data: bytes):
        yield from io
        self._store.write(offset, data)
