"""A sparse byte store for functional (data-carrying) device modes.

Backs :class:`~repro.storage.block.BlockDevice` and the PMDK tier when
tests need real end-to-end data integrity.  Pages are materialized lazily
(4 KiB each); unwritten ranges read back as zeros, like a fresh SSD
namespace.  Page-level ``memoryview`` slicing keeps copies to the exact
byte ranges touched, per the HPC guide's "views, not copies" rule.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["SparseBytes"]

PAGE_SIZE = 4096


class SparseBytes:
    """A sparse, zero-default byte array of arbitrary logical size."""

    __slots__ = ("size", "_pages")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = int(size)
        self._pages: Dict[int, bytearray] = {}

    def __len__(self) -> int:
        return self.size

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0:
            raise ValueError(f"negative offset/length ({offset}, {nbytes})")
        if offset + nbytes > self.size:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) exceeds store size {self.size}"
            )

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``."""
        self._check(offset, len(data))
        src = memoryview(data)
        pos = offset
        taken = 0
        remaining = len(data)
        while remaining > 0:
            page_no, page_off = divmod(pos, PAGE_SIZE)
            take = min(remaining, PAGE_SIZE - page_off)
            page = self._pages.get(page_no)
            if page is None:
                page = self._pages[page_no] = bytearray(PAGE_SIZE)
            page[page_off:page_off + take] = src[taken:taken + take]
            pos += take
            taken += take
            remaining -= take

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at ``offset`` (zeros where never written)."""
        self._check(offset, nbytes)
        out = bytearray(nbytes)
        pos = offset
        filled = 0
        remaining = nbytes
        while remaining > 0:
            page_no, page_off = divmod(pos, PAGE_SIZE)
            take = min(remaining, PAGE_SIZE - page_off)
            page = self._pages.get(page_no)
            if page is not None:
                out[filled:filled + take] = memoryview(page)[page_off:page_off + take]
            pos += take
            filled += take
            remaining -= take
        return bytes(out)

    def punch(self, offset: int, nbytes: int) -> None:
        """Zero a range, dropping fully-covered pages."""
        self._check(offset, nbytes)
        pos = offset
        remaining = nbytes
        while remaining > 0:
            page_no, page_off = divmod(pos, PAGE_SIZE)
            take = min(remaining, PAGE_SIZE - page_off)
            if page_off == 0 and take == PAGE_SIZE:
                self._pages.pop(page_no, None)
            else:
                page = self._pages.get(page_no)
                if page is not None:
                    page[page_off:page_off + take] = bytes(take)
            pos += take
            remaining -= take
