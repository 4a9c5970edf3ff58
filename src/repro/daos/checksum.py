"""End-to-end checksums.

DAOS protects every extent with a checksum computed at ingest and verified
at fetch (§2.4).  We use CRC-32C semantics via :func:`zlib.crc32` (the
polynomial differs from Castagnoli but the behaviour — fast, 32-bit,
chunked — is equivalent for the reproduction).  Virtual payloads get a
*size-keyed sentinel* so the code path (store, compare, reject) is always
exercised even when no real bytes move.
"""

from __future__ import annotations

import zlib
from typing import Optional

__all__ = ["Checksummer", "ChecksumError"]


class ChecksumError(RuntimeError):
    """Stored data failed its end-to-end verification."""


class Checksummer:
    """Compute/verify extent checksums in functional or virtual mode."""

    algo = "crc32c"

    @staticmethod
    def compute(data: Optional[bytes], nbytes: int) -> int:
        """Checksum of ``data`` (or the virtual sentinel for ``nbytes``)."""
        if data is not None:
            return zlib.crc32(data) & 0xFFFFFFFF
        # Virtual payload: sentinel derived from the length so that a
        # size-corrupting bug still trips verification.
        return (0x5EED ^ (nbytes * 0x9E3779B1)) & 0xFFFFFFFF

    @classmethod
    def verify(cls, data: Optional[bytes], nbytes: int, expected: int) -> None:
        """Raise :class:`ChecksumError` unless the checksum matches."""
        actual = cls.compute(data, nbytes)
        if actual != expected:
            raise ChecksumError(
                f"checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
            )
