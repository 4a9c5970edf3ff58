"""Erasure coding helpers (EC 2+1, the DAOS ``EC_2P1G1`` class).

A stripe of ``2 * CELL_BYTES`` splits into two data cells plus one XOR
parity cell, placed on three distinct targets.  Any single target loss is
recoverable: a missing data cell is the XOR of its sibling and the
parity; the parity cell is recomputed from both data cells.

The XOR runs on whole buffers as big integers (``int.from_bytes``, no
Python-level byte loops), cells are split and rejoined with byte slices,
and everything degrades gracefully to *virtual* mode (sizes only) for the
performance benches.

Simplification (documented in DESIGN.md): EC I/O must be stripe-aligned.
DFS writes whole chunks, which are stripe multiples, so the POSIX path
never notices; partial-stripe updates in real DAOS fall back to a
replication journal we do not model.
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = [
    "CELL_BYTES",
    "STRIPE_BYTES",
    "check_aligned",
    "xor_bytes",
    "reconstruct_cell",
]

#: One EC cell; a stripe is two cells + parity.
CELL_BYTES = 32 * 1024
STRIPE_BYTES = 2 * CELL_BYTES

#: Number of data cells / parity cells in the 2+1 layout.
DATA_CELLS = 2
PARITY_CELLS = 1


def check_aligned(offset: int, nbytes: int) -> None:
    """EC I/O must cover whole stripes."""
    if offset % STRIPE_BYTES or nbytes % STRIPE_BYTES or nbytes <= 0:
        raise ValueError(
            f"EC I/O must be stripe-aligned ({STRIPE_BYTES} B): "
            f"got offset={offset}, nbytes={nbytes}"
        )


def xor_bytes(a: Optional[bytes], b: Optional[bytes]) -> Optional[bytes]:
    """XOR of two equal-length buffers (None stays virtual)."""
    if a is None or b is None:
        return None
    if len(a) != len(b):
        raise ValueError(f"XOR length mismatch: {len(a)} vs {len(b)}")
    x = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    return x.to_bytes(len(a), "little")


def reconstruct_cell(
    surviving: Optional[bytes], parity: Optional[bytes]
) -> Optional[bytes]:
    """Rebuild a lost data cell from its sibling and the parity."""
    return xor_bytes(surviving, parity)


def encode(
    data: Optional[bytes], nbytes: int
) -> Tuple[Optional[bytes], Optional[bytes], Optional[bytes]]:
    """Encode an aligned range into (data0, data1, parity) target buffers.

    Each returned buffer is ``nbytes // 2`` long: the concatenation of
    that target's cells across every stripe (which is exactly the
    contiguous layout each target stores).
    """
    if nbytes % STRIPE_BYTES or nbytes <= 0:
        raise ValueError(f"EC encode needs whole stripes, got {nbytes}")
    if data is None:
        return None, None, None
    if len(data) != nbytes:
        raise ValueError(f"data of {len(data)} bytes but nbytes={nbytes}")
    view = memoryview(data)
    d0 = b"".join(view[i:i + CELL_BYTES]
                  for i in range(0, nbytes, STRIPE_BYTES))
    d1 = b"".join(view[i:i + CELL_BYTES]
                  for i in range(CELL_BYTES, nbytes, STRIPE_BYTES))
    return d0, d1, xor_bytes(d0, d1)


def interleave(
    d0: Optional[bytes], d1: Optional[bytes]
) -> Optional[bytes]:
    """Inverse of :func:`encode`: two cell streams back into user data."""
    if d0 is None or d1 is None:
        return None
    if len(d0) != len(d1) or len(d0) % CELL_BYTES:
        raise ValueError(
            f"cell streams must be equal whole-cell lengths, got {len(d0)}/{len(d1)}"
        )
    cells = []
    for i in range(0, len(d0), CELL_BYTES):
        cells += (d0[i:i + CELL_BYTES], d1[i:i + CELL_BYTES])
    return b"".join(cells)
