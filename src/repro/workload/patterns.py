"""Offset streams for the workload generator.

FIO's four POSIX workloads reduce to two access patterns: a sequential
cursor per job (``read``/``write``) and aligned uniform random offsets
(``randread``/``randwrite``).  Both live here so engines and tests share
one implementation.  Random offsets come from the simulator's own
:class:`~repro.sim.rng.Pcg64Stream`, so they are plain Python ints and
the same on every NumPy version, or none.
"""

from __future__ import annotations

from typing import List

from repro.sim.rng import Pcg64Stream

__all__ = ["SequentialPattern", "RandomPattern"]


class SequentialPattern:
    """A wrapping sequential cursor over ``[start, start + span)``.

    Shared by all iodepth lanes of one job: each ``next()`` claims the
    next block, which is exactly FIO's per-job sequential semantics with
    queue depth.
    """

    __slots__ = ("start", "span", "block", "_cursor")

    def __init__(self, start: int, span: int, block: int) -> None:
        if span < block or block <= 0:
            raise ValueError(f"span {span} must hold at least one block of {block}")
        self.start = int(start)
        self.span = int(span) - int(span) % int(block)  # whole blocks only
        self.block = int(block)
        self._cursor = 0

    def next(self) -> int:
        """The next block-aligned offset (wraps at the end of the region)."""
        offset = self.start + self._cursor
        self._cursor += self.block
        if self._cursor >= self.span:
            self._cursor = 0
        return offset


class RandomPattern:
    """Aligned uniform random offsets over ``[start, start + span)``.

    Offsets are drawn in batches (one RNG call per 1024 I/Os) into a
    list, so each I/O pays one list lookup rather than one RNG call.
    """

    __slots__ = ("start", "span", "block", "_rng", "_batch", "_idx")

    BATCH = 1024

    def __init__(self, start: int, span: int, block: int, rng: Pcg64Stream) -> None:
        if span < block or block <= 0:
            raise ValueError(f"span {span} must hold at least one block of {block}")
        self.start = int(start)
        self.span = int(span)
        self.block = int(block)
        self._rng = rng
        self._batch: List[int] = []
        self._idx = 0

    def _refill(self) -> None:
        start, block = self.start, self.block
        picks = self._rng.integers(0, self.span // block, self.BATCH)
        self._batch = [start + p * block for p in picks]
        self._idx = 0

    def next(self) -> int:
        """The next random block-aligned offset."""
        if self._idx >= len(self._batch):
            self._refill()
        offset = self._batch[self._idx]
        self._idx += 1
        return offset
