"""DRAM buffer pools.

The DPU has only 30 GiB of onboard DRAM (§4.1) and every data-plane
payload "currently terminates in DPU DRAM" (§3.2), so buffer-pool capacity
is a real constraint for the offloaded client.  :class:`DramPool` tracks
allocations against capacity and blocks allocators when the pool is
exhausted (back-pressure), which the multi-tenant experiments exercise.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.core import Environment, Event
from repro.sim.resources import Container

__all__ = ["DramPool", "Allocation"]


class Allocation:
    """A live DRAM allocation; free it exactly once."""

    __slots__ = ("pool", "nbytes", "_freed")

    def __init__(self, pool: "DramPool", nbytes: int) -> None:
        self.pool = pool
        self.nbytes = nbytes
        self._freed = False

    def free(self) -> None:
        """Return the bytes to the pool (idempotent)."""
        if not self._freed:
            self._freed = True
            self.pool._release(self.nbytes)

    def __enter__(self) -> "Allocation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.free()


class DramPool(Container):
    """A byte pool with blocking allocation and an occupancy watermark.

    Its level is the free bytes, and :attr:`used_bytes` the occupancy.
    What need not wait moves the level at once, as an inline-succeeded
    get or put would, with no event built; anything that waits, or is
    waited for, takes the container's path.  Every allocation and
    release updates :attr:`peak_bytes`.
    """

    def __init__(self, env: Environment, capacity_bytes: int, name: str = "dram") -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        super().__init__(env, capacity=capacity_bytes, init=capacity_bytes,
                         name=name)
        self.capacity_bytes = int(capacity_bytes)
        #: The most bytes allocated at once (high-watermark).
        self.peak_bytes = 0.0

    @property
    def used_bytes(self) -> float:
        """Bytes currently allocated."""
        return self.capacity_bytes - self._level

    def alloc(self, nbytes: int) -> Generator[Event, None, Allocation]:
        """Allocate ``nbytes``; blocks until available.  Use ``yield from``."""
        if nbytes <= 0:
            raise ValueError(f"allocation must be positive, got {nbytes}")
        if nbytes > self.capacity_bytes:
            raise MemoryError(
                f"{self.name}: allocation of {nbytes} exceeds capacity {self.capacity_bytes}"
            )
        if self._putters or nbytes > self._level:
            yield self.get(nbytes)
        else:
            self._level -= nbytes
        used = self.capacity_bytes - self._level
        if used > self.peak_bytes:
            self.peak_bytes = used
        return Allocation(self, nbytes)

    def _release(self, nbytes: int) -> None:
        if self._getters or self._level + nbytes > self.capacity:
            self.put(nbytes)
            # Allocations this put serves can leave more bytes in use.
            used = self.capacity_bytes - self._level
            if used > self.peak_bytes:
                self.peak_bytes = used
        else:
            self._level += nbytes
