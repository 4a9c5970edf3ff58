"""DRAM buffer pools.

The DPU has only 30 GiB of onboard DRAM (§4.1) and every data-plane
payload "currently terminates in DPU DRAM" (§3.2), so buffer-pool capacity
is a real constraint for the offloaded client.  :class:`DramPool` tracks
allocations against capacity and blocks allocators when the pool is
exhausted (back-pressure), which the multi-tenant experiments exercise.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Tuple

from repro.sim.core import Environment, Event

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


class DramPool:
    """A byte pool with blocking allocation and an occupancy watermark.

    An allocation that fits the free bytes takes them at once, with no
    event built.  One that does not parks an event in a FIFO queue (a
    wait-tracer *block* record, named after the pool) until frees cover
    it; a free grants the waiters at the head of the queue that now fit.
    Every allocation, and every free that grants one, updates
    :attr:`peak_bytes`.
    """

    def __init__(self, env: Environment, capacity_bytes: int, name: str = "dram") -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.env = env
        self.name = name
        self.capacity_bytes = int(capacity_bytes)
        self._free = float(capacity_bytes)
        #: Parked allocations, ``(nbytes, event)``, in arrival order.
        self._waiters: Deque[Tuple[int, Event]] = deque()
        #: The most bytes allocated at once (high-watermark).
        self.peak_bytes = 0.0

    @property
    def used_bytes(self) -> float:
        """Bytes currently allocated."""
        return self.capacity_bytes - self._free

    def alloc(self, nbytes: int) -> Generator[Event, None, Allocation]:
        """Allocate ``nbytes``; blocks until available.  Use ``yield from``."""
        if nbytes <= 0:
            raise ValueError(f"allocation must be positive, got {nbytes}")
        if nbytes > self.capacity_bytes:
            raise MemoryError(
                f"{self.name}: allocation of {nbytes} exceeds capacity {self.capacity_bytes}"
            )
        if nbytes > self._free:
            event = Event(self.env)
            wt = self.env._wait_tracer
            if wt is not None and self.env._active.span is not None:
                wt.begin_block(event, self.name)
            self._waiters.append((nbytes, event))
            yield event
        else:
            self._free -= nbytes
        self._note_peak()
        return Allocation(self, nbytes)

    def _release(self, nbytes: int) -> None:
        self._free += nbytes
        waiters = self._waiters
        if waiters:
            wt = self.env._wait_tracer
            while waiters and waiters[0][0] <= self._free:
                amount, event = waiters.popleft()
                self._free -= amount
                if wt is not None and event in wt.blocked:
                    wt.end_block(event)
                event.succeed()
            # Allocations this free serves can leave more bytes in use.
            self._note_peak()

    def _note_peak(self) -> None:
        used = self.capacity_bytes - self._free
        if used > self.peak_bytes:
            self.peak_bytes = used
