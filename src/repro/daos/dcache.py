"""Client-side read caching (the dfuse/libioil caching layer).

DAOS deployments front DFS with dfuse, whose data caching absorbs
re-reads in client memory with a configurable attr/data timeout.  This
module reproduces that layer for the simulated client:

* :class:`ClientCache` — a byte-budgeted LRU over (oid, chunk) pages with
  epoch tagging and TTL-based revalidation.
* :class:`CachedDfsFile` — a drop-in wrapper over
  :class:`~repro.daos.dfs.DfsFile`: reads are served from cache when a
  fresh entry covers them (a small CPU cost, no RPC); misses read through
  and populate; local writes invalidate the overlapping pages (write-
  through, like dfuse with writeback caching disabled).

With :attr:`ClientCache.TTL` set, cache entries are only trusted for
that many simulated seconds — after that a re-read goes back to the
engine, which is how dfuse bounds staleness under cross-client sharing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional, Tuple

from repro.daos.dfs import DfsFile
from repro.daos.types import ObjectId
from repro.hw.specs import US
from repro.sim.core import Environment, Event
from repro.sim.queues import FifoServer

__all__ = ["ClientCache", "CachedDfsFile"]

#: CPU cost of a cache hit (hash lookup + memcpy bookkeeping), x86 baseline.
HIT_CPU = 0.8 * US


class ClientCache:
    """Byte-budgeted LRU of file pages with TTL freshness."""

    #: Entries older than this many seconds are revalidated (None = never
    #: expire).
    TTL: Optional[float] = None

    def __init__(self, env: Environment, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.env = env
        self.capacity_bytes = int(capacity_bytes)
        self._entries: "OrderedDict[Tuple, Tuple[float, int, Optional[bytes]]]" = \
            OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        """Bytes currently cached."""
        return self._bytes

    def _key(self, oid: ObjectId, chunk: int) -> Tuple:
        return (oid.hi, oid.lo, chunk)

    def lookup(self, oid: ObjectId, chunk: int) -> Optional[Tuple[int, Optional[bytes]]]:
        """A fresh ``(nbytes, data)`` entry for the chunk, else None."""
        key = self._key(oid, chunk)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stamp, nbytes, data = entry
        ttl = self.TTL
        if ttl is not None and self.env.now - stamp > ttl:
            self._evict(key)
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return nbytes, data

    def insert(self, oid: ObjectId, chunk: int, nbytes: int,
               data: Optional[bytes]) -> None:
        """Cache a whole-chunk read result (evicting LRU pages to fit)."""
        if nbytes > self.capacity_bytes:
            return  # larger than the whole cache: don't bother
        key = self._key(oid, chunk)
        if key in self._entries:
            self._evict(key)
        while self._bytes + nbytes > self.capacity_bytes and self._entries:
            self._evict(next(iter(self._entries)))
        self._entries[key] = (self.env.now, nbytes, data)
        self._bytes += nbytes

    def invalidate(self, oid: ObjectId, chunk: int) -> None:
        """Drop the chunk (local write or explicit invalidation)."""
        self._evict(self._key(oid, chunk))

    def clear(self) -> None:
        """Drop everything."""
        self._entries.clear()
        self._bytes = 0

    def _evict(self, key: Tuple) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._bytes -= entry[1]
        return True

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachedDfsFile:
    """A DfsFile wrapper that serves whole-chunk re-reads from the cache."""

    def __init__(self, file: DfsFile, cache: ClientCache) -> None:
        self.file = file
        self.cache = cache
        #: The thread pool the hit cost is charged to comes from the caller.

    @property
    def chunk_size(self) -> int:
        return self.file.chunk_size

    def read(
        self, ctx: FifoServer, offset: int, nbytes: int
    ) -> Generator[Event, None, Optional[bytes]]:
        """Chunk-aligned reads hit the cache; others read through."""
        chunk = self.file.chunk_size
        idx, in_off = divmod(offset, chunk)
        aligned = in_off == 0 and nbytes == chunk
        if aligned:
            entry = self.cache.lookup(self.file.oid, idx)
            if entry is not None:
                yield ctx.enter(HIT_CPU)
                return entry[1]
        data = yield from self.file.read(ctx, offset, nbytes)
        if aligned:
            self.cache.insert(self.file.oid, idx, nbytes, data)
        return data

    def write(
        self,
        ctx: FifoServer,
        offset: int,
        nbytes: Optional[int] = None,
        data: Optional[bytes] = None,
    ) -> Generator[Event, None, None]:
        """Write through, invalidating every overlapped cached chunk."""
        if nbytes is None and data is not None:
            nbytes = len(data)
        chunk = self.file.chunk_size
        first = offset // chunk
        last = (offset + (nbytes or 1) - 1) // chunk
        for idx in range(first, last + 1):
            self.cache.invalidate(self.file.oid, idx)
        yield from self.file.write(ctx, offset, nbytes=nbytes, data=data)

    def size(self, ctx: FifoServer):
        """Delegate size queries (metadata is not cached here)."""
        return self.file.size(ctx)
