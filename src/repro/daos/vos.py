"""Per-target Versioned Object Store: records bound to SCM + NVMe media.

Each DAOS target owns one VOS instance.  Small records and all metadata
live on storage-class memory (PMDK tier); bulk array extents live on NVMe
through the user-space driver (§3.3 "storage tiers").  The VOS charges
media time for every update/fetch and computes/verifies the end-to-end
checksum of each extent.

The ``bw_efficiency`` parameter threads the transport-dependent pipeline
efficiency into device reads/writes: kernel-TCP data paths overlap with
media streaming measurably worse than RDMA's DMA'd bulk transfers (this is
one of the calibrated mechanisms behind Fig. 5a, where host TCP tops out
at ~5-6 GiB/s on a drive RDMA streams at 6.4 GiB/s).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.daos.checksum import Checksummer
from repro.daos.object import (
    CSUM, END, MEDIA, MEDIA_SHIFT, ROW, START, TIER_MASK, TIER_NVME, TIER_SCM,
    VersionedObject,
)
from repro.daos.types import ContainerId, NoSuchObject, ObjectId
from repro.hw.nvme import MEDIA_SPAN
from repro.sim.core import Environment, Event
from repro.storage.block import BlockDevice
from repro.storage.pmdk import PmemPool

__all__ = ["VersionedObjectStore"]

#: Records strictly below this size go to SCM (DAOS's media threshold;
#: 4 KiB records go to NVMe so the paper's 4 KiB IOPS tests exercise the
#: drives, as their write-IOPS ceilings in Fig. 5 show).
SCM_THRESHOLD = 2048

#: Estimated SCM bytes per single-value / metadata record.
KV_RECORD_BYTES = 128


class VersionedObjectStore:
    """One target's VOS."""

    def __init__(
        self,
        env: Environment,
        target_index: int,
        scm: PmemPool,
        nvme: BlockDevice,
        nvme_region_start: int,
        nvme_region_bytes: int,
    ) -> None:
        self.env = env
        self.target_index = target_index
        self.scm = scm
        self.nvme = nvme
        self.region_start = int(nvme_region_start)
        self.region_bytes = int(nvme_region_bytes)
        self._nvme_cursor = 0
        self.objects: Dict[Tuple[ContainerId, ObjectId], VersionedObject] = {}

    # -- object lookup ---------------------------------------------------------
    def object(self, cont: ContainerId, oid: ObjectId) -> VersionedObject:
        """Get/create the object shard held by this target."""
        key = (cont, oid)
        obj = self.objects.get(key)
        if obj is None:
            obj = self.objects[key] = VersionedObject()
        return obj

    def object_if_exists(self, cont: ContainerId, oid: ObjectId) -> Optional[VersionedObject]:
        """The object shard, or None if nothing was ever written."""
        return self.objects.get((cont, oid))

    # -- media allocation --------------------------------------------------------
    def _alloc_nvme(self, nbytes: int) -> int:
        if self._nvme_cursor + nbytes > self.region_bytes:
            raise MemoryError(
                f"target {self.target_index}: NVMe region exhausted "
                f"({self._nvme_cursor}+{nbytes} > {self.region_bytes})"
            )
        offset = self.region_start + self._nvme_cursor
        self._nvme_cursor += nbytes
        return offset

    # -- array I/O ----------------------------------------------------------------
    def update(
        self,
        cont: ContainerId,
        oid: ObjectId,
        dkey: bytes,
        akey: bytes,
        epoch: int,
        offset: int,
        nbytes: int,
        data: Optional[bytes] = None,
        bw_efficiency: float = 1.0,
    ) -> Generator[Event, None, None]:
        """Write one extent: record it, then persist to the right tier."""
        store = self.object(cont, oid).array(dkey, akey)
        k = store.write(epoch, offset, nbytes, data)
        span = self.env._active.span
        if nbytes <= SCM_THRESHOLD:
            if span is not None:
                span = span.child("media.scm", nbytes=nbytes)
            scm_off = self.scm.reserve(nbytes)
            yield from self.scm.persist(scm_off, nbytes=nbytes, data=data)
            store.bind(k, TIER_SCM, scm_off)
        else:
            if span is not None:
                span = span.child(MEDIA_SPAN, nbytes=nbytes)
            dev_off = self._alloc_nvme(nbytes)
            yield from self.nvme.write(
                dev_off, nbytes=nbytes, data=data, bw_efficiency=bw_efficiency
            )
            store.bind(k, TIER_NVME, dev_off)
        if span is not None:
            span.finish()

    def fetch(
        self,
        cont: ContainerId,
        oid: ObjectId,
        dkey: bytes,
        akey: bytes,
        epoch: int,
        offset: int,
        nbytes: int,
        verify: bool = True,
        bw_efficiency: float = 1.0,
    ) -> Generator[Event, None, Optional[bytes]]:
        """Read a range at ``epoch``: media time per covering extent,
        checksum verification, zero-fill for holes."""
        obj = self.objects.get((cont, oid))
        data_mode = self.nvme.data_mode
        if obj is None:
            # Never-written object: a pure hole, no media touched.
            return bytes(nbytes) if data_mode else None
        store = obj.array(dkey, akey)
        out: Optional[bytearray] = bytearray(nbytes) if data_mode else None

        env = self.env
        rows = store.rows
        payloads = store.payloads
        reads = []
        any_nvme = False
        for seg_start, seg_end, k in store.resolve(epoch, offset, nbytes):
            if k is None:
                continue
            i = k * ROW
            media = rows[i + MEDIA]
            tier = media & TIER_MASK
            if not tier:
                continue  # still persisting: not yet bound to media
            ext_start = rows[i + START]
            seg_off = (media >> MEDIA_SHIFT) + (seg_start - ext_start)
            seg_nbytes = seg_end - seg_start
            if tier == TIER_SCM:
                reads.append(self.scm.load(seg_off, seg_nbytes))
            else:
                any_nvme = True
                reads.append(
                    self.nvme.read(seg_off, seg_nbytes, bw_efficiency=bw_efficiency)
                )
            data = payloads.get(k) if payloads else None
            if verify:
                Checksummer.verify(data, rows[i + END] - ext_start, rows[i + CSUM])
            if out is not None and data is not None:
                src = seg_start - ext_start
                out[seg_start - offset:seg_end - offset] = \
                    memoryview(data)[src:src + seg_nbytes]
        if reads:
            # Several extents are read in processes of their own, which
            # are handed no span: their waits stay off the request's.
            span = env._active.span
            if span is not None:
                span = span.child(MEDIA_SPAN if any_nvme else "media.scm",
                                  nbytes=nbytes)
            if len(reads) == 1:
                # Single covering extent (the common case for aligned I/O):
                # drive the media generator inline instead of wrapping it in
                # a Process + AllOf — same reservations at the same instant,
                # two fewer events and three fewer allocations per fetch.
                yield from reads[0]
            else:
                yield env.all_of([env.process(g) for g in reads])
            if span is not None:
                span.finish()
        return bytes(out) if out is not None else None

    def punch(
        self,
        cont: ContainerId,
        oid: ObjectId,
        dkey: bytes,
        akey: bytes,
        epoch: int,
        offset: int,
        nbytes: int,
    ) -> Generator[Event, None, None]:
        """Punch a hole: a metadata-only record on SCM."""
        self.object(cont, oid).array(dkey, akey).punch(epoch, offset, nbytes)
        scm_off = self.scm.reserve(KV_RECORD_BYTES)
        yield from self.scm.persist(scm_off, nbytes=KV_RECORD_BYTES)

    # -- key-value (single value) I/O -------------------------------------------
    def kv_put(
        self,
        cont: ContainerId,
        oid: ObjectId,
        dkey: bytes,
        akey: bytes,
        epoch: int,
        value: Any,
    ) -> Generator[Event, None, None]:
        """Replace a single value (metadata record on SCM)."""
        self.object(cont, oid).value(dkey, akey).write(epoch, value)
        scm_off = self.scm.reserve(KV_RECORD_BYTES)
        yield from self.scm.persist(scm_off, nbytes=KV_RECORD_BYTES)

    def kv_get(
        self,
        cont: ContainerId,
        oid: ObjectId,
        dkey: bytes,
        akey: bytes,
        epoch: int,
    ) -> Generator[Event, None, Any]:
        """Read a single value at ``epoch`` (raises NoSuchObject if absent)."""
        obj = self.object_if_exists(cont, oid)
        if obj is None:
            raise NoSuchObject(f"{oid} has no records on target {self.target_index}")
        value = obj.read_value(epoch, dkey, akey)
        yield from self.scm.load(0, KV_RECORD_BYTES)
        return value

    # -- enumeration ---------------------------------------------------------------
    def list_dkeys(
        self, cont: ContainerId, oid: ObjectId, epoch: int
    ) -> Generator[Event, None, List[bytes]]:
        """Enumerate visible dkeys (SCM tree walk)."""
        obj = self.object_if_exists(cont, oid)
        if obj is None:
            return []
        keys = obj.list_dkeys(epoch)
        yield from self.scm.load(0, KV_RECORD_BYTES * max(1, len(keys)))
        return keys

    def dkey_sizes(
        self, cont: ContainerId, oid: ObjectId, akey: bytes, epoch: int
    ) -> Generator[Event, None, Dict[bytes, int]]:
        """Per-dkey array sizes at ``epoch`` (for DFS file-size queries)."""
        obj = self.object_if_exists(cont, oid)
        if obj is None:
            return {}
        sizes: Dict[bytes, int] = {}
        for dkey in obj.list_dkeys(epoch):
            try:
                store = obj.array(dkey, akey)
            except TypeError:
                continue
            size = store.size(epoch)
            if size:
                sizes[dkey] = size
        yield from self.scm.load(0, KV_RECORD_BYTES * max(1, len(sizes)))
        return sizes

    # -- helpers ------------------------------------------------------------------
    @property
    def nvme_used_bytes(self) -> int:
        """Bytes bump-allocated from this target's NVMe region."""
        return self._nvme_cursor
