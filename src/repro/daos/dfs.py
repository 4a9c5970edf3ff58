"""DFS: the POSIX namespace mapped onto DAOS objects (libdfs).

Layout follows DAOS's DFS closely (§3.3 "DFS mapping"):

* A **superblock** object (reserved oid) records the filesystem magic,
  default chunk size and the root directory's oid.
* A **directory** is an ``S1`` object whose dkeys are entry names; each
  entry is a single-value akey holding ``(type, oid, chunk_size, mode)``.
* A **file** is an ``SX`` object whose dkeys are chunk indices (8-byte
  big-endian); chunk payloads are extents under the ``b"data"`` akey.
  ``SX`` striping spreads consecutive chunks over every engine target,
  which is how one file saturates a 4-SSD array.

Namespace mutations (create, unlink, rename) commit through DAOS
transactions so a crash between RPCs can never half-create an entry.
POSIX-style errors surface as :class:`FileNotFoundError`,
:class:`FileExistsError`, :class:`NotADirectoryError`, :class:`IsADirectoryError`.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.daos.client import ContainerHandle, DaosClient, ObjectHandle
from repro.daos.types import DaosError, NoSuchObject, ObjectClass, ObjectId
from repro.sim.core import Event
from repro.sim.queues import FifoServer

__all__ = ["DfsNamespace", "DfsFile", "CHUNK_SIZE"]

#: Default file chunk size (DFS default; also the paper's large block size).
CHUNK_SIZE = 1024 * 1024

DFS_MAGIC = "DFS1"
_SB_OID = ObjectId.make(0, ObjectClass.S1)
_ENTRY_AKEY = b"entry"
_DATA_AKEY = b"data"


_CHUNK_KEY = struct.Struct(">Q")
#: Chunk index -> dkey bytes (big-endian keeps enumeration sorted).
_chunk_dkey = _CHUNK_KEY.pack


def _chunk_index(dkey: bytes) -> int:
    return _CHUNK_KEY.unpack(dkey)[0]


class DfsFile:
    """An open regular file."""

    def __init__(
        self, ns: "DfsNamespace", path: str, oid: ObjectId, chunk_size: int
    ) -> None:
        self.ns = ns
        self.path = path
        self.oid = oid
        self.chunk_size = int(chunk_size)
        self._obj: ObjectHandle = ns.cont.obj(oid)

    def _split(self, offset: int, nbytes: int) -> List[Tuple[int, int, int]]:
        """Break a byte range into (chunk_index, offset_in_chunk, length)."""
        if offset < 0 or nbytes <= 0:
            raise ValueError(f"bad file range ({offset}, {nbytes})")
        out = []
        pos, remaining = offset, nbytes
        while remaining > 0:
            idx, in_off = divmod(pos, self.chunk_size)
            take = min(remaining, self.chunk_size - in_off)
            out.append((idx, in_off, take))
            pos += take
            remaining -= take
        return out

    def write(
        self,
        ctx: FifoServer,
        offset: int,
        nbytes: Optional[int] = None,
        data: Optional[bytes] = None,
    ) -> Generator[Event, None, None]:
        """POSIX pwrite; chunk pieces proceed in parallel, each in a process
        handed the request's span."""
        if nbytes is None:
            if data is None:
                raise DaosError("write needs data or an explicit nbytes")
            nbytes = len(data)
        pieces = self._split(offset, nbytes)
        env = self.ns.client.env
        if len(pieces) == 1:
            idx, in_off, take = pieces[0]
            piece = data[:take] if data is not None else None
            yield from self._obj.update(
                ctx, _chunk_dkey(idx), _DATA_AKEY, in_off, nbytes=take, data=piece,
            )
            return
        span = env._active.span
        procs = []
        consumed = 0
        for idx, in_off, take in pieces:
            piece = data[consumed:consumed + take] if data is not None else None
            proc = env.process(self._obj.update(
                ctx, _chunk_dkey(idx), _DATA_AKEY, in_off, nbytes=take, data=piece,
            ))
            proc.span = span
            procs.append(proc)
            consumed += take
        yield env.all_of(procs)

    def read(
        self,
        ctx: FifoServer,
        offset: int,
        nbytes: int,
        epoch: Optional[int] = None,
    ) -> Generator[Event, None, Optional[bytes]]:
        """POSIX pread; returns bytes in data mode, None otherwise.

        A read inside one chunk is that chunk's fetch: its generator is
        returned for the caller to drive, with no frame of this layer.
        """
        idx, in_off = divmod(offset, self.chunk_size)
        if offset >= 0 and 0 < nbytes <= self.chunk_size - in_off:
            return self._obj.fetch(ctx, _chunk_dkey(idx), _DATA_AKEY, in_off,
                                   nbytes, epoch=epoch)
        return self._read_pieces(ctx, offset, nbytes, epoch)

    def _read_pieces(self, ctx, offset, nbytes, epoch):
        """A read across chunks: one fetch process per chunk piece, each
        handed the request's span."""
        pieces = self._split(offset, nbytes)
        env = self.ns.client.env
        span = env._active.span
        procs = []
        for idx, in_off, take in pieces:
            proc = env.process(self._obj.fetch(
                ctx, _chunk_dkey(idx), _DATA_AKEY, in_off, take, epoch=epoch))
            proc.span = span
            procs.append(proc)
        results = yield env.all_of(procs)
        parts = [results[p] for p in procs]
        if any(part is None for part in parts):
            return None
        return b"".join(parts)

    def punch(
        self, ctx: FifoServer, offset: int, nbytes: int
    ) -> Generator[Event, None, None]:
        """Deallocate a byte range (reads back as zeros)."""
        for idx, in_off, take in self._split(offset, nbytes):
            yield from self._obj.punch(ctx, _chunk_dkey(idx), _DATA_AKEY, in_off, take)

    def size(self, ctx: FifoServer) -> Generator[Event, None, int]:
        """POSIX file size: end of the highest-offset visible extent."""
        sizes = yield from self._obj.dkey_sizes(ctx, _DATA_AKEY)
        best = 0
        for dkey, sz in sizes.items():
            end = _chunk_index(dkey) * self.chunk_size + sz
            if end > best:
                best = end
        return best


class DfsNamespace:
    """A mounted DFS filesystem inside one container."""

    def __init__(self, client: DaosClient, cont: ContainerHandle) -> None:
        self.client = client
        self.cont = cont
        self.chunk_size = CHUNK_SIZE
        self.root_oid: Optional[ObjectId] = None

    # -- mount/format --------------------------------------------------------
    def format(self, ctx: FifoServer) -> Generator[Event, None, "DfsNamespace"]:
        """Initialize the superblock and root directory (mkfs)."""
        oids = yield from self.cont.alloc_oid(ctx, ObjectClass.S1, 1)
        root = oids[0]
        tx = self.cont.tx()
        tx.kv_put(_SB_OID, b"sb", b"info", {
            "magic": DFS_MAGIC,
            "chunk_size": self.chunk_size,
            "root": root,
        })
        yield from tx.commit(ctx)
        self.root_oid = root
        return self

    def mount(self, ctx: FifoServer) -> Generator[Event, None, "DfsNamespace"]:
        """Load the superblock of an already-formatted container."""
        sb = self.cont.obj(_SB_OID)
        try:
            info = yield from sb.kv_get(ctx, b"sb", b"info")
        except (DaosError, NoSuchObject) as exc:
            raise DaosError(f"container is not a DFS filesystem: {exc}") from exc
        if info.get("magic") != DFS_MAGIC:
            raise DaosError(f"bad DFS magic {info.get('magic')!r}")
        self.chunk_size = info["chunk_size"]
        self.root_oid = info["root"]
        return self

    # -- path plumbing ----------------------------------------------------------
    @staticmethod
    def _components(path: str) -> List[str]:
        if not path.startswith("/"):
            raise ValueError(f"DFS paths are absolute, got {path!r}")
        return [c for c in path.split("/") if c]

    def _require_mounted(self) -> ObjectId:
        if self.root_oid is None:
            raise DaosError("namespace is not mounted; call format() or mount()")
        return self.root_oid

    def _lookup_entry(
        self, ctx: FifoServer, dir_oid: ObjectId, name: str
    ) -> Generator[Event, None, Dict[str, Any]]:
        obj = self.cont.obj(dir_oid)
        try:
            entry = yield from obj.kv_get(ctx, name.encode(), _ENTRY_AKEY)
        except DaosError:
            raise FileNotFoundError(name) from None
        return entry

    def _resolve_dir(
        self, ctx: FifoServer, components: List[str]
    ) -> Generator[Event, None, ObjectId]:
        """Walk ``components`` (all must be directories); returns the oid."""
        oid = self._require_mounted()
        for name in components:
            entry = yield from self._lookup_entry(ctx, oid, name)
            if entry["type"] != "dir":
                raise NotADirectoryError(name)
            oid = entry["oid"]
        return oid

    def _resolve_parent(
        self, ctx: FifoServer, path: str
    ) -> Generator[Event, None, Tuple[ObjectId, str]]:
        comps = self._components(path)
        if not comps:
            raise ValueError("operation on the root directory")
        parent = yield from self._resolve_dir(ctx, comps[:-1])
        return parent, comps[-1]

    def _entry_exists(
        self, ctx: FifoServer, dir_oid: ObjectId, name: str
    ) -> Generator[Event, None, bool]:
        try:
            yield from self._lookup_entry(ctx, dir_oid, name)
        except FileNotFoundError:
            return False
        return True

    # -- namespace operations -------------------------------------------------------
    def mkdir(self, ctx: FifoServer, path: str) -> Generator[Event, None, None]:
        """Create a directory (parents must exist)."""
        parent, name = yield from self._resolve_parent(ctx, path)
        if (yield from self._entry_exists(ctx, parent, name)):
            raise FileExistsError(path)
        oids = yield from self.cont.alloc_oid(ctx, ObjectClass.S1, 1)
        tx = self.cont.tx()
        tx.kv_put(parent, name.encode(), _ENTRY_AKEY,
                  {"type": "dir", "oid": oids[0], "mode": 0o755})
        yield from tx.commit(ctx)

    def create(
        self,
        ctx: FifoServer,
        path: str,
        chunk_size: Optional[int] = None,
        oclass: ObjectClass = ObjectClass.SX,
    ) -> Generator[Event, None, DfsFile]:
        """Create a regular file; returns its open handle.

        ``oclass`` selects the data object's redundancy/striping class:
        ``SX`` (default, striped for bandwidth) or ``RP2`` (two replicas,
        survives a target failure).
        """
        parent, name = yield from self._resolve_parent(ctx, path)
        if (yield from self._entry_exists(ctx, parent, name)):
            raise FileExistsError(path)
        chunk = int(chunk_size or self.chunk_size)
        if chunk <= 0:
            raise ValueError(f"chunk size must be positive, got {chunk}")
        oids = yield from self.cont.alloc_oid(ctx, oclass, 1)
        tx = self.cont.tx()
        tx.kv_put(parent, name.encode(), _ENTRY_AKEY,
                  {"type": "file", "oid": oids[0], "chunk_size": chunk, "mode": 0o644})
        yield from tx.commit(ctx)
        return DfsFile(self, path, oids[0], chunk)

    def open(self, ctx: FifoServer, path: str) -> Generator[Event, None, DfsFile]:
        """Open an existing regular file."""
        parent, name = yield from self._resolve_parent(ctx, path)
        entry = yield from self._lookup_entry(ctx, parent, name)
        if entry["type"] != "file":
            raise IsADirectoryError(path)
        return DfsFile(self, path, entry["oid"], entry["chunk_size"])

    def unlink(self, ctx: FifoServer, path: str) -> Generator[Event, None, None]:
        """Remove a file or (empty) directory entry."""
        parent, name = yield from self._resolve_parent(ctx, path)
        entry = yield from self._lookup_entry(ctx, parent, name)
        if entry["type"] == "dir":
            names = yield from self.readdir(ctx, path)
            if names:
                raise OSError(f"directory not empty: {path}")
        tx = self.cont.tx()
        tx.punch_dkey(parent, name.encode())
        yield from tx.commit(ctx)

    def rename(
        self, ctx: FifoServer, old: str, new: str
    ) -> Generator[Event, None, None]:
        """Atomically move an entry (one transaction: insert + remove)."""
        old_parent, old_name = yield from self._resolve_parent(ctx, old)
        entry = yield from self._lookup_entry(ctx, old_parent, old_name)
        new_parent, new_name = yield from self._resolve_parent(ctx, new)
        if (yield from self._entry_exists(ctx, new_parent, new_name)):
            raise FileExistsError(new)
        tx = self.cont.tx()
        tx.kv_put(new_parent, new_name.encode(), _ENTRY_AKEY, entry)
        tx.punch_dkey(old_parent, old_name.encode())
        yield from tx.commit(ctx)

    def readdir(self, ctx: FifoServer, path: str) -> Generator[Event, None, List[str]]:
        """List entry names in a directory."""
        comps = self._components(path) if path != "/" else []
        dir_oid = yield from self._resolve_dir(ctx, comps)
        obj = self.cont.obj(dir_oid)
        dkeys = yield from obj.list_dkeys(ctx)
        return sorted(d.decode() for d in dkeys)

    def stat(self, ctx: FifoServer, path: str) -> Generator[Event, None, Dict[str, Any]]:
        """POSIX-ish stat: type, mode, oid, chunk_size, size."""
        parent, name = yield from self._resolve_parent(ctx, path)
        entry = yield from self._lookup_entry(ctx, parent, name)
        info = dict(entry)
        if entry["type"] == "file":
            f = DfsFile(self, path, entry["oid"], entry["chunk_size"])
            info["size"] = yield from f.size(ctx)
        else:
            info["size"] = 0
        return info

    def exists(self, ctx: FifoServer, path: str) -> Generator[Event, None, bool]:
        """Whether ``path`` resolves."""
        try:
            parent, name = yield from self._resolve_parent(ctx, path)
            yield from self._lookup_entry(ctx, parent, name)
        except (FileNotFoundError, NotADirectoryError):
            return False
        return True
