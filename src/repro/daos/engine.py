"""The DAOS I/O engine: targets, xstreams, pool/container service, object I/O.

One engine runs on the storage node, *unmodified* in every ROS2
configuration (the paper's key constraint: only the client moves to the
DPU).  The engine owns ``n_targets`` VOS instances — 8 per NVMe SSD, like
a production DAOS layout — each with a service xstream; object shards are
placed by hashing, with ``SX`` objects striping dkeys across all targets
(how DFS gets multi-SSD bandwidth from one file).

Data movement follows DAOS exactly: records at or below the inline
threshold travel inside the RPC; larger payloads ride one-sided bulk
transfers against the client-registered window (the engine *pulls* write
payloads and *pushes* read payloads), so on verbs providers the client
spends zero CPU per byte.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.daos.rpc import RpcServer
from repro.daos.types import (
    ContainerId,
    DaosError,
    NoSuchContainer,
    NoSuchPool,
    ObjectClass,
    ObjectId,
    PoolId,
    new_container_id,
    new_pool_id,
)
from repro.daos.vos import VersionedObjectStore
from repro.hw.platform import StorageNode
from repro.hw.specs import US
from repro.net.fabric import FabricChannel, RemoteRegion
from repro.sim.core import Environment
from repro.sim.queues import FifoServer
from repro.storage.block import BlockDevice
from repro.storage.pmdk import PmemPool

__all__ = ["DaosEngine", "TARGETS_PER_SSD", "INLINE_THRESHOLD"]

#: Production-like layout: 8 targets (xstreams) per NVMe SSD.
TARGETS_PER_SSD = 8

#: Records at or below this size travel inline in the RPC; above it the
#: engine uses one-sided bulk against the client window (DAOS's
#: rpc-inline/bulk split).
INLINE_THRESHOLD = 4096

#: Per-request CPU on the serving xstream (dispatch, VOS tree walk,
#: durability bookkeeping) — x86 baseline.
ENGINE_CPU_PER_OP = 5.0 * US

#: Checksum/copy work per payload byte on the serving xstream.
ENGINE_CPU_PER_BYTE = 0.02e-9

#: Media-pipeline efficiency per transport family: the kernel-TCP data
#: path overlaps with NVMe streaming worse than RDMA's DMA'd bulk path
#: (calibrated so host TCP reads ~5.6 GiB/s where RDMA reads 6.45, Fig. 5).
MEDIA_OVERLAP = {"tcp": 0.88, "rdma": 1.0}


@dataclass(slots=True)
class _Container:
    cont_id: ContainerId
    epoch: int = 0  # highest committed epoch


@dataclass(slots=True)
class _Pool:
    pool_id: PoolId
    containers: Dict[ContainerId, _Container] = field(default_factory=dict)


@dataclass(slots=True)
class _Target:
    index: int
    vos: VersionedObjectStore
    xstream: FifoServer
    #: Failure-injection flag: a down target serves nothing until rebuilt.
    down: bool = False


class DaosEngine:
    """The I/O engine process on the storage server."""

    def __init__(
        self,
        node: StorageNode,
        n_targets: Optional[int] = None,
        data_mode: bool = False,
    ) -> None:
        self.node = node
        self.env: Environment = node.env
        self.data_mode = bool(data_mode)
        n_ssds = len(node.nvme)
        self.n_targets = int(n_targets if n_targets is not None else TARGETS_PER_SSD * n_ssds)
        if self.n_targets <= 0:
            raise ValueError(f"need at least one target, got {self.n_targets}")

        self.block = BlockDevice(node.nvme, data_mode=data_mode)
        region = self.block.capacity_bytes // self.n_targets
        scm_per_target = node.scm_bytes // self.n_targets
        self.targets: List[_Target] = []
        for i in range(self.n_targets):
            scm = PmemPool(self.env, scm_per_target, data_mode=data_mode)
            vos = VersionedObjectStore(
                self.env, i, scm, self.block,
                nvme_region_start=i * region, nvme_region_bytes=region,
            )
            self.targets.append(_Target(i, vos, FifoServer(
                self.env, f"{node.name}.xs{i}", factor=node.spec.cycle_factor
            )))
        self._sys_xstream = FifoServer(
            self.env, f"{node.name}.xs_sys", factor=node.spec.cycle_factor
        )
        self.pools: Dict[PoolId, _Pool] = {}
        self._oid_seq = 1
        #: Placement cache: ``(oid.hi, oid.lo, dkey) -> [replica targets]``.
        #: Placement is a pure function of (oid, dkey, targets); targets are
        #: fixed at construction and failure only toggles ``down`` flags on
        #: the cached objects, so entries never go stale.  This removes an
        #: f-string + CRC32 from every data-path RPC.
        self._place_cache: Dict[tuple, List[_Target]] = {}
        #: ``(pool, cont) -> _Container`` for the data handlers; pools and
        #: containers are never removed, so entries never go stale.
        self._cont_cache: Dict[tuple, _Container] = {}
        #: Reads served from a surviving replica or by EC reconstruction
        #: while a target was down (surfaced in ``SystemReport``).
        self.degraded_reads = 0
        self.rpc = RpcServer(node)
        self._register_handlers()
        reg = self.env.components
        reg.add("engine", "engine", self, node=node.name)
        for t in self.targets:  # a target answers to its engine
            reg.add(f"engine.target{t.index}", "target", self, node=node.name)
            reg.add(t.xstream.name, "xstream", t.xstream, node=node.name)

    # -- administration (local API, also callable via RPC) ---------------------
    def create_pool(self) -> PoolId:
        """Create a pool spanning all targets."""
        pid = new_pool_id()
        self.pools[pid] = _Pool(pid)
        return pid

    def create_container(self, pool: PoolId) -> ContainerId:
        """Create a container in ``pool``."""
        p = self._pool(pool)
        cid = new_container_id()
        p.containers[cid] = _Container(cid)
        return cid

    def serve(self, channel: FabricChannel) -> None:
        """Service DAOS RPCs arriving on ``channel``."""
        self.rpc.serve(channel)

    # -- placement ----------------------------------------------------------------
    def target_for(self, oid: ObjectId, dkey: bytes) -> _Target:
        """Primary shard placement: S1/RP2 pin the object; SX stripes dkeys.

        Uses a stable CRC-based hash (Python's ``hash`` is salted per
        process, which would make placement non-reproducible).
        """
        seed = f"{oid.hi:x}.{oid.lo:x}".encode()
        if oid.oclass is ObjectClass.SX:
            h = zlib.crc32(seed + b"/" + bytes(dkey))
        else:
            h = zlib.crc32(seed)
        return self.targets[h % self.n_targets]

    def replicas_for(self, oid: ObjectId, dkey: bytes) -> List[_Target]:
        """All replica targets (primary first).  RP2 places the second
        replica on the next target ring position (distinct when possible).

        Results are memoised per ``(oid, dkey)`` — callers must treat the
        returned list as read-only (all in-tree callers do).
        """
        key = (oid.hi, oid.lo, dkey)
        cached = self._place_cache.get(key)
        if cached is not None:
            return cached
        primary = self.target_for(oid, dkey)
        if oid.oclass is not ObjectClass.RP2 or self.n_targets < 2:
            cached = [primary]
        else:
            cached = [primary, self.targets[(primary.index + 1) % self.n_targets]]
        self._place_cache[key] = cached
        return cached

    def ec_targets(self, oid: ObjectId, dkey: bytes) -> List[_Target]:
        """The (data0, data1, parity) targets of an EC2P1 shard."""
        if self.n_targets < 3:
            raise DaosError(
                f"EC2P1 needs at least 3 targets, engine has {self.n_targets}"
            )
        primary = self.target_for(oid, dkey)
        return [
            self.targets[(primary.index + i) % self.n_targets] for i in range(3)
        ]

    def live_replicas(self, oid: ObjectId, dkey: bytes) -> List[_Target]:
        """Replicas currently serving (down targets filtered out)."""
        replicas = self.replicas_for(oid, dkey)
        for t in replicas:
            if t.down:
                live = [x for x in replicas if not x.down]
                if not live:
                    raise DaosError(
                        f"all replicas of {oid} dkey={dkey!r} are down "
                        f"(data unavailable)"
                    )
                return live
        # Healthy path: no filtering, no list allocation (read-only result).
        return replicas

    # -- failure injection & rebuild ---------------------------------------------
    def fail_target(self, index: int) -> None:
        """Mark a target failed: it serves no I/O until rebuilt."""
        self.targets[index].down = True

    def rebuild_target(self, index: int):
        """Bring a failed target back and resync its redundant shards.

        Run as a process (``yield from`` / ``env.process``).  RP2 records
        are copied from the surviving replica; EC2P1 cell streams are
        XOR-reconstructed from the two surviving targets.  Failure here
        models *transient* unavailability (a rebooted target): surviving
        state is intact and only writes that raced the outage need
        resyncing.
        """
        target = self.targets[index]
        if not target.down:
            return
        resynced = 0
        resynced += yield from self._rebuild_ec(target)
        for peer in self.targets:
            if peer is target or peer.down:
                continue
            for (cont, oid), obj in list(peer.vos.objects.items()):
                if oid.oclass is not ObjectClass.RP2:
                    continue
                for dkey in list(obj._dkeys):
                    replicas = self.replicas_for(oid, dkey)
                    if target not in replicas or peer not in replicas:
                        continue
                    for akey, store in obj._dkeys[dkey].items():
                        extents = getattr(store, "extents", None)
                        if extents is None:
                            # Single values: replay the newest version.
                            for epoch, _seq, value in store.versions:
                                yield from target.vos.kv_put(
                                    cont, oid, dkey, akey, epoch, value
                                )
                            continue
                        for ext in extents:
                            if ext.punched:
                                target.vos.object(cont, oid).array(
                                    dkey, akey
                                ).punch(ext.epoch, ext.start, ext.nbytes)
                                continue
                            yield peer.xstream.enter(ENGINE_CPU_PER_OP)
                            # Read from the survivor, write to the rebuilt.
                            yield from peer.vos.fetch(
                                cont, oid, dkey, akey, ext.epoch,
                                ext.start, ext.nbytes, verify=False,
                            )
                            yield from target.vos.update(
                                cont, oid, dkey, akey, ext.epoch,
                                ext.start, ext.nbytes, data=ext.data,
                            )
                            resynced += 1
        target.down = False
        return resynced

    def _rebuild_ec(self, target: _Target):
        """Reconstruct the EC cell streams the failed target should hold.

        For every EC object whose 3-target set includes ``target``, each
        extent present on a surviving member is reconstructed: parity from
        the two data streams, or a data stream from its sibling + parity.
        """
        from repro.daos import erasure

        rebuilt = 0
        done_keys = set()
        for peer in self.targets:
            if peer is target or peer.down:
                continue
            for (cont, oid), obj in list(peer.vos.objects.items()):
                if oid.oclass is not ObjectClass.EC2P1:
                    continue
                for dkey in list(obj._dkeys):
                    ec_set = self.ec_targets(oid, dkey)
                    if target not in ec_set or peer is not next(
                        t for t in ec_set if not t.down
                    ):
                        continue  # one survivor drives each shard's rebuild
                    missing = ec_set.index(target)
                    survivors = [t for i, t in enumerate(ec_set) if i != missing]
                    if any(t.down for t in survivors):
                        continue  # unrecoverable right now
                    for akey, store in obj._dkeys[dkey].items():
                        extents = getattr(store, "extents", None)
                        if not extents:
                            continue
                        for ext in extents:
                            key = (cont, oid, dkey, akey, ext.epoch,
                                   ext.start, ext.end)
                            if key in done_keys or ext.punched:
                                continue
                            done_keys.add(key)
                            parts = []
                            for s in survivors:
                                yield s.xstream.enter(ENGINE_CPU_PER_OP)
                                part = yield from s.vos.fetch(
                                    cont, oid, dkey, akey, ext.epoch,
                                    ext.start, ext.nbytes, verify=False,
                                )
                                parts.append(part)
                            lost = erasure.xor_bytes(parts[0], parts[1])
                            yield target.xstream.enter(
                                ENGINE_CPU_PER_BYTE * 2 * ext.nbytes
                            )
                            yield from target.vos.update(
                                cont, oid, dkey, akey, ext.epoch,
                                ext.start, ext.nbytes, data=lost,
                            )
                            rebuilt += 1
        return rebuilt

    # -- internals -----------------------------------------------------------------
    def _pool(self, pool: PoolId) -> _Pool:
        p = self.pools.get(pool)
        if p is None:
            raise NoSuchPool(f"{pool} does not exist")
        return p

    def _cont(self, pool: PoolId, cont: ContainerId) -> _Container:
        c = self._pool(pool).containers.get(cont)
        if c is None:
            raise NoSuchContainer(f"{cont} does not exist in {pool}")
        return c

    def _register_handlers(self) -> None:
        r = self.rpc.register
        r("pool_connect", self._h_pool_connect)
        r("cont_create", self._h_cont_create)
        r("cont_open", self._h_cont_open)
        r("cont_query", self._h_cont_query)
        r("oid_alloc", self._h_oid_alloc)
        r("obj_update", self._h_obj_update)
        r("obj_fetch", self._h_obj_fetch)
        r("obj_punch", self._h_obj_punch)
        r("obj_punch_dkey", self._h_obj_punch_dkey)
        r("obj_list_dkeys", self._h_obj_list_dkeys)
        r("obj_sizes", self._h_obj_sizes)
        r("kv_put", self._h_kv_put)
        r("kv_get", self._h_kv_get)
        r("tx_commit", self._h_tx_commit)

    # -- control handlers -------------------------------------------------------
    def _h_pool_connect(self, args, src, channel):
        pool = self._pool(args["pool"])
        yield self._sys_xstream.enter(ENGINE_CPU_PER_OP)
        return {"n_targets": self.n_targets, "pool": pool.pool_id}

    def _h_cont_create(self, args, src, channel):
        yield self._sys_xstream.enter(ENGINE_CPU_PER_OP)
        return {"cont": self.create_container(args["pool"])}

    def _h_cont_open(self, args, src, channel):
        cont = self._cont(args["pool"], args["cont"])
        yield self._sys_xstream.enter(ENGINE_CPU_PER_OP)
        return {"epoch": cont.epoch}

    def _h_cont_query(self, args, src, channel):
        cont = self._cont(args["pool"], args["cont"])
        yield self._sys_xstream.enter(ENGINE_CPU_PER_OP)
        return {"epoch": cont.epoch}

    def _h_oid_alloc(self, args, src, channel):
        """Allocate a range of object ids (DAOS oid allocator)."""
        count = int(args.get("count", 1))
        if count <= 0:
            raise DaosError(f"oid_alloc count must be positive, got {count}")
        base = self._oid_seq
        self._oid_seq += count
        yield self._sys_xstream.enter(ENGINE_CPU_PER_OP)
        return {"base": base, "count": count}

    # -- data handlers ------------------------------------------------------------
    def _h_obj_update(self, args, src, channel):
        pool, cid = args["pool"], args["cont"]
        cont = self._cont_cache.get((pool, cid))
        if cont is None:
            cont = self._cont_cache[pool, cid] = self._cont(pool, cid)
        oid: ObjectId = args["oid"]
        dkey, akey = args["dkey"], args["akey"]
        offset, nbytes = args["offset"], args["nbytes"]
        if offset < 0 or nbytes <= 0:
            raise DaosError(f"bad extent ({offset}, {nbytes}) of {oid}")
        region: Optional[RemoteRegion] = args.get("region")
        data: Optional[bytes] = args.get("data")
        epoch = args.get("epoch")
        if epoch is None:
            cont.epoch += 1
            epoch = cont.epoch
        elif epoch <= 0:
            raise DaosError(f"bad epoch {epoch}")

        trace = args.get("_trace")
        if oid.oclass is ObjectClass.EC2P1:
            result = yield from self._ec_update(
                channel, cid, oid, dkey, akey, epoch, offset, nbytes,
                region, data, trace=trace,
            )
            return result

        replicas = self.live_replicas(oid, dkey)
        span = trace.child("engine.xstream", node=self.node.name, nbytes=nbytes) if trace is not None else None
        yield replicas[0].xstream.enter(
            ENGINE_CPU_PER_OP + ENGINE_CPU_PER_BYTE * nbytes
        )
        if span is not None:
            span.finish()
        if region is not None and nbytes > INLINE_THRESHOLD:
            # Bulk pull from the client window (one-sided on verbs), once;
            # replicas share the payload server-side.
            data = yield from channel.rma_read(self.node.name, region, nbytes,
                                               trace=trace)
        eff = MEDIA_OVERLAP[channel.provider.family]
        if len(replicas) == 1:
            yield from replicas[0].vos.update(
                cid, oid, dkey, akey, epoch, offset, nbytes, data=data,
                bw_efficiency=eff, trace=trace,
            )
        else:
            # Replicated write: all replicas persist in parallel; the
            # update completes when the slowest replica is durable.
            writes = []
            for idx, target in enumerate(replicas):
                if idx:
                    yield target.xstream.enter(ENGINE_CPU_PER_OP)
                writes.append(self.env.process(target.vos.update(
                    cid, oid, dkey, akey, epoch, offset, nbytes, data=data,
                    bw_efficiency=eff, trace=trace,
                )))
            yield self.env.all_of(writes)
        return {"epoch": epoch}

    def _h_obj_fetch(self, args, src, channel):
        pool, cid = args["pool"], args["cont"]
        cont = self._cont_cache.get((pool, cid))
        if cont is None:
            cont = self._cont_cache[pool, cid] = self._cont(pool, cid)
        oid: ObjectId = args["oid"]
        dkey, akey = args["dkey"], args["akey"]
        offset, nbytes = args["offset"], args["nbytes"]
        if offset < 0 or nbytes <= 0:
            raise DaosError(f"bad read range ({offset}, {nbytes}) of {oid}")
        region: Optional[RemoteRegion] = args.get("region")
        epoch = args.get("epoch")
        if epoch is None:
            epoch = cont.epoch

        trace = args.get("_trace")
        if oid.oclass is ObjectClass.EC2P1:
            result = yield from self._ec_fetch(
                channel, cid, oid, dkey, akey, epoch, offset, nbytes, region,
                trace=trace,
            )
            return result

        # Served by the first live replica (primary unless failed over).
        live = self.replicas_for(oid, dkey)
        for t in live:
            if t.down:
                # Failover filters the placement (or finds no replica up):
                # this read is degraded.
                live = self.live_replicas(oid, dkey)
                self.degraded_reads += 1
                break
        target = live[0]
        span = trace.child("engine.xstream", node=self.node.name, nbytes=nbytes) if trace is not None else None
        yield target.xstream.enter(
            ENGINE_CPU_PER_OP + ENGINE_CPU_PER_BYTE * nbytes
        )
        if span is not None:
            span.finish()
        data = yield from target.vos.fetch(
            cid, oid, dkey, akey, epoch, offset, nbytes,
            bw_efficiency=MEDIA_OVERLAP[channel.provider.family], trace=trace,
        )
        if region is not None and nbytes > INLINE_THRESHOLD:
            # Bulk push into the client window.
            yield from channel.rma_write(
                self.node.name, region, payload=data, nbytes=nbytes, trace=trace
            )
            return {"epoch": epoch, "nbytes": nbytes}
        # Inline read: the payload rides the reply capsule on the wire.
        return {"epoch": epoch, "nbytes": nbytes, "data": data, "_wire": nbytes}

    # -- erasure-coded data path (EC2P1) -----------------------------------------
    def _ec_update(self, channel, cid, oid, dkey, akey, epoch, offset, nbytes,
                   region, data, trace=None):
        """Stripe-aligned EC write: two data cells + XOR parity, three targets.

        Degraded writes (a cell target down) are rejected — real DAOS
        journals them via a replication fallback we do not model; rebuild
        the target first.
        """
        from repro.daos import erasure

        try:
            erasure.check_aligned(offset, nbytes)
        except ValueError as exc:
            raise DaosError(str(exc)) from exc
        targets = self.ec_targets(oid, dkey)
        if any(t.down for t in targets):
            raise DaosError("EC2P1 degraded writes are not supported; rebuild first")

        yield targets[0].xstream.enter(
            ENGINE_CPU_PER_OP + ENGINE_CPU_PER_BYTE * nbytes
        )
        if region is not None and nbytes > INLINE_THRESHOLD:
            data = yield from channel.rma_read(self.node.name, region, nbytes,
                                               trace=trace)
        d0, d1, parity = erasure.encode(data, nbytes)
        half = nbytes // 2
        local_off = (offset // erasure.STRIPE_BYTES) * erasure.CELL_BYTES
        eff = MEDIA_OVERLAP[channel.provider.family]
        # Parity XOR runs on the parity target's xstream.
        yield targets[2].xstream.enter(ENGINE_CPU_PER_BYTE * nbytes)
        writes = [
            self.env.process(t.vos.update(
                cid, oid, dkey, akey, epoch, local_off, half, data=buf,
                bw_efficiency=eff,
            ))
            for t, buf in zip(targets, (d0, d1, parity))
        ]
        yield self.env.all_of(writes)
        return {"epoch": epoch}

    def _ec_fetch(self, channel, cid, oid, dkey, akey, epoch, offset, nbytes,
                  region, trace=None):
        """Stripe-aligned EC read, reconstructing through parity when one
        data target is down."""
        from repro.daos import erasure

        try:
            erasure.check_aligned(offset, nbytes)
        except ValueError as exc:
            raise DaosError(str(exc)) from exc
        targets = self.ec_targets(oid, dkey)
        d_targets, p_target = targets[:2], targets[2]
        down = [t.down for t in d_targets]
        if all(down) or (any(down) and p_target.down):
            raise DaosError(
                f"EC2P1 shard of {oid} has lost too many targets to reconstruct"
            )
        half = nbytes // 2
        local_off = (offset // erasure.STRIPE_BYTES) * erasure.CELL_BYTES
        eff = MEDIA_OVERLAP[channel.provider.family]
        serving = next(t for t in targets if not t.down)
        yield serving.xstream.enter(ENGINE_CPU_PER_OP + ENGINE_CPU_PER_BYTE * nbytes)

        def read_from(t):
            return self.env.process(t.vos.fetch(
                cid, oid, dkey, akey, epoch, local_off, half,
                bw_efficiency=eff,
            ))

        if not any(down):
            p0, p1 = read_from(d_targets[0]), read_from(d_targets[1])
            results = yield self.env.all_of([p0, p1])
            data = erasure.interleave(results[p0], results[p1])
        else:
            self.degraded_reads += 1
            alive = d_targets[1] if down[0] else d_targets[0]
            pa, pp = read_from(alive), read_from(p_target)
            results = yield self.env.all_of([pa, pp])
            # Reconstruct the lost cell stream, then reassemble in order.
            lost = erasure.reconstruct_cell(results[pa], results[pp])
            yield p_target.xstream.enter(ENGINE_CPU_PER_BYTE * nbytes)
            if down[0]:
                data = erasure.interleave(lost, results[pa])
            else:
                data = erasure.interleave(results[pa], lost)

        if region is not None and nbytes > INLINE_THRESHOLD:
            yield from channel.rma_write(
                self.node.name, region, payload=data, nbytes=nbytes, trace=trace
            )
            return {"epoch": epoch, "nbytes": nbytes}
        return {"epoch": epoch, "nbytes": nbytes, "data": data, "_wire": nbytes}

    def _h_obj_punch(self, args, src, channel):
        cont = self._cont(args["pool"], args["cont"])
        cont.epoch += 1
        target = self.target_for(args["oid"], args["dkey"])
        yield target.xstream.enter(ENGINE_CPU_PER_OP)
        yield from target.vos.punch(
            args["cont"], args["oid"], args["dkey"], args["akey"],
            cont.epoch, args["offset"], args["nbytes"],
        )
        return {"epoch": cont.epoch}

    def _h_obj_punch_dkey(self, args, src, channel):
        cont = self._cont(args["pool"], args["cont"])
        cont.epoch += 1
        oid, dkey = args["oid"], args["dkey"]
        target = self.target_for(oid, dkey)
        yield target.xstream.enter(ENGINE_CPU_PER_OP)
        target.vos.object(args["cont"], oid).punch_dkey(cont.epoch, dkey)
        return {"epoch": cont.epoch}

    def _h_obj_list_dkeys(self, args, src, channel):
        cont = self._cont(args["pool"], args["cont"])
        oid = args["oid"]
        epoch = args.get("epoch", cont.epoch)
        # SX objects stripe dkeys over every target: enumerate them all.
        merged: List[bytes] = []
        for target in self._shards_of(oid):
            yield target.xstream.enter(ENGINE_CPU_PER_OP)
            keys = yield from target.vos.list_dkeys(args["cont"], oid, epoch)
            merged.extend(keys)
        return {"dkeys": sorted(set(merged))}

    def _h_obj_sizes(self, args, src, channel):
        cont = self._cont(args["pool"], args["cont"])
        oid = args["oid"]
        epoch = args.get("epoch", cont.epoch)
        sizes: Dict[bytes, int] = {}
        for target in self._shards_of(oid):
            yield target.xstream.enter(ENGINE_CPU_PER_OP)
            part = yield from target.vos.dkey_sizes(
                args["cont"], oid, args["akey"], epoch
            )
            sizes.update(part)
        if oid.oclass is ObjectClass.EC2P1:
            # Targets store cell streams: logical bytes are twice the
            # local per-target extent size.
            sizes = {k: 2 * v for k, v in sizes.items()}
        return {"sizes": sizes}

    def _h_kv_put(self, args, src, channel):
        cont = self._cont(args["pool"], args["cont"])
        cont.epoch += 1
        for target in self.live_replicas(args["oid"], args["dkey"]):
            yield target.xstream.enter(ENGINE_CPU_PER_OP)
            yield from target.vos.kv_put(
                args["cont"], args["oid"], args["dkey"], args["akey"],
                cont.epoch, args["value"],
            )
        return {"epoch": cont.epoch}

    def _h_kv_get(self, args, src, channel):
        cont = self._cont(args["pool"], args["cont"])
        epoch = args.get("epoch", cont.epoch)
        live = self.live_replicas(args["oid"], args["dkey"])
        if live is not self.replicas_for(args["oid"], args["dkey"]):
            self.degraded_reads += 1
        target = live[0]
        yield target.xstream.enter(ENGINE_CPU_PER_OP)
        value = yield from target.vos.kv_get(
            args["cont"], args["oid"], args["dkey"], args["akey"], epoch
        )
        return {"value": value}

    def _h_tx_commit(self, args, src, channel):
        """Apply a batch of staged operations atomically at one new epoch."""
        cont = self._cont(args["pool"], args["cont"])
        cont.epoch += 1
        epoch = cont.epoch
        for op in args["ops"]:
            kind = op["kind"]
            oid, dkey = op["oid"], op["dkey"]
            target = self.target_for(oid, dkey)
            yield target.xstream.enter(ENGINE_CPU_PER_OP)
            if kind == "update":
                yield from target.vos.update(
                    args["cont"], oid, dkey, op["akey"], epoch,
                    op["offset"], op["nbytes"], data=op.get("data"),
                )
            elif kind == "kv_put":
                yield from target.vos.kv_put(
                    args["cont"], oid, dkey, op["akey"], epoch, op["value"]
                )
            elif kind == "punch_dkey":
                target.vos.object(args["cont"], oid).punch_dkey(epoch, dkey)
            else:
                raise DaosError(f"unknown tx op kind {kind!r}")
        return {"epoch": epoch}

    def _shards_of(self, oid: ObjectId) -> List[_Target]:
        if oid.oclass is ObjectClass.SX:
            return [t for t in self.targets if not t.down]
        if oid.oclass is ObjectClass.RP2:
            return self.live_replicas(oid, b"")[:1]
        if oid.oclass is ObjectClass.EC2P1:
            live = [t for t in self.ec_targets(oid, b"")[:2] if not t.down]
            if not live:
                raise DaosError(f"both data targets of {oid} are down")
            return live[:1]
        return [self.target_for(oid, b"")]
