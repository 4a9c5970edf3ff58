"""libdaos: the client library (pool/container handles, object I/O, TX).

Cost model (x86 baseline, scaled by the client node's factors — this is
the code that moves to the BlueField-3 in ROS2):

* ``submit_cpu_per_op`` / ``complete_cpu_per_op`` on the calling job
  thread — DFS translation, RPC marshalling, completion callbacks.
* ``serial_per_op`` in the node-wide ``daos_progress`` section — the
  client service's single event-queue progress context.  Invisible on the
  EPYC host; on the DPU (lock factor 2.5) it is what caps RDMA small-I/O
  at ~400 K IOPS, the 20-40 % gap of Fig. 5d.
* Transport costs ride the RPC/bulk machinery underneath.

Payloads above the engine's inline threshold use a registered bulk window;
in performance mode one pre-registered window is reused (as a real DAOS
client pre-registers its buffer cache), in functional mode a per-op window
carries the actual bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.daos.engine import INLINE_THRESHOLD
from repro.daos.rpc import RPC_REQUEST_BYTES, RpcClient
from repro.daos.types import ContainerId, DaosError, ObjectClass, ObjectId, PoolId
from repro.faults.errors import FaultInjectedError
from repro.faults.retry import backoff_delay, is_retryable, remaining_budget
from repro.net.rdma import RdmaError
from repro.hw.platform import ComputeNode
from repro.hw.specs import DAOS_PATH, StoragePathCosts
from repro.net.fabric import FabricChannel, RemoteRegion
from repro.sim.core import Environment, Event
from repro.sim.queues import FifoServer

__all__ = ["DaosClient", "PoolHandle", "ContainerHandle", "ObjectHandle", "Transaction"]

#: The performance-mode bulk window each client pre-registers.
BULK_WINDOW_BYTES = 16 * 1024 * 1024


class DaosClient:
    """One client context connected to an engine over one channel."""

    def __init__(
        self,
        node: ComputeNode,
        channel: FabricChannel,
        data_mode: bool = False,
    ) -> None:
        self.node = node
        self.env: Environment = node.env
        self.channel = channel
        self.costs: StoragePathCosts = DAOS_PATH
        self.data_mode = bool(data_mode)
        self.rpc = RpcClient(node, channel).start()
        self._progress = node.lock("daos_progress")
        self._threads = 0
        self._io_seq = 0
        self._window: Optional[RemoteRegion] = None
        if not data_mode:
            self._window = channel.register(node.name, BULK_WINDOW_BYTES)

    # -- contexts -----------------------------------------------------------------
    def new_context(self, name: Optional[str] = None) -> FifoServer:
        """One application job thread issuing I/O through this client."""
        self._threads += 1
        return FifoServer(
            self.env,
            name or f"{self.node.name}.daos.job{self._threads}",
            factor=self.node.spec.cycle_factor,
        )

    # -- cost plumbing -------------------------------------------------------------
    def call(
        self, ctx: FifoServer, opcode: str, args: Dict[str, Any]
    ) -> Generator[Event, None, Any]:
        """One costed RPC from ``ctx`` (control-plane-ish operations).

        The submit CPU, the progress section, the RPC and the complete
        CPU, as :meth:`ObjectHandle.fetch` pays them, without its
        ``client_*`` spans.
        """
        costs = self.costs
        yield ctx.enter(costs.submit_cpu_per_op)
        if costs.serial_per_op:
            yield self._progress.enter(costs.serial_per_op)
        result = yield from self.rpc.call(opcode, args)
        yield ctx.enter(costs.complete_cpu_per_op)
        return result

    def _call_io(
        self,
        opcode: str,
        args: Dict[str, Any],
        req_nbytes: int = RPC_REQUEST_BYTES,
        idempotent: bool = True,
    ) -> Generator[Event, None, Any]:
        """One data-path RPC with recovery semantics (ISSUE 10).

        With no fault plan installed this is a zero-overhead passthrough:
        it returns :meth:`RpcClient.call`'s generator, which the caller
        drives.  Under chaos each attempt carries the policy's per-op
        deadline; retryable failures back off with deterministic jitter
        (blamed on ``fault:{resource}`` when a tracer is installed),
        repair the transport, and try again until the attempt cap or the
        whole-op budget runs out.  Non-idempotent ops (writes) never retry
        after an ambiguous timeout.
        """
        fx = self.env._faults
        if fx is None:
            return self.rpc.call(opcode, args, req_nbytes=req_nbytes)
        return self._retrying(fx, opcode, args, req_nbytes, idempotent)

    def _retrying(self, fx, opcode, args, req_nbytes, idempotent):
        """:meth:`_call_io`'s attempts under the fault plan ``fx``."""
        env = self.env
        policy = fx.plan.policy
        self._io_seq += 1
        seq = self._io_seq
        started = env.now
        attempt = 0
        while True:
            attempt += 1
            # The per-op deadline exists to catch replies lost inside a
            # fault window; faults cannot fire before the plan is armed,
            # so setup/prefill traffic (32-wide MiB writes whose queueing
            # delay dwarfs the policy timeout) runs without one.
            deadline = (policy.op_timeout
                        if policy.op_timeout > 0 and fx.armed_at is not None
                        else None)
            try:
                result = yield from self.rpc.call(
                    opcode, args, req_nbytes=req_nbytes, deadline=deadline,
                )
                return result
            except (DaosError, FaultInjectedError, RdmaError,
                    ConnectionError) as exc:
                if not is_retryable(exc, idempotent=idempotent):
                    raise
                if attempt >= policy.max_attempts:
                    raise
                budget = remaining_budget(policy, started, env.now)
                if budget is not None and budget <= 0.0:
                    raise
                fx.stats.retries += 1
                # The jitter key names the op; only a backoff needs it.
                delay = backoff_delay(
                    policy, attempt,
                    f"{fx.plan.seed_key}:{self.node.name}:io{seq}")
                if budget is not None and delay > budget:
                    delay = budget
                wt = env._wait_tracer
                if wt is not None and env._active.span is not None:
                    # The backoff sleep is downtime caused by the fault,
                    # not an anonymous sleep: blame it on the faulted
                    # resource so the doctor surfaces ``fault:{name}``.
                    wt.reserve(f"fault:{fx.fault_resource()}", delay, 0.0)
                    wt.claim()
                yield env.timeout(delay)
                try:
                    self.channel.ensure_connected()
                except (RdmaError, ConnectionError):
                    # Still inside the fault window; keep backing off.
                    continue

    # -- handles ---------------------------------------------------------------------
    def connect_pool(
        self, ctx: FifoServer, pool: PoolId
    ) -> Generator[Event, None, "PoolHandle"]:
        """Connect to a pool; returns its handle."""
        result = yield from self.call(ctx, "pool_connect", {"pool": pool})
        return PoolHandle(self, pool, result["n_targets"])


@dataclass(slots=True)
class PoolHandle:
    """A connected pool."""

    client: DaosClient
    pool: PoolId
    n_targets: int

    def create_container(
        self, ctx: FifoServer
    ) -> Generator[Event, None, "ContainerHandle"]:
        """Create and open a fresh container."""
        result = yield from self.client.call(ctx, "cont_create", {"pool": self.pool})
        handle = yield from self.open_container(ctx, result["cont"])
        return handle

    def open_container(
        self, ctx: FifoServer, cont: ContainerId
    ) -> Generator[Event, None, "ContainerHandle"]:
        """Open an existing container."""
        yield from self.client.call(
            ctx, "cont_open", {"pool": self.pool, "cont": cont}
        )
        return ContainerHandle(self.client, self.pool, cont)


class ContainerHandle:
    """An open container: object handles, oid allocation, snapshots, TX."""

    def __init__(self, client: DaosClient, pool: PoolId, cont: ContainerId) -> None:
        self.client = client
        self.pool = pool
        self.cont = cont

    def alloc_oid(
        self, ctx: FifoServer, oclass: ObjectClass = ObjectClass.S1, count: int = 1
    ) -> Generator[Event, None, List[ObjectId]]:
        """Allocate ``count`` fresh object ids of ``oclass``."""
        result = yield from self.client.call(
            ctx, "oid_alloc", {"pool": self.pool, "count": count}
        )
        base = result["base"]
        return [ObjectId.make(base + i, oclass) for i in range(count)]

    def obj(self, oid: ObjectId) -> "ObjectHandle":
        """Open an object handle (local operation)."""
        return ObjectHandle(self, oid)

    def query_epoch(self, ctx: FifoServer) -> Generator[Event, None, int]:
        """Highest committed epoch (snapshot point)."""
        result = yield from self.client.call(
            ctx, "cont_query", {"pool": self.pool, "cont": self.cont}
        )
        return result["epoch"]

    def tx(self) -> "Transaction":
        """Start staging a transaction."""
        return Transaction(self)


class ObjectHandle:
    """Object I/O: array update/fetch, KV put/get, punch, enumeration."""

    def __init__(self, cont: ContainerHandle, oid: ObjectId) -> None:
        self.cont = cont
        self.oid = oid
        self.client = cont.client

    def _base_args(self) -> Dict[str, Any]:
        return {"pool": self.cont.pool, "cont": self.cont.cont, "oid": self.oid}

    # -- array I/O -------------------------------------------------------------
    def update(
        self,
        ctx: FifoServer,
        dkey: bytes,
        akey: bytes,
        offset: int,
        nbytes: Optional[int] = None,
        data: Optional[bytes] = None,
        epoch: Optional[int] = None,
    ) -> Generator[Event, None, int]:
        """Write one extent; returns the commit epoch."""
        if nbytes is None:
            if data is None:
                raise DaosError("update needs data or an explicit nbytes")
            nbytes = len(data)
        if offset < 0 or nbytes <= 0:
            raise DaosError(f"bad extent ({offset}, {nbytes}) of {self.oid}")
        client = self.client
        costs = client.costs
        span = client.env._active.span
        # The submit CPU and the progress section, inline in both data
        # ops: a helper generator would add a frame to each resume.
        if span is not None:
            child = span.child("client_submit", node=client.node.name)
        yield ctx.enter(costs.submit_cpu_per_op)
        if span is not None:
            child.finish()
        if costs.serial_per_op:
            if span is not None:
                child = span.child("client_progress", node=client.node.name)
            yield client._progress.enter(costs.serial_per_op)
            if span is not None:
                child.finish()

        cont = self.cont
        args = {"pool": cont.pool, "cont": cont.cont, "oid": self.oid,
                "dkey": bytes(dkey), "akey": bytes(akey), "offset": offset,
                "nbytes": nbytes}
        if epoch is not None:
            args["epoch"] = epoch

        window = None
        if nbytes > INLINE_THRESHOLD:
            if client.data_mode:
                buf = bytearray(nbytes)
                if data is not None:
                    buf[:] = data
                window = client.channel.register(client.node.name, nbytes, buffer=buf)
            else:
                window = client._window
            args["region"] = window
        elif data is not None:
            args["data"] = bytes(data)
        elif client.data_mode:
            args["data"] = bytes(nbytes)

        # Inline payloads ride the request capsule on the wire.
        req_nbytes = 220 + (nbytes if window is None else 0)
        result = yield from client._call_io("obj_update", args, req_nbytes=req_nbytes,
                                            idempotent=False)
        if span is not None:
            child = span.child("client_complete", node=client.node.name)
        yield ctx.enter(costs.complete_cpu_per_op)
        if span is not None:
            child.finish()
        if window is not None and client.data_mode:
            client.channel.deregister(window)
        return result["epoch"]

    def fetch(
        self,
        ctx: FifoServer,
        dkey: bytes,
        akey: bytes,
        offset: int,
        nbytes: int,
        epoch: Optional[int] = None,
    ) -> Generator[Event, None, Optional[bytes]]:
        """Read a range at ``epoch`` (None = latest committed)."""
        if offset < 0 or nbytes <= 0:
            raise DaosError(f"bad read range ({offset}, {nbytes}) of {self.oid}")
        client = self.client
        costs = client.costs
        span = client.env._active.span
        if span is not None:
            child = span.child("client_submit", node=client.node.name)
        yield ctx.enter(costs.submit_cpu_per_op)
        if span is not None:
            child.finish()
        if costs.serial_per_op:
            if span is not None:
                child = span.child("client_progress", node=client.node.name)
            yield client._progress.enter(costs.serial_per_op)
            if span is not None:
                child.finish()

        cont = self.cont
        args = {"pool": cont.pool, "cont": cont.cont, "oid": self.oid,
                "dkey": bytes(dkey), "akey": bytes(akey), "offset": offset,
                "nbytes": nbytes}
        if epoch is not None:
            args["epoch"] = epoch

        window = None
        buf: Optional[bytearray] = None
        if nbytes > INLINE_THRESHOLD:
            if client.data_mode:
                buf = bytearray(nbytes)
                window = client.channel.register(client.node.name, nbytes, buffer=buf)
            else:
                window = client._window
            args["region"] = window

        result = yield from client._call_io("obj_fetch", args, idempotent=True)
        if span is not None:
            child = span.child("client_complete", node=client.node.name)
        yield ctx.enter(costs.complete_cpu_per_op)
        if span is not None:
            child.finish()
        if window is not None and client.data_mode:
            client.channel.deregister(window)
            return bytes(buf)
        return result.get("data")

    def punch(
        self, ctx: FifoServer, dkey: bytes, akey: bytes, offset: int, nbytes: int
    ) -> Generator[Event, None, int]:
        """Punch a hole in an array akey."""
        args = self._base_args()
        args.update(dkey=bytes(dkey), akey=bytes(akey), offset=offset, nbytes=nbytes)
        result = yield from self.client.call(ctx, "obj_punch", args)
        return result["epoch"]

    def punch_dkey(self, ctx: FifoServer, dkey: bytes) -> Generator[Event, None, int]:
        """Remove a whole dkey."""
        args = self._base_args()
        args["dkey"] = bytes(dkey)
        result = yield from self.client.call(ctx, "obj_punch_dkey", args)
        return result["epoch"]

    # -- KV I/O ---------------------------------------------------------------
    def kv_put(
        self, ctx: FifoServer, dkey: bytes, akey: bytes, value: Any
    ) -> Generator[Event, None, int]:
        """Store a single value."""
        args = self._base_args()
        args.update(dkey=bytes(dkey), akey=bytes(akey), value=value)
        result = yield from self.client.call(ctx, "kv_put", args)
        return result["epoch"]

    def kv_get(
        self, ctx: FifoServer, dkey: bytes, akey: bytes, epoch: Optional[int] = None
    ) -> Generator[Event, None, Any]:
        """Read a single value at ``epoch``."""
        args = self._base_args()
        args.update(dkey=bytes(dkey), akey=bytes(akey))
        if epoch is not None:
            args["epoch"] = epoch
        result = yield from self.client.call(ctx, "kv_get", args)
        return result["value"]

    # -- enumeration --------------------------------------------------------------
    def list_dkeys(
        self, ctx: FifoServer, epoch: Optional[int] = None
    ) -> Generator[Event, None, List[bytes]]:
        """Visible dkeys across every shard."""
        args = self._base_args()
        if epoch is not None:
            args["epoch"] = epoch
        result = yield from self.client.call(ctx, "obj_list_dkeys", args)
        return result["dkeys"]

    def dkey_sizes(
        self, ctx: FifoServer, akey: bytes, epoch: Optional[int] = None
    ) -> Generator[Event, None, Dict[bytes, int]]:
        """Per-dkey array sizes (DFS file-size query)."""
        args = self._base_args()
        args["akey"] = bytes(akey)
        if epoch is not None:
            args["epoch"] = epoch
        result = yield from self.client.call(ctx, "obj_sizes", args)
        return result["sizes"]


class Transaction:
    """Client-side staged transaction committed atomically at one epoch."""

    def __init__(self, cont: ContainerHandle) -> None:
        self.cont = cont
        self.ops: List[Dict[str, Any]] = []
        self.committed_epoch: Optional[int] = None
        self.aborted = False

    def _check_open(self) -> None:
        if self.committed_epoch is not None:
            raise DaosError("transaction already committed")
        if self.aborted:
            raise DaosError("transaction aborted")

    def update(
        self, oid: ObjectId, dkey: bytes, akey: bytes, offset: int,
        nbytes: Optional[int] = None, data: Optional[bytes] = None,
    ) -> "Transaction":
        """Stage an array write (inline payloads only)."""
        self._check_open()
        if nbytes is None:
            if data is None:
                raise DaosError("staged update needs data or nbytes")
            nbytes = len(data)
        self.ops.append({
            "kind": "update", "oid": oid, "dkey": bytes(dkey), "akey": bytes(akey),
            "offset": offset, "nbytes": nbytes,
            "data": bytes(data) if data is not None else None,
        })
        return self

    def kv_put(self, oid: ObjectId, dkey: bytes, akey: bytes, value: Any) -> "Transaction":
        """Stage a single-value write."""
        self._check_open()
        self.ops.append({
            "kind": "kv_put", "oid": oid, "dkey": bytes(dkey),
            "akey": bytes(akey), "value": value,
        })
        return self

    def punch_dkey(self, oid: ObjectId, dkey: bytes) -> "Transaction":
        """Stage a dkey removal."""
        self._check_open()
        self.ops.append({"kind": "punch_dkey", "oid": oid, "dkey": bytes(dkey)})
        return self

    def abort(self) -> None:
        """Drop the staged operations."""
        self._check_open()
        self.aborted = True
        self.ops.clear()

    def commit(self, ctx: FifoServer) -> Generator[Event, None, int]:
        """Apply every staged op atomically; returns the commit epoch."""
        self._check_open()
        result = yield from self.cont.client.call(ctx, "tx_commit", {
            "pool": self.cont.pool, "cont": self.cont.cont, "ops": self.ops,
        })
        self.committed_epoch = int(result["epoch"])
        return self.committed_epoch
