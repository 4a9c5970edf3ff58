"""POSIX-on-DPU: the offloaded DFS client service and its sessions.

This is the heart of ROS2 (§3.2): the DFS client stack (libdaos/libdfs)
executes on the client node — the BlueField-3 in offload mode, the host
otherwise — while the host "only launches jobs and observes results".

* The **control plane** (:class:`Ros2ClientService` gRPC methods) carries
  session setup/authentication, mount/open/close, directory operations
  and capability exchange from the launcher to the service.
* The **data plane** (:meth:`Ros2ClientService.io_read` /
  :meth:`io_write`, reached through a session's :class:`Ros2DataPort`)
  runs entirely on the client node: tenant admission, DRAM staging,
  optional inline encryption, then the DFS/DAOS RPC + bulk machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

from repro.core.control_plane import GrpcChannel, GrpcError, GrpcServer, StatusCode
from repro.core.data_plane import DataPlane
from repro.core.inline import InlineCrypto
from repro.core.tenant import AuthError, Tenant, TenantManager
from repro.daos.client import ContainerHandle, DaosClient
from repro.daos.dfs import DfsFile, DfsNamespace
from repro.daos.types import DaosError
from repro.sim.core import Environment, Event
from repro.sim.queues import FifoServer

__all__ = ["Ros2ClientService", "Ros2Session", "Ros2DataPort"]

_session_seq = itertools.count(1)
_fh_seq = itertools.count(10)

SERVICE = "ros2.Control"


@dataclass(slots=True)
class _SessionState:
    session_id: int
    tenant: Tenant
    daos: DaosClient
    cont: ContainerHandle
    ns: DfsNamespace
    svc_ctx: FifoServer
    crypto: Optional[InlineCrypto] = None
    files: Dict[int, DfsFile] = field(default_factory=dict)


class Ros2ClientService:
    """The DFS client service resident on the client node (host or DPU)."""

    def __init__(self, system) -> None:
        """``system`` is the owning :class:`~repro.core.ros2.Ros2System`."""
        self.system = system
        self.node = system.client_node
        self.env: Environment = self.node.env
        self.tenants = TenantManager(self.env)
        self.data_plane = DataPlane(self.node, system.config.transport)
        self.grpc = GrpcServer(self.node)
        self.sessions: Dict[int, _SessionState] = {}
        #: Optional per-tenant weighted fair scheduler (§5 "per-tenant
        #: queues"); see :meth:`enable_qos`.
        self.qos = None
        self._register_methods()

    def enable_qos(self, capacity_bytes_per_sec: float,
                   weights: Optional[Dict[str, float]] = None):
        """Turn on weighted fair queueing over the data-plane capacity."""
        from repro.core.qos import QosScheduler

        self.qos = QosScheduler(self.env, capacity_bytes_per_sec)
        for tenant, weight in (weights or {}).items():
            self.qos.set_weight(tenant, weight)
        return self.qos

    # -- gRPC surface -----------------------------------------------------------
    def _register_methods(self) -> None:
        add = self.grpc.add_method
        add(SERVICE, "OpenSession", self._m_open_session)
        add(SERVICE, "CloseSession", self._m_close_session)
        add(SERVICE, "Mkdir", self._m_mkdir)
        add(SERVICE, "CreateFile", self._m_create_file)
        add(SERVICE, "OpenFile", self._m_open_file)
        add(SERVICE, "CloseFile", self._m_close_file)
        add(SERVICE, "Readdir", self._m_readdir)
        add(SERVICE, "Stat", self._m_stat)
        add(SERVICE, "Unlink", self._m_unlink)
        add(SERVICE, "Rename", self._m_rename)
        add(SERVICE, "GetCaps", self._m_get_caps)

    def _auth(self, metadata: Dict[str, Any]) -> Tenant:
        token = metadata.get("authorization")
        if not token:
            raise GrpcError(StatusCode.UNAUTHENTICATED, "missing bearer token")
        try:
            return self.tenants.authenticate(token)
        except AuthError as exc:
            raise GrpcError(StatusCode.UNAUTHENTICATED, str(exc)) from exc

    def _session(self, metadata: Dict[str, Any], request: Any) -> _SessionState:
        tenant = self._auth(metadata)
        sid = (request or {}).get("session_id")
        state = self.sessions.get(sid)
        if state is None:
            raise GrpcError(StatusCode.NOT_FOUND, f"unknown session {sid}")
        if state.tenant is not tenant:
            raise GrpcError(
                StatusCode.PERMISSION_DENIED, "session belongs to another tenant"
            )
        return state

    def _m_open_session(self, request, metadata):
        """Authenticate, connect a dedicated data channel, mount the FS.

        Each session gets its own fabric channel — on verbs providers that
        is a fresh protection domain + QP pair, the per-tenant isolation
        §2.3 calls for.
        """
        tenant = self._auth(metadata)
        channel = self.system.new_data_channel()
        daos = DaosClient(
            self.node, channel, data_mode=self.system.config.data_mode
        )
        svc_ctx = daos.new_context(f"{self.node.name}.ros2.svc")
        pool_handle = yield from daos.connect_pool(svc_ctx, self.system.pool)
        cont = yield from pool_handle.open_container(svc_ctx, self.system.container)
        ns = DfsNamespace(daos, cont)
        yield from ns.mount(svc_ctx)
        crypto = None
        if tenant.crypto_key is not None:
            crypto = InlineCrypto(self.node, tenant.crypto_key)
        sid = next(_session_seq)
        self.sessions[sid] = _SessionState(
            session_id=sid, tenant=tenant, daos=daos, cont=cont, ns=ns,
            svc_ctx=svc_ctx, crypto=crypto,
        )
        return {"session_id": sid, "chunk_size": ns.chunk_size,
                "provider": self.system.provider.name}

    def _m_close_session(self, request, metadata):
        state = self._session(metadata, request)
        yield self.env.timeout(0)
        state.files.clear()
        del self.sessions[state.session_id]
        return {}

    def _wrap_fs_errors(self, gen):
        """Map POSIX errors from DFS into gRPC status codes."""
        try:
            result = yield from gen
        except FileNotFoundError as exc:
            raise GrpcError(StatusCode.NOT_FOUND, str(exc)) from exc
        except FileExistsError as exc:
            raise GrpcError(StatusCode.ALREADY_EXISTS, str(exc)) from exc
        except (NotADirectoryError, IsADirectoryError, ValueError) as exc:
            raise GrpcError(StatusCode.INVALID_ARGUMENT, str(exc)) from exc
        except (OSError, DaosError) as exc:
            raise GrpcError(StatusCode.FAILED_PRECONDITION, str(exc)) from exc
        return result

    def _m_mkdir(self, request, metadata):
        s = self._session(metadata, request)
        yield from self._wrap_fs_errors(s.ns.mkdir(s.svc_ctx, request["path"]))
        return {}

    def _m_create_file(self, request, metadata):
        s = self._session(metadata, request)
        f = yield from self._wrap_fs_errors(
            s.ns.create(s.svc_ctx, request["path"], request.get("chunk_size"))
        )
        fh = next(_fh_seq)
        s.files[fh] = f
        return {"fh": fh, "chunk_size": f.chunk_size}

    def _m_open_file(self, request, metadata):
        s = self._session(metadata, request)
        f = yield from self._wrap_fs_errors(s.ns.open(s.svc_ctx, request["path"]))
        fh = next(_fh_seq)
        s.files[fh] = f
        return {"fh": fh, "chunk_size": f.chunk_size}

    def _m_close_file(self, request, metadata):
        s = self._session(metadata, request)
        yield self.env.timeout(0)
        if s.files.pop(request.get("fh"), None) is None:
            raise GrpcError(StatusCode.NOT_FOUND, f"unknown fh {request.get('fh')}")
        return {}

    def _m_readdir(self, request, metadata):
        s = self._session(metadata, request)
        names = yield from self._wrap_fs_errors(s.ns.readdir(s.svc_ctx, request["path"]))
        return {"names": names}

    def _m_stat(self, request, metadata):
        s = self._session(metadata, request)
        info = yield from self._wrap_fs_errors(s.ns.stat(s.svc_ctx, request["path"]))
        return {"type": info["type"], "size": info["size"],
                "chunk_size": info.get("chunk_size")}

    def _m_unlink(self, request, metadata):
        s = self._session(metadata, request)
        yield from self._wrap_fs_errors(s.ns.unlink(s.svc_ctx, request["path"]))
        return {}

    def _m_rename(self, request, metadata):
        s = self._session(metadata, request)
        yield from self._wrap_fs_errors(
            s.ns.rename(s.svc_ctx, request["old"], request["new"])
        )
        return {}

    def _m_get_caps(self, request, metadata):
        """Capability exchange: mint a scoped window descriptor (§3.2)."""
        s = self._session(metadata, request)
        length = int(request.get("length", 0))
        if length <= 0:
            raise GrpcError(StatusCode.INVALID_ARGUMENT, f"bad length {length}")
        yield self.env.timeout(0)
        region = self.tenants.scoped_window(
            s.tenant, s.daos.channel, self.node.name, length
        )
        return {"region": region, "ttl": s.tenant.rkey_ttl}

    # -- data plane (local to the client node) ------------------------------------
    def _state_for_io(self, session_id: int, fh: int) -> _SessionState:
        state = self.sessions.get(session_id)
        if state is None:
            raise KeyError(f"unknown session {session_id}")
        if fh not in state.files:
            raise KeyError(f"unknown fh {fh} in session {session_id}")
        return state

    def io_write(
        self,
        ctx: FifoServer,
        session_id: int,
        fh: int,
        offset: int,
        nbytes: Optional[int] = None,
        data: Optional[bytes] = None,
        trace=None,
    ) -> Generator[Event, None, None]:
        """One data-plane write: admit -> schedule -> stage -> (encrypt) -> DFS."""
        state = self._state_for_io(session_id, fh)
        if nbytes is None:
            if data is None:
                raise ValueError("io_write needs data or an explicit nbytes")
            nbytes = len(data)
        node = self.node.name
        span = trace.child("dp.admit", node=node, nbytes=nbytes) if trace is not None else None
        yield from self.tenants.admit(state.tenant, nbytes)
        if span is not None:
            span.finish()
        if self.qos is not None:
            span = trace.child("dp.qos", node=node, nbytes=nbytes) if trace is not None else None
            yield from self.qos.submit(state.tenant.name, nbytes)
            if span is not None:
                span.finish()
        alloc = yield from self.data_plane.stage(nbytes, trace=trace)
        try:
            if state.crypto is not None:
                span = trace.child("dp.crypto", node=node, nbytes=nbytes) if trace is not None else None
                data = yield from state.crypto.crypt(ctx, offset, data, nbytes)
                if span is not None:
                    span.finish()
            yield from state.files[fh].write(ctx, offset, nbytes=nbytes, data=data,
                                             trace=trace)
        finally:
            alloc.free()
        self.data_plane.writes.record(nbytes)

    def io_read(
        self,
        ctx: FifoServer,
        session_id: int,
        fh: int,
        offset: int,
        nbytes: int,
        trace=None,
    ) -> Generator[Event, None, Optional[bytes]]:
        """One data-plane read: admit -> schedule -> stage -> DFS -> (decrypt)."""
        state = self._state_for_io(session_id, fh)
        node = self.node.name
        span = trace.child("dp.admit", node=node, nbytes=nbytes) if trace is not None else None
        yield from self.tenants.admit(state.tenant, nbytes)
        if span is not None:
            span.finish()
        if self.qos is not None:
            span = trace.child("dp.qos", node=node, nbytes=nbytes) if trace is not None else None
            yield from self.qos.submit(state.tenant.name, nbytes)
            if span is not None:
                span.finish()
        alloc = yield from self.data_plane.stage(nbytes, trace=trace)
        try:
            data = yield from state.files[fh].read(ctx, offset, nbytes, trace=trace)
            if state.crypto is not None:
                span = trace.child("dp.crypto", node=node, nbytes=nbytes) if trace is not None else None
                data = yield from state.crypto.crypt(ctx, offset, data, nbytes)
                if span is not None:
                    span.finish()
        finally:
            alloc.free()
        self.data_plane.reads.record(nbytes)
        return data


class Ros2DataPort:
    """Data-plane access for workloads running on the client node.

    In the paper's setup FIO runs *on the DPU* alongside the DFS client;
    the port models that locality: contexts are job threads on the client
    node, and calls go straight into the service (no network hop)."""

    def __init__(self, service: Ros2ClientService, session_id: int) -> None:
        self.service = service
        self.session_id = session_id
        self._threads = 0

    def new_context(self, name: Optional[str] = None) -> FifoServer:
        """One workload job thread on the client node."""
        self._threads += 1
        node = self.service.node
        return FifoServer(
            node.env,
            name or f"{node.name}.ros2.job{self._threads}",
            factor=node.spec.cycle_factor,
        )

    def write(self, ctx, fh, offset, nbytes=None, data=None, trace=None):
        """POSIX pwrite through the offloaded client."""
        return self.service.io_write(ctx, self.session_id, fh, offset, nbytes, data,
                                     trace=trace)

    def read(self, ctx, fh, offset, nbytes, trace=None):
        """POSIX pread through the offloaded client."""
        return self.service.io_read(ctx, self.session_id, fh, offset, nbytes,
                                    trace=trace)


class Ros2Session:
    """The launcher-side session handle (all calls ride the gRPC channel)."""

    def __init__(self, channel: GrpcChannel, service: Ros2ClientService,
                 session_id: int, token: str) -> None:
        self.channel = channel
        self.service = service
        self.session_id = session_id
        self._md = {"authorization": token}

    def _call(self, method: str, request: Dict[str, Any]):
        request = dict(request)
        request["session_id"] = self.session_id
        return self.channel.unary(SERVICE, method, request, metadata=self._md)

    def mkdir(self, path: str):
        """Create a directory."""
        return self._call("Mkdir", {"path": path})

    def create(self, path: str, chunk_size: Optional[int] = None
               ) -> Generator[Event, None, int]:
        """Create a file; returns its file handle."""
        r = yield from self._call("CreateFile", {"path": path, "chunk_size": chunk_size})
        return r["fh"]

    def open(self, path: str) -> Generator[Event, None, int]:
        """Open a file; returns its file handle."""
        r = yield from self._call("OpenFile", {"path": path})
        return r["fh"]

    def close(self, fh: int):
        """Close a file handle."""
        return self._call("CloseFile", {"fh": fh})

    def readdir(self, path: str) -> Generator[Event, None, list]:
        """List a directory."""
        r = yield from self._call("Readdir", {"path": path})
        return r["names"]

    def stat(self, path: str) -> Generator[Event, None, Dict[str, Any]]:
        """Stat a path."""
        return (yield from self._call("Stat", {"path": path}))

    def unlink(self, path: str):
        """Remove a file or empty directory."""
        return self._call("Unlink", {"path": path})

    def rename(self, old: str, new: str):
        """Atomically move an entry."""
        return self._call("Rename", {"old": old, "new": new})

    def get_caps(self, length: int) -> Generator[Event, None, Dict[str, Any]]:
        """Capability exchange: a scoped memory-window descriptor."""
        return (yield from self._call("GetCaps", {"length": length}))

    def close_session(self):
        """Tear the session down."""
        return self._call("CloseSession", {})

    def data_port(self) -> Ros2DataPort:
        """Data-plane port for workloads colocated with the client."""
        return Ros2DataPort(self.service, self.session_id)
