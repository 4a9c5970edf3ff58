"""The gRPC-style control plane.

ROS2 splits a lightweight control plane from the data plane (§3.1): gRPC
carries session setup, authentication, mount/open/close, directory
operations and capability exchange — "control messages are few and
latency-insensitive relative to bulk I/O" (§3.2).  Accordingly this layer
always rides the kernel-TCP transport (gRPC is HTTP/2 over TCP) no matter
which provider the data plane uses.

The surface mimics gRPC's shape: named services with unary methods,
metadata (where the bearer token rides), and status codes.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.hw.platform import ComputeNode
from repro.net.message import Message, reply_listener, request_listener
from repro.net.tcp import TcpConnection, TcpStack
from repro.sim.core import Environment, Event

__all__ = ["StatusCode", "GrpcError", "GrpcServer", "GrpcChannel"]

#: Typical unary-call frame sizes (HTTP/2 headers + protobuf body).
REQUEST_BYTES = 256
RESPONSE_BYTES = 192


class StatusCode(enum.Enum):
    """The gRPC status codes this stack uses."""

    OK = 0
    UNAUTHENTICATED = 16
    PERMISSION_DENIED = 7
    NOT_FOUND = 5
    ALREADY_EXISTS = 6
    INVALID_ARGUMENT = 3
    RESOURCE_EXHAUSTED = 8
    FAILED_PRECONDITION = 9
    INTERNAL = 13
    UNIMPLEMENTED = 12


class GrpcError(RuntimeError):
    """A non-OK unary response, raised client-side."""

    def __init__(self, code: StatusCode, detail: str = "") -> None:
        super().__init__(f"{code.name}: {detail}")
        self.code = code
        self.detail = detail


class GrpcServer:
    """A control-plane server hosting named services."""

    def __init__(self, node: ComputeNode) -> None:
        self.node = node
        self.env: Environment = node.env
        self._methods: Dict[Tuple[str, str], Callable] = {}

    def add_method(self, service: str, method: str, handler: Callable) -> None:
        """Register ``handler(request, metadata) -> generator`` for a method."""
        key = (service, method)
        if key in self._methods:
            raise ValueError(f"duplicate method {service}/{method}")
        self._methods[key] = handler

    def serve(self, conn: TcpConnection) -> None:
        """Service unary calls arriving on ``conn`` until ``grpc.shutdown``."""
        conn.listen(self.node.name, request_listener(
            self.env, "grpc.req", "grpc.shutdown",
            lambda msg: self._dispatch(conn, msg), "grpc-call"))

    def _dispatch(self, conn: TcpConnection, msg: Message):
        body = msg.payload
        service, method = body["service"], body["method"]
        metadata = body.get("metadata", {})
        handler = self._methods.get((service, method))

        def reply(code: StatusCode, response: Any = None, detail: str = ""):
            return conn.send(msg.reply_to(
                kind="grpc.rep",
                payload={"code": code, "response": response, "detail": detail},
                nbytes=RESPONSE_BYTES,
            ))

        if handler is None:
            yield from reply(StatusCode.UNIMPLEMENTED, detail=f"{service}/{method}")
            return
        try:
            response = yield from handler(body.get("request"), metadata)
        except GrpcError as exc:
            yield from reply(exc.code, detail=exc.detail)
            return
        yield from reply(StatusCode.OK, response=response)


class GrpcChannel:
    """A client channel to one control-plane server."""

    _tags = itertools.count(1)

    #: One-way latency of a loopback (same-node) unary call.
    LOOPBACK_LATENCY = 12e-6

    def __init__(
        self,
        node: ComputeNode,
        server_node: ComputeNode,
    ) -> None:
        self.node = node
        self.env: Environment = node.env
        self.server_name = server_node.name
        #: Same-node deployments (client service on the host itself) use a
        #: loopback call path instead of the switch.
        self.local = node.name == server_node.name
        self.conn: Optional[TcpConnection] = None
        self._local_server: Optional[GrpcServer] = None
        if not self.local:
            self.conn = TcpStack(node).connect(TcpStack(server_node))
        self._pending: Dict[int, Event] = {}
        self._started = False
        #: Metadata attached to every call (bearer token etc.).
        self.default_metadata: Dict[str, Any] = {}

    def bind(self, server: GrpcServer) -> "GrpcChannel":
        """Attach the server side: loopback dispatch locally, TCP otherwise."""
        if self.local:
            self._local_server = server
        else:
            server.serve(self.conn)
        return self

    def start(self) -> "GrpcChannel":
        """Listen for responses (no-op for loopback channels)."""
        if not self.local and not self._started:
            self.conn.listen(self.node.name, reply_listener(self._pending))
            self._started = True
        return self

    def unary(
        self,
        service: str,
        method: str,
        request: Any = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Generator[Event, None, Any]:
        """One unary call; returns the response or raises GrpcError."""
        if self.local:
            return (yield from self._unary_local(service, method, request, metadata))
        if not self._started:
            raise RuntimeError("channel not started; call start() first")
        tag = next(GrpcChannel._tags)
        done = self.env.event()
        self._pending[tag] = done
        md = dict(self.default_metadata)
        if metadata:
            md.update(metadata)
        yield from self.conn.send(Message(
            src=self.node.name,
            dst=self.server_name,
            kind="grpc.req",
            tag=tag,
            payload={"service": service, "method": method,
                     "request": request, "metadata": md},
            nbytes=REQUEST_BYTES,
        ))
        reply = yield done
        body = reply.payload
        if body["code"] is not StatusCode.OK:
            raise GrpcError(body["code"], body.get("detail", ""))
        return body.get("response")

    def _unary_local(
        self,
        service: str,
        method: str,
        request: Any,
        metadata: Optional[Dict[str, Any]],
    ) -> Generator[Event, None, Any]:
        """Loopback dispatch: same status semantics, no switch traversal."""
        server = self._local_server
        if server is None:
            raise RuntimeError("loopback channel has no bound server; call bind()")
        md = dict(self.default_metadata)
        if metadata:
            md.update(metadata)
        yield self.env.timeout(self.LOOPBACK_LATENCY)
        handler = server._methods.get((service, method))
        if handler is None:
            raise GrpcError(StatusCode.UNIMPLEMENTED, f"{service}/{method}")
        response = yield from handler(request, md)
        yield self.env.timeout(self.LOOPBACK_LATENCY)
        return response
