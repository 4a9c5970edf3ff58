"""CaRT/Mercury-like RPC framework over fabric channels.

DAOS's RPC stack (CaRT over Mercury, §3.3) provides tagged
request/response messaging with bulk-transfer descriptors riding in the
request.  This module reproduces that shape:

* :class:`RpcServer` — registers generator handlers per opcode, services
  one or more channels, replies with results or propagated errors.
* :class:`RpcClient` — tagged calls whose replies wake them by tag, and
  whose deadlines share one timer per client.

Handlers receive ``(args, src, channel)`` so they can drive one-sided bulk
transfers against descriptors the client put in ``args`` — exactly how a
DAOS engine pulls write payloads and pushes read payloads.
"""

from __future__ import annotations

import itertools
from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Dict, Generator, Optional

from repro.daos.types import DaosError
from repro.faults.errors import FaultInjectedError
from repro.hw.platform import ComputeNode
from repro.net.fabric import FabricChannel
from repro.net.message import Message, reply_listener, request_listener
from repro.net.rdma import RdmaError
from repro.sim.core import PENDING, Environment, Event, Timeout

__all__ = ["RpcError", "RpcTimeout", "RpcServer", "RpcClient", "RPC_REQUEST_BYTES"]

#: Wire size of a request/response capsule (opcode, ids, keys, descriptor).
RPC_REQUEST_BYTES = 220
RPC_REPLY_BYTES = 96


class RpcError(DaosError):
    """An RPC failed on the server; carries the remote error text.

    ``remote_error`` is the raw server-side message; ``op`` and
    ``target`` locate the failure so chaos reports and the retry
    classifier can act on it without string-parsing the whole message
    (which also carries ``sim_time``).
    """

    def __init__(
        self,
        remote_error: str,
        op: Optional[str] = None,
        target: Optional[str] = None,
        sim_time: Optional[float] = None,
    ) -> None:
        self.remote_error = remote_error
        self.op = op
        self.target = target
        message = remote_error
        if op is not None or target is not None:
            context = " ".join(
                part for part in (
                    f"op={op}" if op is not None else None,
                    f"target={target}" if target is not None else None,
                    f"t={sim_time:.6f}" if sim_time is not None else None,
                ) if part is not None
            )
            message = f"{remote_error} [{context}]"
        super().__init__(message)


class RpcTimeout(RpcError):
    """A call's per-attempt deadline expired before the reply arrived.

    Ambiguous by nature — the server may or may not have executed the
    op — so only idempotent operations may retry after one.
    """


class RpcServer:
    """Opcode-dispatching RPC service for one node."""

    def __init__(self, node: ComputeNode) -> None:
        self.node = node
        self.env: Environment = node.env
        self._handlers: Dict[str, Callable] = {}

    def register(self, opcode: str, handler: Callable) -> None:
        """Register ``handler(args, src, channel) -> generator`` for ``opcode``."""
        if opcode in self._handlers:
            raise ValueError(f"duplicate RPC opcode {opcode!r}")
        self._handlers[opcode] = handler

    def serve(self, channel: FabricChannel) -> None:
        """Service requests arriving on ``channel`` until ``rpc.shutdown``.

        Stray kinds are dropped, as CaRT drops unknown traffic.
        """
        channel.listen(self.node.name, request_listener(
            self.env, "rpc.req", "rpc.shutdown",
            partial(self._dispatch, channel), "rpc-handler"))

    def _dispatch(self, channel: FabricChannel, msg: Message):
        payload = msg.payload
        opcode = payload.get("op")
        args = payload["args"] if "args" in payload else {}
        handler = self._handlers.get(opcode)
        if handler is None:
            yield from self._send_reply(channel, msg.reply_to(
                kind="rpc.rep",
                payload={"status": "error",
                         "error": f"unknown opcode {opcode!r}"},
                nbytes=RPC_REPLY_BYTES,
            ))
            return
        # This process adopted the capsule's span (CaRT carries
        # hlc/trace metadata the same way): the handler runs in a
        # server-side child of it, and the reply goes under it.
        span = self.env._active.span
        if span is not None:
            span = span.child(f"rpc.handler[{opcode}]", node=self.node.name)
        try:
            result = yield from handler(args, msg.src, channel)
        except (DaosError, FaultInjectedError, RdmaError, ConnectionError) as exc:
            # DaosError is the normal application-error path; the
            # other three surface mid-handler when a fault window
            # breaks the transport or the device under it — the
            # handler must not die, or the engine stops serving.
            if span is not None:
                span.finish()
            yield from self._send_reply(channel, msg.reply_to(
                kind="rpc.rep",
                payload={"status": "error",
                         "error": f"{type(exc).__name__}: {exc}"},
                nbytes=RPC_REPLY_BYTES,
            ))
            return
        if span is not None:
            span.finish()
        # Handlers that piggyback payload bytes onto the reply (inline
        # fetches) declare the extra wire size via the "_wire" key.
        wire_extra = 0
        if isinstance(result, dict):
            wire_extra = int(result.pop("_wire", 0))
        yield from self._send_reply(channel, msg.reply_to(
            kind="rpc.rep",
            payload={"status": "ok", "result": result},
            nbytes=RPC_REPLY_BYTES + wire_extra,
        ))

    def _send_reply(self, channel: FabricChannel, reply: Message):
        """Send a reply; under fault injection a dead transport drops it.

        The client's deadline/retry machinery recovers the op — exactly
        what happens when a real server's reply hits a broken QP.
        Without an installed fault plan transport failures are genuine
        bugs and propagate: the send's own generator is returned, for
        the caller to drive.
        """
        fx = self.env._faults
        if fx is None:
            return channel.send(reply)
        return self._send_or_drop(fx, channel, reply)

    @staticmethod
    def _send_or_drop(fx, channel: FabricChannel, reply: Message):
        try:
            yield from channel.send(reply)
        except (RdmaError, ConnectionError):
            fx.stats.replies_dropped += 1


class RpcClient:
    """Tagged RPC calls over one channel; replies wake calls by tag.

    Deadlines cost no kernel event per call.  A call with a deadline
    pushes ``(expiry, tag, done)`` onto the client's deadline heap and
    waits on ``done`` alone; one timer, armed at the earliest expiry
    whose call is still unanswered, expires every call due when it
    fires.  Answered entries are skipped lazily as they reach the top.
    A reply that reaches the client at exactly its call's expiry loses,
    as it did when each call raced its own Timeout through an AnyOf.
    """

    _tags = itertools.count(1)

    def __init__(self, node: ComputeNode, channel: FabricChannel) -> None:
        self.node = node
        self.env: Environment = node.env
        self.channel = channel
        self.server_name = channel.peer_of(node.name)
        self._pending: Dict[int, Event] = {}
        self._started = False
        #: ``(expiry, tag, done)`` per call with a deadline, plus answered
        #: entries not yet skipped.
        self._deadlines: list = []
        self._timer: Optional[Timeout] = None
        self._timer_at = inf
        self._expire_cb = self._expire

    def start(self) -> "RpcClient":
        """Listen for replies on the channel; call once before any call."""
        if not self._started:
            self.channel.listen(self.node.name, reply_listener(self._pending))
            self._started = True
        return self

    def call(
        self,
        opcode: str,
        args: Dict[str, Any],
        req_nbytes: int = RPC_REQUEST_BYTES,
        deadline: Optional[float] = None,
    ) -> Generator[Event, None, Any]:
        """Issue one RPC; returns the handler result or raises RpcError.

        A sampled call runs in an ``rpc[opcode]`` child of its process's
        span, which rides in the request capsule's metadata — the analog
        of CaRT's hlc/trace fields — so the server and both transport legs
        can attach child spans.  ``deadline`` bounds the wait for the
        reply; on expiry the call raises :class:`RpcTimeout` and a late
        reply is dropped (its tag is no longer pending).  A reply arriving
        at the expiry instant itself is late.
        """
        if not self._started:
            raise RuntimeError("RpcClient not started; call start() first")
        tag = next(RpcClient._tags)
        done = Event(self.env)
        self._pending[tag] = done
        span = self.env._active.span
        if span is not None:
            span = span.child(f"rpc[{opcode}]", node=self.node.name)
        try:
            yield from self.channel.send(Message(
                src=self.node.name,
                dst=self.server_name,
                kind="rpc.req",
                tag=tag,
                payload={"op": opcode, "args": args},
                nbytes=req_nbytes,
                meta={"trace": span} if span is not None else None,
            ))
        except BaseException:
            # The request never reached the server; forget the tag so the
            # pending map cannot leak across retries.
            self._pending.pop(tag, None)
            if span is not None:
                span.finish()
            raise
        if deadline is None:
            reply = yield done
        else:
            env = self.env
            # The instant ``env.timeout(deadline)`` would fire at.
            expiry = env._now + deadline
            heappush(self._deadlines, (expiry, tag, done))
            if expiry < self._timer_at:
                self._arm(expiry)
            reply = yield done
            # ``None`` is the timer's verdict; a reply resumes the call at
            # the instant it arrived, and one due at the expiry is late.
            if reply is None or env._now >= expiry:
                if span is not None:
                    span.finish()
                fx = env._faults
                if fx is not None:
                    fx.stats.timeouts += 1
                raise RpcTimeout(
                    f"no reply within {deadline:g}s",
                    op=opcode, target=self.server_name, sim_time=env._now,
                )
        if span is not None:
            span.finish()
        body = reply.payload
        if body["status"] != "ok":
            raise RpcError(
                body.get("error", "remote failure"),
                op=opcode, target=self.server_name, sim_time=self.env.now,
            )
        return body.get("result")

    def _arm(self, when: float) -> None:
        """Move the deadline timer to ``when``, cancelling the one it replaces."""
        if self._timer is not None:
            self.env.cancel(self._timer)
        self._timer = self.env.call_at(when, self._expire_cb)
        self._timer_at = when

    def _expire(self, _timer: Event) -> None:
        """Expire every unanswered call due now, then re-arm."""
        self._timer = None
        self._timer_at = inf
        now = self.env._now
        heap = self._deadlines
        pending = self._pending
        while heap and heap[0][0] <= now:
            _expiry, tag, done = heappop(heap)
            # A reply already delivered at this instant stays queued; the
            # call sees it arrived at its expiry and times out itself.
            if done._value is PENDING:
                pending.pop(tag, None)
                done.succeed(None)
        while heap and heap[0][2]._value is not PENDING:
            heappop(heap)
        if heap:
            self._arm(heap[0][0])
