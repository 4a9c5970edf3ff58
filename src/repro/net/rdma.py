"""RDMA verbs transport model.

Functional semantics follow the verbs API closely enough to express the
paper's security discussion (§2.3) and ROS2's multi-tenant design:

* :class:`RdmaDevice` — one per node (the ConnectX / BlueField NIC).
* :class:`ProtectionDomain` — the isolation unit; QPs and MRs belong to a
  PD, and one-sided access with an rkey from a different PD is rejected.
* :class:`MemoryRegion` — a registered buffer window with ``lkey``/``rkey``
  and access flags; may carry a real ``bytearray``/NumPy buffer (functional
  mode) or be *virtual* (performance mode).  Regions can be bounded in
  time (scoped rkeys) and revoked.
* :class:`QueuePair` — reliable-connected QP with SEND/RECV plus one-sided
  READ/WRITE, each raising :class:`AccessViolation` on rkey/bounds/PD/flag
  violations instead of silently moving data.
* :class:`CompletionQueue` — completions as a store the owner drains.

Timing (constants in :data:`repro.hw.specs.RDMA_COSTS`): the initiator
pays ``tx_cpu_per_op`` to post and poll; payload bytes cross the switch at
``goodput_efficiency`` with **zero per-byte CPU anywhere** (zero-copy DMA);
one-sided ops cost the target **nothing**; two-sided delivery charges the
target ``rx_cpu_per_op`` for its CQ poll.  Messages above
``rendezvous_threshold`` pay one extra control round-trip (RTS/CTS) —
the rendezvous protocol §3.2 uses to amortize per-message overhead on
large sequential I/O.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from repro.hw.platform import ComputeNode
from repro.hw.specs import RDMA_COSTS, TransportCosts
from repro.net.message import HEADER_BYTES, payload_nbytes
from repro.sim.core import Environment, Event
from repro.sim.resources import Store

__all__ = [
    "AccessFlags",
    "AccessViolation",
    "RdmaError",
    "MemoryRegion",
    "ProtectionDomain",
    "CompletionQueue",
    "Completion",
    "QueuePair",
    "RdmaDevice",
]


class RdmaError(RuntimeError):
    """Generic RDMA failure (bad state, disconnected QP...)."""


class AccessViolation(RdmaError):
    """A one-sided operation failed its rkey / bounds / PD / flags check."""


class AccessFlags(enum.IntFlag):
    """MR access permissions (subset of ibv_access_flags)."""

    LOCAL_READ = 0x1
    LOCAL_WRITE = 0x2
    REMOTE_READ = 0x4
    REMOTE_WRITE = 0x8

    @classmethod
    def local_only(cls) -> "AccessFlags":
        return cls.LOCAL_READ | cls.LOCAL_WRITE

    @classmethod
    def remote_rw(cls) -> "AccessFlags":
        return cls.LOCAL_READ | cls.LOCAL_WRITE | cls.REMOTE_READ | cls.REMOTE_WRITE


_key_counter = itertools.count(0x1000)
_addr_counter = itertools.count(0x10_0000_0000)
_qp_counter = itertools.count(1)


class MemoryRegion:
    """A registered memory window.

    ``buffer`` is optional: when present (bytearray or 1-D uint8 NumPy
    array) one-sided operations move real bytes; when absent the region is
    virtual and only sizes/permissions are enforced.
    """

    __slots__ = (
        "pd", "addr", "length", "lkey", "rkey", "flags",
        "buffer", "valid_until", "_revoked",
    )

    def __init__(
        self,
        pd: "ProtectionDomain",
        length: int,
        flags: AccessFlags,
        buffer: Optional[Any] = None,
        valid_until: Optional[float] = None,
    ) -> None:
        if length <= 0:
            raise ValueError(f"MR length must be positive, got {length}")
        if buffer is not None and len(buffer) < length:
            raise ValueError(
                f"buffer of {len(buffer)} bytes cannot back an MR of {length}"
            )
        self.pd = pd
        self.addr = next(_addr_counter)
        self.length = int(length)
        self.lkey = next(_key_counter)
        self.rkey = next(_key_counter)
        self.flags = flags
        self.buffer = buffer
        #: Simulated-time expiry for scoped rkeys (ROS2 tenant capability).
        self.valid_until = valid_until
        self._revoked = False

    @property
    def revoked(self) -> bool:
        """True once deregistered or explicitly revoked."""
        return self._revoked

    def revoke(self) -> None:
        """Invalidate the region's keys immediately."""
        self._revoked = True

    def expired(self, now: float) -> bool:
        """True if a scoped rkey has passed its validity window."""
        return self.valid_until is not None and now > self.valid_until

    def contains(self, addr: int, nbytes: int) -> bool:
        """Whether ``[addr, addr+nbytes)`` lies inside the region."""
        return self.addr <= addr and addr + nbytes <= self.addr + self.length

    def read_bytes(self, addr: int, nbytes: int) -> Optional[bytes]:
        """Copy real bytes out (None for virtual regions)."""
        if self.buffer is None:
            return None
        off = addr - self.addr
        return bytes(memoryview(self.buffer)[off:off + nbytes])

    def write_bytes(self, addr: int, data: Any) -> None:
        """Copy real bytes in (no-op for virtual regions)."""
        if self.buffer is None or data is None:
            return
        off = addr - self.addr
        view = memoryview(self.buffer)
        view[off:off + len(data)] = bytes(data)


class ProtectionDomain:
    """The verbs isolation unit: MRs and QPs that may interoperate."""

    def __init__(self, device: "RdmaDevice") -> None:
        self.device = device
        self.regions: Dict[int, MemoryRegion] = {}  # rkey -> MR

    def register_mr(
        self,
        length: int,
        flags: AccessFlags = AccessFlags.local_only(),
        buffer: Optional[Any] = None,
        valid_until: Optional[float] = None,
    ) -> MemoryRegion:
        """Register a buffer (or a virtual window) and mint its keys."""
        mr = MemoryRegion(self, length, flags, buffer, valid_until)
        self.regions[mr.rkey] = mr
        return mr

    def deregister_mr(self, mr: MemoryRegion) -> None:
        """Remove the region; its keys stop validating immediately."""
        mr.revoke()
        self.regions.pop(mr.rkey, None)

    def lookup(self, rkey: int) -> Optional[MemoryRegion]:
        """The live region for ``rkey`` within this PD, else None."""
        mr = self.regions.get(rkey)
        if mr is None or mr.revoked:
            return None
        return mr


@dataclass(frozen=True, slots=True)
class Completion:
    """One CQ entry."""

    wr_id: int
    opcode: str  # "send" | "recv" | "read" | "write"
    status: str  # "ok" | error string
    nbytes: int = 0
    payload: Any = None


class CompletionQueue:
    """Completion delivery; owners drain it with ``yield cq.poll()``."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._store = Store(env, name="rdma.cq")

    def push(self, completion: Completion) -> None:
        """Add a completion (never blocks)."""
        self._store.put(completion)

    def poll(self):
        """Event yielding the next completion."""
        return self._store.get()

    def __len__(self) -> int:
        return len(self._store)


class QueuePair:
    """A reliable-connected queue pair.

    All data-moving methods are generators (``yield from``) that complete
    when the operation's ACK would arrive at the initiator.
    """

    def __init__(
        self,
        device: "RdmaDevice",
        pd: ProtectionDomain,
    ) -> None:
        if pd.device is not device:
            raise RdmaError("PD belongs to a different device")
        self.device = device
        self.pd = pd
        self.qp_num = next(_qp_counter)
        self.env: Environment = device.env
        self.send_cq = CompletionQueue(self.env)
        self.recv_cq = CompletionQueue(self.env)
        self.remote: Optional["QueuePair"] = None
        #: Non-None once the QP has transitioned to the error state
        #: (fault injection / fatal transport failure); holds the reason.
        self.error: Optional[str] = None
        self._recv_queue: Store = Store(self.env,
                                        name="rdma.recv_queue")  # posted recv WRs

    # -- connection management ---------------------------------------------
    def connect(self, remote: "QueuePair") -> None:
        """Pair two QPs (both directions) on two different nodes.

        Every data channel of the testbed crosses the switch, so a QP pair
        on one node is rejected before anything is simulated.
        """
        if self.device.node is remote.device.node:
            raise ValueError(
                f"QP {self.qp_num} and QP {remote.qp_num} are both on node "
                f"{self.device.node.name!r}; a QP pair joins two nodes"
            )
        if self.remote is not None or remote.remote is not None:
            raise RdmaError("QP already connected")
        self.remote = remote
        remote.remote = self

    def transition_to_error(self, reason: str) -> None:
        """Move the QP to the error state and flush its work requests.

        Mirrors IBV_QPS_ERR semantics: posted RECV WRs complete to the
        recv CQ with a flush status, processes parked waiting for a RECV
        to match are failed with :class:`RdmaError`, and every later
        verb on this QP raises until it is replaced (RC QPs cannot be
        repaired in place; recovery creates fresh QPs in the same PD).
        """
        if self.error is not None:
            return
        self.error = reason
        rq = self._recv_queue
        # Flush posted-but-unmatched receive buffers.
        while rq.items:
            wr_id, _mr = rq.items.popleft()
            self.recv_cq.push(Completion(wr_id, "recv", "flush-err"))
        # Fail senders parked on the recv queue (RNR wait) — their SEND
        # can no longer complete.
        exc = RdmaError(f"QP {self.qp_num} flushed: {reason}")
        wt = self.env._wait_tracer
        for getter in list(rq._getters):
            if not getter.triggered:
                if wt is not None and getter in wt.blocked:
                    wt.end_block(getter)
                getter.fail(exc)
        rq._getters.clear()

    def _require_remote(self) -> "QueuePair":
        if self.error is not None:
            raise RdmaError(f"QP {self.qp_num} is in the error state: {self.error}")
        if self.remote is None:
            raise RdmaError(f"QP {self.qp_num} is not connected")
        if self.remote.error is not None:
            raise RdmaError(
                f"remote QP {self.remote.qp_num} is in the error state: "
                f"{self.remote.error}"
            )
        return self.remote

    # -- two-sided ------------------------------------------------------------
    def post_recv(self, wr_id: int, mr: Optional[MemoryRegion] = None) -> None:
        """Post a receive work request (buffer optional in virtual mode)."""
        if self.error is not None:
            raise RdmaError(f"QP {self.qp_num} is in the error state: {self.error}")
        self._recv_queue.put((wr_id, mr))

    def post_send(
        self,
        payload: Any = None,
        nbytes: Optional[int] = None,
        wr_id: int = 0,
    ) -> Generator[Event, None, Completion]:
        """Two-sided SEND; matches a posted RECV at the peer.

        Returns the initiator-side completion (also pushed to ``send_cq``).
        The receiver's completion (with the payload) lands in its ``recv_cq``.
        """
        size = nbytes if nbytes is not None else payload_nbytes(payload)
        wr_id_recv, mr = yield from self.transmit(size, match_recv=True)
        if mr is not None and isinstance(payload, (bytes, bytearray, memoryview)):
            mr.write_bytes(mr.addr, payload)
        self.remote.recv_cq.push(
            Completion(wr_id_recv, "recv", "ok", size, payload))
        comp = Completion(wr_id, "send", "ok", size)
        self.send_cq.push(comp)
        return comp

    def transmit(
        self, nbytes: int, match_recv: bool = False,
        deliver: Optional[Callable[[], None]] = None,
    ) -> Generator[Event, None, Any]:
        """One SEND without verbs bookkeeping (fabric channels use it bare).

        Post CPU, wire, in-flight error check, receiver poll CPU.  With
        ``match_recv`` the message first takes the receiver's oldest posted
        RECV (waiting, like RNR retries) and returns its ``(wr_id, mr)``.
        ``deliver`` is called once the receiver has polled it: a channel
        hands its message to the peer's listener there, so a channel send
        is this one generator (:meth:`RdmaChannel.send
        <repro.net.fabric.RdmaChannel.send>` returns it).
        An eager message takes :meth:`_post`'s one-event post inline: it
        is the hottest post of every small-I/O cell, and a delegated
        generator costs host time.
        """
        remote = self.remote
        if self.error is not None or remote is None or remote.error is not None:
            self._require_remote()  # raises the state's error
        dev, rdev = self.device, remote.device
        costs, node = dev.costs, dev.node
        threshold = costs.rendezvous_threshold
        span = self.env._active.span
        if threshold is None or nbytes <= threshold:
            switch = node.switch
            if span is not None:
                child = span.child("rdma.post", node=node.name, nbytes=nbytes)
            now = self.env._now
            pre = costs.rtt_overhead / 2.0
            done = yield node.cpu.execute(costs.tx_cpu_per_op, pre,
                                          switch.spec.propagation)
            if span is not None:
                child = self._posted(child, now, done, nbytes, "rdma.eager")
            # :meth:`RdmaDevice.wire_bytes` and :meth:`Switch.cross
            # <repro.hw.nic.Switch.cross>`, inline.
            wire = int((nbytes + HEADER_BYTES) / costs.goodput_efficiency)
            tx, rx = switch.route(node.name, rdev.node.name)
            if 0 < wire <= tx.chunk_bytes:
                yield tx.transfer_and_sleep(wire)
                yield rx.transfer_and_sleep(wire)
            else:
                yield from switch.cross(node.name, rdev.node.name, wire)
            if span is not None:
                child.finish()
        else:
            yield from self._post(remote, nbytes, "rdma.eager")
        if self.error is not None or remote.error is not None:
            # The QP broke while the message was on the wire.
            raise RdmaError(
                f"QP {self.qp_num} failed in flight: "
                f"{self.error or remote.error}"
            )
        if span is not None:
            child = span.child("rdma.recv", node=rdev.node.name, nbytes=nbytes)
        wr = (yield remote._recv_queue.get()) if match_recv else None
        yield rdev.node.cpu.execute(costs.rx_cpu_per_op)
        if span is not None:
            child.finish()
        if deliver is not None:
            deliver()
        return wr

    # -- one-sided -------------------------------------------------------------
    def rdma_write(
        self,
        remote_addr: int,
        rkey: int,
        payload: Any = None,
        nbytes: Optional[int] = None,
        wr_id: int = 0,
    ) -> Generator[Event, None, Completion]:
        """One-sided WRITE into the peer's memory.  Zero remote CPU.

        Posted unsignaled, as UCX and libfabric post bulk transfers: the
        completion is returned, not pushed to ``send_cq``.
        """
        remote = self._require_remote()
        size = nbytes if nbytes is not None else payload_nbytes(payload)
        mr = self._validate(remote, remote_addr, size, AccessFlags.REMOTE_WRITE, rkey)
        yield from self._post(remote, size, "rdma.dma")

        if payload is not None:
            mr.write_bytes(remote_addr, payload)
        return Completion(wr_id, "write", "ok", size)

    def rdma_read(
        self,
        remote_addr: int,
        rkey: int,
        nbytes: int,
        wr_id: int = 0,
    ) -> Generator[Event, None, Completion]:
        """One-sided READ from the peer's memory.  Zero remote CPU.

        The completion's ``payload`` carries the bytes for backed regions.
        Posted unsignaled, like :meth:`rdma_write`.
        """
        remote = self._require_remote()
        mr = self._validate(remote, remote_addr, nbytes, AccessFlags.REMOTE_READ, rkey)
        # Request travels out (small), data travels back (nbytes).  Three
        # events take the request to the target: its post (CPU, stack
        # latency, propagation), its TX crossing, and its RX crossing
        # merged with the stack latency and propagation the target sleeps
        # before sending the data back.  A sampled request books the two
        # ``rdma.dma`` spans where the chained sleeps put them.
        dev, rdev = self.device, remote.device
        node, rnode = dev.node, rdev.node
        costs = dev.costs
        switch = node.switch
        request = dev.wire_bytes(0)
        span = self.env._active.span
        if span is not None:
            child = span.child("rdma.post", node=node.name, nbytes=0)
        now = self.env.now
        done = yield node.cpu.execute(costs.tx_cpu_per_op,
                                      costs.rtt_overhead / 2.0,
                                      switch.spec.propagation)
        if span is not None:
            child = self._posted(child, now, done, 0, "rdma.dma")
        yield from switch.port(node.name).tx.transfer(request)
        rswitch = rnode.switch
        rpre = rdev.costs.rtt_overhead / 2.0
        now = self.env.now
        done = yield switch.port(rnode.name).rx.transfer_and_sleep(
            request, rpre, rswitch.spec.propagation)
        if span is not None:
            child.finish(at=now + (done - now))
            child = rswitch.wire_span("rdma.dma", child.t_end, rpre, nbytes)
        yield from rswitch.cross(rnode.name, node.name, rdev.wire_bytes(nbytes))
        if span is not None:
            child.finish()

        data = mr.read_bytes(remote_addr, nbytes)
        return Completion(wr_id, "read", "ok", nbytes, data)

    # -- internals ---------------------------------------------------------
    def _validate(
        self,
        remote: "QueuePair",
        addr: int,
        nbytes: int,
        needed: AccessFlags,
        rkey: int,
    ) -> MemoryRegion:
        """rkey / PD / bounds / flags / expiry enforcement at the target.

        This is the NIC-resident check the paper's security discussion
        (§2.3) centers on: possession of a *valid* rkey in the *target
        QP's PD* is necessary and sufficient — no CPU, no higher-level
        authentication.
        """
        if nbytes <= 0:
            raise ValueError(f"one-sided op size must be positive, got {nbytes}")
        mr = remote.pd.lookup(rkey)
        if mr is None:
            raise AccessViolation(
                f"rkey {rkey:#x} is not valid in the target QP's protection domain"
            )
        if mr.expired(self.env.now):
            raise AccessViolation(f"rkey {rkey:#x} has expired (scoped registration)")
        if not mr.contains(addr, nbytes):
            raise AccessViolation(
                f"access [{addr:#x}, +{nbytes}) outside MR [{mr.addr:#x}, +{mr.length})"
            )
        if not (mr.flags & needed):
            raise AccessViolation(f"MR lacks {needed.name} permission")
        return mr

    def _post(
        self, remote: "QueuePair", size: int, stage: str,
    ) -> Generator[Event, None, None]:
        """Post CPU on the initiator, then the wire to ``remote``.

        The post reserves the CPU and sleeps the stack latency, the
        rendezvous round-trip (above the threshold) and the propagation as
        one event, at the bit-identical instant the chained sleeps would
        reach.  A sampled post then books its spans and ``(sleep)``
        records there (:meth:`_posted`).
        """
        dev = self.device
        node, rnode = dev.node, remote.device.node
        span = self.env._active.span
        if span is not None:
            span = span.child("rdma.post", node=node.name, nbytes=size)
        costs = dev.costs
        switch = node.switch
        propagation = switch.spec.propagation
        delays = (costs.rtt_overhead / 2.0, propagation)
        threshold = costs.rendezvous_threshold
        rendezvous = threshold is not None and size > threshold
        if rendezvous:
            delays = (delays[0], dev.rendezvous_rtt(), propagation)
        now = self.env.now
        done = yield node.cpu.execute(costs.tx_cpu_per_op, *delays)
        if span is not None:
            span = self._posted(span, now, done, size, stage, rendezvous)
        yield from switch.cross(node.name, rnode.name, dev.wire_bytes(size))
        if span is not None:
            span.finish()

    def _posted(self, span: Any, now: float, done: float,
                size: int, stage: str, rendezvous: bool = False) -> Any:
        """Book a sampled switched post after its one merged event.

        ``span`` is the ``rdma.post`` span open since ``now``; ``done`` is
        the end of the post CPU's service.  Closes it where the chained
        path did, books the rendezvous and stack-latency sleeps the chained
        path booked between the post and the crossing, and returns the
        open ``stage`` span.
        """
        t = now + (done - now)
        span.finish(at=t)
        dev = self.device
        pre = dev.costs.rtt_overhead / 2.0
        if rendezvous:
            t = dev.rendezvous_spans(t, pre)
            pre = 0.0
        return dev.node.switch.wire_span(stage, t, pre, size)


class RdmaDevice:
    """The RDMA-capable NIC of one node."""

    def __init__(self, node: ComputeNode, costs: TransportCosts = RDMA_COSTS) -> None:
        self.node = node
        self.env: Environment = node.env
        self.costs = costs

    def alloc_pd(self) -> ProtectionDomain:
        """Allocate a protection domain."""
        return ProtectionDomain(self)

    def create_qp(self, pd: ProtectionDomain) -> QueuePair:
        """Create an RC queue pair in ``pd``."""
        return QueuePair(self, pd)

    def rendezvous_rtt(self) -> float:
        """The RTS/CTS control round-trip a rendezvous message pays."""
        return 2 * (self.node.switch.spec.propagation
                    + self.costs.rtt_overhead / 2.0)

    def rendezvous_spans(self, t: float, pre: float) -> float:
        """Book a sampled rendezvous whose sleeps another event took.

        The chained path slept the stack latency ``pre`` at ``t`` on its
        process's span, then the round-trip inside an ``rdma.rendezvous``
        child of it.  Books both sleeps and the span at those instants and
        returns the instant the round-trip ends.
        """
        span = self.env._active.span
        span.slept(t, pre)
        t = t + pre
        rtt = self.rendezvous_rtt()
        span.child("rdma.rendezvous", node=self.node.name, start=t,
                   end=t + rtt).slept(t, rtt)
        return t + rtt

    def wire_bytes(self, size: int) -> int:
        """Bytes on the wire for a ``size``-byte payload (header, goodput)."""
        return int((size + HEADER_BYTES) / self.costs.goodput_efficiency)

