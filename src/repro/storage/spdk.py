"""SPDK user-space NVMe driver and NVMe-over-Fabrics target/initiator.

This is the Fig. 4 machinery: a storage node exposes one (or more) NVMe
namespaces through an :class:`NvmfTarget`; a client drives it remotely
with an :class:`NvmfInitiator` over any fabric provider.  The protocol
mirrors NVMe-oF's structure:

1. the initiator sends a small command capsule (op, offset, length, and
   the descriptor of a client memory window for the data),
2. the target executes the backend I/O on its user-space driver, then
   moves the payload with **one-sided RMA into/out of the client window**
   (RDMA providers: zero client CPU; TCP providers: the ``ofi_rxm``
   emulation pays full two-sided CPU — the whole point of the figure),
3. the target returns a completion capsule the initiator demultiplexes by
   command id.

Everything runs on explicit reactor threads (serialized sections, each a
:class:`~repro.sim.queues.FifoServer`), and all CPU costs ride the owning
node's architecture factors, so the same code produces host and DPU
results.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Optional

from repro.hw.platform import ComputeNode, Node
from repro.hw.specs import SPDK_PATH, US, StoragePathCosts
from repro.net.fabric import FabricChannel, RemoteRegion
from repro.net.message import Message, reply_listener, request_listener
from repro.sim.core import Environment, Event
from repro.sim.queues import FifoServer
from repro.storage.block import BlockDevice

__all__ = ["SpdkLocalEngine", "NvmfTarget", "NvmfInitiator"]

#: Per-command CPU on the target's poller (parse capsule, post backend IO,
#: build completion) — SPDK's polled target path, no syscalls.
TARGET_CPU_PER_OP = 1.2 * US


class SpdkLocalEngine:
    """Local user-space NVMe access (no kernel in the path)."""

    def __init__(
        self,
        node: Node,
        device: BlockDevice,
        costs: StoragePathCosts = SPDK_PATH,
    ) -> None:
        self.node = node
        self.env = node.env
        self.device = device
        self.costs = costs
        self._threads = 0

    def new_context(self, name: Optional[str] = None) -> FifoServer:
        """Create one reactor thread."""
        self._threads += 1
        return FifoServer(
            self.env,
            name or f"{self.node.name}.spdk.reactor{self._threads}",
            factor=self.node.spec.cycle_factor,
        )

    def submit(
        self,
        ctx: FifoServer,
        offset: int,
        nbytes: int,
        is_write: bool,
        data: Optional[bytes] = None,
        trace=None,
    ) -> Generator[Event, None, Optional[bytes]]:
        """One local NVMe command through the user-space driver."""
        costs = self.costs
        span = None
        if trace is not None:
            span = trace.child("spdk.submit", node=self.node.name, nbytes=nbytes)
        yield ctx.enter(costs.submit_cpu_per_op)
        if span is not None:
            span.finish()
        if is_write:
            yield from self.device.write(
                offset, nbytes=nbytes, data=data,
                bw_efficiency=costs.write_bw_efficiency, trace=trace,
            )
            result = None
        else:
            result = yield from self.device.read(
                offset, nbytes, bw_efficiency=costs.read_bw_efficiency, trace=trace
            )
        span = None
        if trace is not None:
            span = trace.child("spdk.complete", node=self.node.name)
        yield ctx.enter(costs.complete_cpu_per_op)
        if span is not None:
            span.finish()
        return result


class NvmfTarget:
    """The NVMe-oF target on the storage node."""

    def __init__(
        self,
        node: ComputeNode,
        device: BlockDevice,
        cpu_per_op: float = TARGET_CPU_PER_OP,
    ) -> None:
        self.node = node
        self.env: Environment = node.env
        self.device = device
        self.cpu_per_op = cpu_per_op
        self.commands_served = 0

    def serve(self, channel: FabricChannel) -> None:
        """Service command capsules on ``channel`` until ``nvmf.shutdown``."""
        channel.listen(self.node.name, request_listener(
            self.env, "nvmf.cmd", "nvmf.shutdown",
            lambda msg: self._handle(channel, msg), "nvmf-cmd"))

    def _handle(self, channel: FabricChannel, msg: Message):
        cmd = msg.payload
        op = cmd["op"]
        offset = cmd["offset"]
        nbytes = cmd["nbytes"]
        region: Optional[RemoteRegion] = cmd.get("region")

        # The command capsule carries the initiator's span (like the DAOS
        # RPC capsule); target-side work hangs off a handler child span.
        trace = msg.meta.get("trace") if msg.meta else None
        span = None
        if trace is not None:
            span = trace.child("nvmf.target", node=self.node.name, nbytes=nbytes)

        yield self.node.cpu.execute(self.cpu_per_op)

        if op == "write":
            # Pull the payload from the client window, then hit the media.
            data = None
            if region is not None:
                data = yield from channel.rma_read(self.node.name, region, nbytes,
                                                   trace=span)
            yield from self.device.write(offset, nbytes=nbytes, data=data, trace=span)
        elif op == "read":
            data = yield from self.device.read(offset, nbytes, trace=span)
            if region is not None:
                yield from channel.rma_write(
                    self.node.name, region, payload=data, nbytes=nbytes, trace=span
                )
        else:
            raise ValueError(f"unknown NVMe-oF op {op!r}")

        if span is not None:
            span.finish()
        self.commands_served += 1
        yield from channel.send(msg.reply_to(kind="nvmf.cpl", payload={"status": "ok"}))


class NvmfInitiator:
    """The client-side NVMe-oF driver over one fabric channel (one qpair)."""

    _cid = itertools.count(1)

    def __init__(
        self,
        node: ComputeNode,
        channel: FabricChannel,
        costs: StoragePathCosts = SPDK_PATH,
        data_mode: bool = False,
        io_window_bytes: int = 16 * 1024 * 1024,
    ) -> None:
        self.node = node
        self.env: Environment = node.env
        self.channel = channel
        self.costs = costs
        self.data_mode = bool(data_mode)
        self.target_name = channel.peer_of(node.name)
        self._pending: Dict[int, Event] = {}
        self._started = False
        self._threads = 0
        # Performance mode: one pre-registered window reused by every
        # command (real initiators pre-register their buffer pools).
        self._window: Optional[RemoteRegion] = None
        if not data_mode:
            self._window = channel.register(node.name, io_window_bytes)

    def start(self) -> "NvmfInitiator":
        """Listen for completion capsules; call once before I/O."""
        if not self._started:
            self.channel.listen(self.node.name, reply_listener(self._pending))
            self._started = True
        return self

    def new_context(self, name: Optional[str] = None) -> FifoServer:
        """Create one submission reactor thread."""
        self._threads += 1
        return FifoServer(
            self.env,
            name or f"{self.node.name}.nvmf.reactor{self._threads}",
            factor=self.node.spec.cycle_factor,
        )

    def submit(
        self,
        ctx: FifoServer,
        offset: int,
        nbytes: int,
        is_write: bool,
        data: Optional[bytes] = None,
        trace=None,
    ) -> Generator[Event, None, Optional[bytes]]:
        """One remote NVMe command; completes at the completion capsule."""
        if not self._started:
            raise RuntimeError("initiator not started; call start() first")
        costs = self.costs
        env = self.env
        cid = next(NvmfInitiator._cid)

        span = None
        if trace is not None:
            span = trace.child("nvmf.cmd", node=self.node.name, nbytes=nbytes)

        yield ctx.enter(costs.submit_cpu_per_op)

        buffer = None
        region = self._window
        if self.data_mode:
            # Functional mode: per-command window carrying real bytes.
            buffer = bytearray(nbytes)
            if is_write and data is not None:
                buffer[:] = data
            region = self.channel.register(self.node.name, nbytes, buffer=buffer)

        done = env.event()
        self._pending[cid] = done
        capsule = Message(
            src=self.node.name,
            dst=self.target_name,
            kind="nvmf.cmd",
            tag=cid,
            payload={
                "op": "write" if is_write else "read",
                "offset": offset,
                "nbytes": nbytes,
                "region": region,
            },
            nbytes=96,
            meta={"trace": span} if span is not None else {},
        )
        yield from self.channel.send(capsule)
        yield done
        yield ctx.enter(costs.complete_cpu_per_op)
        if span is not None:
            span.finish()

        result: Optional[bytes] = None
        if self.data_mode:
            if not is_write:
                result = bytes(buffer)
            self.channel.deregister(region)
        return result

    def shutdown(self) -> Generator[Event, None, None]:
        """Ask the target to stop handling commands on this channel."""
        yield from self.channel.send(
            Message(src=self.node.name, dst=self.target_name, kind="nvmf.shutdown",
                    nbytes=16)
        )
