"""Kernel TCP transport model.

What the model charges for one message (all constants in
:data:`repro.hw.specs.TCP_COSTS`, scaled by each host's factors):

=================  =========================================================
sender             ``tx_cpu_per_op`` on a general core (syscall, skb setup)
                   plus ``tx_cpu_per_byte * size`` (copy into socket buffer)
sender, serial     ``stack_serial_per_op`` in the host-wide TCP stack
                   section (socket/qdisc locks, scaled by ``lock_factor``)
connection         ``per_conn_byte_cost * size`` through the connection's
                   own FIFO server — the classic single-stream ceiling
wire               ``frame/goodput_efficiency`` bytes across the switch,
                   plus ``rtt_overhead/2`` fixed stack latency
receiver, RX path  ``rx_cpu_per_byte * size`` on the *restricted RX core
                   set* (softirq + copy-to-user).  On BlueField-3 this pool
                   is 2 slow cores — the receive bottleneck of §4.4
receiver           ``rx_cpu_per_op`` on a general core (wakeup, syscall)
receiver, serial   ``stack_serial_per_op`` in the receiver's stack section
=================  =========================================================

The *functional* layer is a connection with in-order reliable delivery of
:class:`~repro.net.message.Message` objects to the receiver's listener.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator

from repro.hw.platform import ComputeNode
from repro.hw.specs import TCP_COSTS, TransportCosts
from repro.net.message import HEADER_BYTES, Listeners, Message
from repro.sim.core import Environment, Event
from repro.sim.queues import FifoServer

__all__ = ["TcpConnection", "TcpStack"]


class TcpConnection:
    """One established, bidirectional TCP connection between two nodes."""

    _ids = 0

    def __init__(
        self,
        a: "TcpStack",
        b: "TcpStack",
    ) -> None:
        TcpConnection._ids += 1
        self.conn_id = TcpConnection._ids
        self._stacks: Dict[str, TcpStack] = {a.node.name: a, b.node.name: b}
        # Per-direction single-stream processing (per_conn_byte_cost).
        env = a.env
        # Wait-attribution names are shared across connections of the same
        # endpoint (one blame bucket per node-wide concept, not per conn).
        self._stream: Dict[str, FifoServer] = {
            a.node.name: FifoServer(env, name=f"{a.node.name}.tcp_stream"),
            b.node.name: FifoServer(env, name=f"{b.node.name}.tcp_stream"),
        }
        self.listeners = Listeners(self._stacks)
        self.closed = False
        #: Injected-reset window end: sends raise :class:`ConnectionError`
        #: while ``env.now < fail_until``.  The connection object (and its
        #: listeners) survives the reset — only the stream is
        #: interrupted, as with a kernel RST + reconnect.
        self.fail_until = 0.0
        self._env = env
        #: Per-direction hot-path capsule: every object :meth:`send` needs
        #: for a ``src -> peer`` message, resolved once at connect time
        #: instead of through 10+ attribute/dict lookups per message.
        self._dir: Dict[str, tuple] = {}
        for name, stack in self._stacks.items():
            peer = self._stacks[self.peer_of(name)]
            snode, dnode = stack.node, peer.node
            self._dir[name] = (
                stack,                              # 0: source stack
                peer,                               # 1: destination stack
                stack.costs,                        # 2: transport costs
                snode.cpu,                          # 3: sender cores
                stack.section,                      # 4: sender stack section
                self._stream[name],                 # 5: per-conn stream
                snode.switch,                       # 6
                dnode.name,                         # 7
                dnode.tcp_rx_cpu,                   # 8: restricted RX cores
                dnode.cpu,                          # 9: receiver cores
                peer.section,                       # 10: receiver section
                "bluefield" in snode.spec.name,     # 11
                "bluefield" in dnode.spec.name,     # 12
            )

    def peer_of(self, name: str) -> str:
        """The other endpoint's node name."""
        for n in self._stacks:
            if n != name:
                return n
        raise KeyError(name)

    def listen(self, name: str, deliver: Callable[[Message], None]) -> None:
        """Call ``deliver(msg)`` for each message at its arrival at ``name``."""
        self.listeners.listen(name, deliver)

    def send(self, msg: Message) -> Generator[Event, None, None]:
        """Send ``msg`` from ``msg.src``; completes when it is delivered.

        Use as ``yield from conn.send(msg)`` or wrap in ``env.process`` to
        pipeline multiple sends.
        """
        if self.closed:
            raise ConnectionError(f"connection {self.conn_id} is closed")
        if self.fail_until > self._env._now:
            raise ConnectionError(
                f"connection {self.conn_id} reset (injected fault)"
            )
        cap = self._dir.get(msg.src)
        if cap is None:
            raise KeyError(f"{msg.src!r} is not an endpoint of this connection")
        # Hot-path capsule resolved at connect time (see __init__) — this
        # generator runs once per wire message and is the single hottest
        # model function in every TCP experiment.
        (src, dst, costs, src_cpu, src_lock, stream, switch, dst_name,
         rx_pool, dst_cpu, dst_lock, src_bf3, dst_bf3) = cap
        env = src.env
        size = msg.nbytes
        span = env._active.span

        # --- sender ---------------------------------------------------
        if span is not None:
            child = span.child("tcp.tx", node=msg.src, nbytes=size)
        yield src_cpu.execute(
            costs.tx_cpu_per_op + costs.tx_cpu_per_byte * size
        )
        if span is not None:
            child.finish()
        serial = costs.stack_serial_per_op
        if serial:
            # The host-wide serialized stack section.  On a BlueField this
            # section is the calibrated stand-in for the Arm kernel RX/stack
            # path of §4.4 (it is what caps DPU TCP at ~200 K IOPS, Fig. 5c
            # bottom), so the breakdown attributes it to ``arm_rx``
            # regardless of which direction's syscall stalled on it.
            if span is not None:
                child = span.child("arm_rx" if src_bf3 else "tcp.stack",
                                   node=msg.src)
            yield src_lock.enter(serial)
            if span is not None:
                child.finish()
        # Single-stream per-connection processing (sequential per direction).
        wire = int((size + HEADER_BYTES) / costs.goodput_efficiency)
        if costs.per_conn_byte_cost and size:
            # The stream reservation, the stack latency (rtt/2) and the
            # propagation as one event, at the chained sleeps' instant.  A
            # sampled message then books its ``tcp.stream`` and
            # ``net.wire`` spans where the chained sleeps put them.
            if span is not None:
                child = span.child("tcp.stream", node=msg.src, nbytes=size)
            now = env._now
            pre = costs.rtt_overhead / 2.0
            done = yield stream.serve(costs.per_conn_byte_cost * size, pre,
                                      switch.spec.propagation)
            if span is not None:
                child.finish(at=now + (done - now))
                child = switch.wire_span("net.wire", child.t_end, pre, size)
            # :meth:`Switch.cross <repro.hw.nic.Switch.cross>`, inline.
            tx, rx = switch.route(msg.src, dst_name)
            if 0 < wire <= tx.chunk_bytes:
                yield tx.transfer_and_sleep(wire)
                yield rx.transfer_and_sleep(wire)
            else:
                yield from switch.cross(msg.src, dst_name, wire)
            if span is not None:
                child.finish()
        else:
            # --- wire (no stream work to merge the sleep into) ---------
            # Fixed stack latency (rtt/2) is merged into the switch
            # crossing's propagation event — one kernel event,
            # bit-identical fire time.
            if span is not None:
                child = span.child("net.wire", nbytes=size)
            yield from switch.transmit(
                msg.src, dst_name, wire, pre_delay=costs.rtt_overhead / 2.0
            )
            if span is not None:
                child.finish()

        # --- receiver ---------------------------------------------------
        if costs.rx_cpu_per_byte and size:
            # Per-byte RX work runs on the restricted RX core set; the
            # pool's own factor already includes the platform RX penalty.
            # On a BlueField this is the Arm RX path of the paper's §4.4.
            if span is not None:
                child = span.child("arm_rx" if dst_bf3 else "host_rx",
                                   node=dst_name, nbytes=size)
            yield rx_pool.execute(costs.rx_cpu_per_byte * size)
            if span is not None:
                child.finish()
        if span is not None:
            child = span.child("tcp.rx", node=dst_name, nbytes=size)
        yield dst_cpu.execute(costs.rx_cpu_per_op)
        if span is not None:
            child.finish()
        if serial:
            if span is not None:
                child = span.child("arm_rx" if dst_bf3 else "tcp.stack",
                                   node=dst_name)
            yield dst_lock.enter(serial)
            if span is not None:
                child.finish()

        # Provider-internal messages (kinds starting with "_", the RxM
        # emulation) end here: their sender is the one waiting for them.
        if not msg.kind.startswith("_"):
            self.listeners.deliver(dst_name, msg)

    def reset(self, duration: float) -> None:
        """Injected reset: sends fail for ``duration`` sim-seconds."""
        until = self._env.now + duration
        if until > self.fail_until:
            self.fail_until = until

    def close(self) -> None:
        """Mark the connection closed; further sends raise."""
        self.closed = True


class TcpStack:
    """The per-node TCP stack: connection setup plus cost bookkeeping."""

    def __init__(
        self,
        node: ComputeNode,
        costs: TransportCosts = TCP_COSTS,
    ) -> None:
        self.node = node
        self.env: Environment = node.env
        self.costs = costs
        #: The node-wide serialized stack section (socket/qdisc locks).
        self.section = node.lock("tcp_stack")

    def connect(self, remote: "TcpStack") -> TcpConnection:
        """Open a connection to ``remote`` on another node (handshake cost
        is negligible next to the paper's multi-second measurement windows).

        Every data channel of the testbed crosses the switch, so a
        connection within one node is rejected before anything is
        simulated.
        """
        if remote.node is self.node:
            raise ValueError(
                f"both ends are on node {self.node.name!r}; a TCP "
                "connection joins two nodes"
            )
        return TcpConnection(self, remote)
