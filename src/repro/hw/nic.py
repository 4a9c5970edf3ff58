"""Network links and the 100 Gbps switch.

The testbed topology (§4.1) is a handful of nodes behind one switch whose
port rate (100 Gbps) is the binding constraint for multi-SSD runs.  We
model each node port as a TX pipe and an RX pipe at the port rate; a
transfer crosses the sender's TX port and the receiver's RX port, so both
egress and ingress contention are represented (ingress contention at the
DPU is what multi-tenant experiments stress).
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.hw.specs import LinkSpec
from repro.sim.core import Environment, Event
from repro.sim.queues import BandwidthPipe

__all__ = ["Port", "DuplexLink", "Switch"]


class Port:
    """One switch port: independent TX and RX pipes at the port rate."""

    __slots__ = ("name", "tx", "rx")

    def __init__(self, env: Environment, name: str, spec: LinkSpec) -> None:
        self.name = name
        self.tx = BandwidthPipe(
            env, spec.rate_bytes, latency=0.0, chunk_bytes=spec.chunk_bytes,
            name=f"net.{name}.tx",
        )
        self.rx = BandwidthPipe(
            env, spec.rate_bytes, latency=0.0, chunk_bytes=spec.chunk_bytes,
            name=f"net.{name}.rx",
        )
        for pipe in (self.tx, self.rx):
            env.components.add(pipe.name, "pipe", pipe, node=name)

    def bytes_sent(self) -> int:
        """Payload bytes that left through this port."""
        return self.tx.bytes_moved

    def bytes_received(self) -> int:
        """Payload bytes that arrived through this port."""
        return self.rx.bytes_moved


class Switch:
    """A store-and-forward switch connecting named node ports.

    ``transmit(src, dst, nbytes)`` moves payload bytes across ``src``'s TX
    pipe and ``dst``'s RX pipe, adding the one-way propagation delay once.
    The payload is scaled by ``1/goodput_efficiency`` by the *caller*
    (transport layer) so protocol overhead shows up as extra wire bytes.
    """

    def __init__(self, env: Environment, spec: LinkSpec) -> None:
        self.env = env
        self.spec = spec
        self.ports: Dict[str, Port] = {}

    def attach(self, name: str) -> Port:
        """Create (or return) the port for node ``name``."""
        port = self.ports.get(name)
        if port is None:
            port = self.ports[name] = Port(self.env, name, self.spec)
        return port

    def port(self, name: str) -> Port:
        """Look up an attached port."""
        try:
            return self.ports[name]
        except KeyError:
            raise KeyError(f"node {name!r} is not attached to the switch") from None

    def transmit(
        self, src: str, dst: str, wire_bytes: int, pre_delay: float = 0.0
    ) -> Generator[Event, None, None]:
        """Move ``wire_bytes`` from ``src`` to ``dst`` (generator; yield from).

        ``pre_delay`` lets transports merge a fixed stack latency they
        would otherwise sleep *immediately before* the crossing into the
        propagation event: one kernel event instead of two, firing at the
        bit-identical instant ``(now + pre_delay) + propagation`` the
        chained sleeps would have reached.
        """
        env = self.env
        if src == dst:
            if pre_delay:
                yield env.timeout(pre_delay)
            return  # loopback never touches the wire
        propagation = self.spec.propagation
        if pre_delay:
            yield env.timeout_until((env.now + pre_delay) + propagation)
        elif propagation:
            # Zero-propagation links (ablations, loop-local fabrics) skip
            # the timeout(0) event entirely — same simulated time, one
            # fewer heap operation per crossing.
            yield env.timeout(propagation)
        yield from self.cross(src, dst, wire_bytes)

    def cross(self, src: str, dst: str, wire_bytes: int
              ) -> Generator[Event, None, None]:
        """The port crossings alone, for callers that slept the propagation."""
        yield from self.port(src).tx.transfer(wire_bytes)
        yield from self.port(dst).rx.transfer(wire_bytes)


class DuplexLink:
    """A direct point-to-point link (two independent directions).

    Used where no switch is involved (e.g. the DPU's internal PCIe path to
    host memory in the GPUDirect ablation).
    """

    __slots__ = ("env", "spec", "_ab", "_ba", "a", "b")

    def __init__(
        self,
        env: Environment,
        a: str,
        b: str,
        rate_bytes: float,
        latency: float = 0.0,
        chunk_bytes: int = 64 * 1024,
    ) -> None:
        self.env = env
        self.a = a
        self.b = b
        self._ab = BandwidthPipe(env, rate_bytes, latency, chunk_bytes,
                                 name=f"link.{a}.{b}")
        self._ba = BandwidthPipe(env, rate_bytes, latency, chunk_bytes,
                                 name=f"link.{b}.{a}")

    def pipe(self, src: str, dst: str) -> BandwidthPipe:
        """The directional pipe from ``src`` to ``dst``."""
        if (src, dst) == (self.a, self.b):
            return self._ab
        if (src, dst) == (self.b, self.a):
            return self._ba
        raise KeyError(f"link {self.a!r}<->{self.b!r} does not connect {src!r}->{dst!r}")

    def transfer(
        self, src: str, dst: str, nbytes: int
    ) -> Generator[Event, None, None]:
        """Move ``nbytes`` from ``src`` to ``dst`` (generator; yield from)."""
        yield from self.pipe(src, dst).transfer(nbytes)
