"""Network links and the 100 Gbps switch.

The testbed topology (§4.1) is a handful of nodes behind one switch whose
port rate (100 Gbps) is the binding constraint for multi-SSD runs.  We
model each node port as a TX pipe and an RX pipe at the port rate; a
transfer crosses the sender's TX port and the receiver's RX port, so both
egress and ingress contention are represented (ingress contention at the
DPU is what multi-tenant experiments stress).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Tuple

from repro.hw.specs import LinkSpec
from repro.sim.core import Environment, Event
from repro.sim.queues import BandwidthPipe

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.spans import Span

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
        #: ``(src, dst) -> (src TX pipe, dst RX pipe)``, built on first use.
        self._routes: Dict[Tuple[str, str], Tuple[BandwidthPipe, BandwidthPipe]] = {}

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
        propagation = self.spec.propagation
        if pre_delay:
            yield env.timeout_until((env.now + pre_delay) + propagation)
        elif propagation:
            # Zero-propagation links (ablations) skip the timeout(0)
            # event entirely — same simulated time, one fewer heap
            # operation per crossing.
            yield env.timeout(propagation)
        yield from self.cross(src, dst, wire_bytes)

    def wire_span(self, stage: str, t: float,
                  pre_delay: float = 0.0, nbytes: int = 0) -> "Span":
        """Open the span of a traced crossing whose sleep another event took.

        A sampled message opens ``stage`` (a child of its process's span)
        around :meth:`transmit` at ``t``.  When its caller merged
        ``transmit``'s sleep into an earlier event, this opens the span at
        ``t`` instead and books on it the ``(sleep)`` :meth:`transmit`
        would have booked there: ``when - t`` for its
        ``timeout_until(when)``, the propagation for its ``timeout``,
        nothing without either.  The caller then crosses (:meth:`cross`)
        and finishes the span.
        """
        span = self.env._active.span.child(stage, nbytes=nbytes, start=t)
        propagation = self.spec.propagation
        if pre_delay:
            span.slept(t, ((t + pre_delay) + propagation) - t)
        elif propagation:
            span.slept(t, propagation)
        return span

    def route(self, src: str, dst: str
              ) -> Tuple[BandwidthPipe, BandwidthPipe]:
        """``src``'s TX pipe and ``dst``'s RX pipe, looked up once per pair."""
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[src, dst] = (self.port(src).tx,
                                              self.port(dst).rx)
        return route

    def cross(self, src: str, dst: str, wire_bytes: int
              ) -> Generator[Event, None, None]:
        """The port crossings alone, for callers that slept the propagation.

        A one-chunk crossing is each pipe's one reservation, as one event
        (the ports have no latency and share the switch's chunk size); the
        hottest senders drive those two events themselves, over :meth:`route`.
        """
        tx, rx = self.route(src, dst)
        if 0 < wire_bytes <= tx.chunk_bytes:
            yield tx.transfer_and_sleep(wire_bytes)
            yield rx.transfer_and_sleep(wire_bytes)
        else:
            yield from tx.transfer(wire_bytes)
            yield from rx.transfer(wire_bytes)


class DuplexLink:
    """A direct point-to-point link (two independent directions), with no
    latency, moving 64 KiB chunks."""

    __slots__ = ("env", "spec", "_ab", "_ba", "a", "b")

    def __init__(
        self,
        env: Environment,
        a: str,
        b: str,
        rate_bytes: float,
    ) -> None:
        self.env = env
        self.a = a
        self.b = b
        self._ab = BandwidthPipe(env, rate_bytes, 0.0, 64 * 1024,
                                 name=f"link.{a}.{b}")
        self._ba = BandwidthPipe(env, rate_bytes, 0.0, 64 * 1024,
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
