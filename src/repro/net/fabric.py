"""Provider registry and the unified fabric channel abstraction.

DAOS configures one fabric provider per engine — ``ofi+tcp;ofi_rxm``,
``ucx+tcp``, ``ucx+rc``, ``ucx+dc_x`` or ``ofi+verbs;ofi_rxm`` (§3.2/§3.3)
— and clients must match.  This module gives every upper layer (Mercury
RPC, NVMe-oF, the ROS2 data plane) one interface regardless of provider:

* :meth:`FabricChannel.send` / :meth:`FabricChannel.listen` — two-sided
  messaging (RPC traffic), handed to the peer's listener on arrival.
* :meth:`FabricChannel.register` — expose a memory window for one-sided
  access; returns a serializable :class:`RemoteRegion` descriptor
  (address, rkey, length) the control plane can convey.
* :meth:`FabricChannel.rma_read` / :meth:`FabricChannel.rma_write` — bulk
  transfers.  On verbs providers these are true one-sided ops (zero target
  CPU).  On TCP providers they are *emulated* by the provider's progress
  engine (exactly what ``ofi_rxm`` does), paying full two-sided CPU costs
  — which is precisely why TCP loses the small-I/O race in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.hw.platform import ComputeNode
from repro.hw.specs import RDMA_COSTS, TCP_COSTS, TransportCosts
from repro.net.message import Listeners, Message
from repro.net.rdma import (
    AccessFlags,
    MemoryRegion,
    ProtectionDomain,
    QueuePair,
    RdmaDevice,
    RdmaError,
)
from repro.net.tcp import TcpConnection, TcpStack
from repro.sim.core import Environment, Event

__all__ = [
    "PROVIDERS",
    "ProviderInfo",
    "RemoteRegion",
    "FabricChannel",
    "TcpChannel",
    "RdmaChannel",
    "FabricEndpoint",
    "Fabric",
    "list_providers",
    "resolve_provider",
]


@dataclass(frozen=True, slots=True)
class ProviderInfo:
    """One fabric provider binding."""

    name: str
    family: str  # "tcp" | "rdma"
    costs: TransportCosts
    description: str


#: The provider strings the paper's configurations use (§3.2).
PROVIDERS: Dict[str, ProviderInfo] = {
    "ofi+tcp;ofi_rxm": ProviderInfo(
        "ofi+tcp;ofi_rxm", "tcp", TCP_COSTS, "libfabric TCP with RxM messaging"
    ),
    "ucx+tcp": ProviderInfo("ucx+tcp", "tcp", TCP_COSTS, "UCX over kernel TCP"),
    "ucx+rc": ProviderInfo("ucx+rc", "rdma", RDMA_COSTS, "UCX reliable-connected verbs"),
    "ucx+dc_x": ProviderInfo(
        "ucx+dc_x", "rdma", RDMA_COSTS, "UCX dynamically-connected verbs"
    ),
    "ofi+verbs;ofi_rxm": ProviderInfo(
        "ofi+verbs;ofi_rxm", "rdma", RDMA_COSTS, "libfabric verbs with RxM"
    ),
}

#: Convenience aliases accepted anywhere a provider name is.
_ALIASES = {"tcp": "ucx+tcp", "rdma": "ucx+rc", "verbs": "ofi+verbs;ofi_rxm"}


def list_providers() -> Tuple[str, ...]:
    """All registered provider names."""
    return tuple(PROVIDERS)


def resolve_provider(name: str) -> ProviderInfo:
    """Look up a provider by exact name or alias ('tcp', 'rdma')."""
    key = _ALIASES.get(name, name)
    try:
        return PROVIDERS[key]
    except KeyError:
        raise ValueError(
            f"unknown fabric provider {name!r}; known: {sorted(PROVIDERS)}"
        ) from None


@dataclass(frozen=True, slots=True)
class RemoteRegion:
    """A serializable descriptor of a registered memory window.

    This is what the ROS2 control plane conveys between client, DPU and
    server ("memory registration handles", §3.2): everything a peer needs
    for one-sided access, nothing more.
    """

    node: str
    addr: int
    rkey: int
    length: int


class FabricChannel:
    """Base class: a connected pair of endpoints on one provider."""

    def __init__(self, provider: ProviderInfo, a: ComputeNode, b: ComputeNode) -> None:
        self.provider = provider
        self.nodes: Dict[str, ComputeNode] = {a.name: a, b.name: b}
        self.env: Environment = a.env

    def peer_of(self, name: str) -> str:
        """The other endpoint's node name."""
        for n in self.nodes:
            if n != name:
                return n
        raise KeyError(name)

    def ensure_connected(self) -> bool:
        """Repair the channel after a transport fault if possible.

        Returns True when a reconnect was performed.  The base transport
        needs none (TCP reset windows clear on their own); the verbs
        channel replaces errored QPs.  Raises when the channel is still
        inside an active fault window (caller backs off and retries).
        """
        return False

    # Interface -------------------------------------------------------------
    def send(self, msg: Message) -> Generator[Event, None, None]:
        """Deliver ``msg`` to the peer's listener (two-sided)."""
        raise NotImplementedError

    def listen(self, name: str, deliver: Callable[[Message], None]) -> None:
        """Call ``deliver(msg)`` for each message at its arrival at ``name``."""
        self._listeners.listen(name, deliver)

    def register(
        self,
        name: str,
        length: int,
        buffer: Optional[Any] = None,
        valid_until: Optional[float] = None,
    ) -> RemoteRegion:
        """Expose a window of ``name``'s memory for peer one-sided access."""
        raise NotImplementedError

    def deregister(self, region: RemoteRegion) -> None:
        """Revoke a window."""
        raise NotImplementedError

    def rma_read(
        self, initiator: str, region: RemoteRegion, nbytes: int, offset: int = 0,
        trace: Any = None,
    ) -> Generator[Event, None, Optional[bytes]]:
        """Pull ``nbytes`` from the peer's window into the initiator."""
        raise NotImplementedError

    def rma_write(
        self,
        initiator: str,
        region: RemoteRegion,
        payload: Any = None,
        nbytes: Optional[int] = None,
        offset: int = 0,
        trace: Any = None,
    ) -> Generator[Event, None, None]:
        """Push bytes into the peer's window."""
        raise NotImplementedError


class TcpChannel(FabricChannel):
    """TCP provider: messaging is native; RMA is provider-emulated (RxM)."""

    def __init__(
        self,
        provider: ProviderInfo,
        a: ComputeNode,
        b: ComputeNode,
        stacks: Dict[str, TcpStack],
    ) -> None:
        super().__init__(provider, a, b)
        self._conn: TcpConnection = stacks[a.name].connect(stacks[b.name])
        self._listeners = self._conn.listeners
        self._regions: Dict[int, Tuple[str, Optional[Any], int, Optional[float], bool]] = {}
        self._next_key = 0x7000
        self._next_addr = 0x20_0000_0000
        for name in self.nodes:
            self.env.components.add(f"{name}.tcp", "tcp", self, node=name)

    def reset(self, duration: float) -> None:
        """Injected TCP reset: sends fail until the window passes."""
        self._conn.reset(duration)

    def send(self, msg: Message) -> Generator[Event, None, None]:
        # Plain delegation: return the connection's generator directly
        # instead of wrapping it in another generator frame — callers
        # ``yield from`` the result either way, but this removes one
        # frame from every resumption of the hottest path in the model.
        return self._conn.send(msg)

    def register(self, name, length, buffer=None, valid_until=None):
        if name not in self.nodes:
            raise KeyError(f"{name!r} is not an endpoint of this channel")
        if length <= 0:
            raise ValueError(f"region length must be positive, got {length}")
        self._next_key += 1
        self._next_addr += length + 4096
        region = RemoteRegion(name, self._next_addr - length, self._next_key, length)
        self._regions[region.rkey] = (name, buffer, region.addr, valid_until, False)
        return region

    def deregister(self, region: RemoteRegion) -> None:
        entry = self._regions.get(region.rkey)
        if entry is not None:
            name, buffer, addr, valid_until, _ = entry
            self._regions[region.rkey] = (name, buffer, addr, valid_until, True)

    def _lookup(self, region: RemoteRegion, nbytes: int, offset: int):
        entry = self._regions.get(region.rkey)
        if entry is None or entry[4]:
            raise PermissionError(f"region rkey {region.rkey:#x} is not registered")
        if entry[3] is not None and self.env.now > entry[3]:
            raise PermissionError(f"region rkey {region.rkey:#x} has expired")
        if offset < 0 or offset + nbytes > region.length:
            raise PermissionError(
                f"access [+{offset}, +{offset + nbytes}) outside region of {region.length}"
            )
        return entry

    def rma_read(self, initiator, region, nbytes, offset=0, trace=None):
        """Emulated read: request message out, data message back.

        The target pays full TCP receive+send CPU (its rxm progress
        engine), the initiator pays receive costs for the data — this is
        the CPU tax that makes TCP RMA expensive.
        """
        entry = self._lookup(region, nbytes, offset)
        target = self.peer_of(initiator)
        meta = {"trace": trace} if trace is not None else {}
        req = Message(src=initiator, dst=target, kind="_rxm_read_req", nbytes=32,
                      meta=dict(meta))
        yield from self._conn.send(req)
        data = Message(src=target, dst=initiator, kind="_rxm_read_data",
                       nbytes=nbytes, meta=dict(meta))
        yield from self._conn.send(data)
        buffer = entry[1]
        if buffer is not None:
            return bytes(memoryview(buffer)[offset:offset + nbytes])
        return None

    def rma_write(self, initiator, region, payload=None, nbytes=None, offset=0,
                  trace=None):
        size = nbytes if nbytes is not None else Message(
            src="", dst="", payload=payload
        ).nbytes
        entry = self._lookup(region, size, offset)
        target = self.peer_of(initiator)
        meta = {"trace": trace} if trace is not None else {}
        data = Message(src=initiator, dst=target, kind="_rxm_write", nbytes=size,
                       meta=dict(meta))
        yield from self._conn.send(data)
        buffer = entry[1]
        if buffer is not None and payload is not None:
            memoryview(buffer)[offset:offset + size] = bytes(payload)


class RdmaChannel(FabricChannel):
    """Verbs provider: a connected QP pair with real MRs and rkeys."""

    def __init__(
        self,
        provider: ProviderInfo,
        a: ComputeNode,
        b: ComputeNode,
        devices: Dict[str, RdmaDevice],
        pds: Optional[Dict[str, ProtectionDomain]] = None,
    ) -> None:
        super().__init__(provider, a, b)
        self.devices = devices
        self.pds: Dict[str, ProtectionDomain] = pds or {
            a.name: devices[a.name].alloc_pd(),
            b.name: devices[b.name].alloc_pd(),
        }
        self.qps: Dict[str, QueuePair] = {
            a.name: devices[a.name].create_qp(self.pds[a.name]),
            b.name: devices[b.name].create_qp(self.pds[b.name]),
        }
        self.qps[a.name].connect(self.qps[b.name])
        self._listeners = Listeners(self.nodes)
        self._mrs: Dict[int, MemoryRegion] = {}
        for name in self.nodes:
            self.env.components.add(f"{name}.qp", "qp", self, node=name)

    # -- fault handling ------------------------------------------------------
    def break_qps(self, reason: str) -> None:
        """Transition both QPs of the pair to the error state (CQ flush)."""
        for qp in self.qps.values():
            qp.transition_to_error(reason)

    def ensure_connected(self) -> bool:
        """Replace errored QPs with fresh ones in the same PDs.

        RC QPs cannot leave the error state in place; recovery creates
        new QPs (existing MRs and rkeys survive — they belong to the
        PDs).  Refuses while a ``qp_break`` fault window is still active
        on either endpoint, so retries keep backing off until the
        injected outage ends.
        """
        if all(qp.error is None for qp in self.qps.values()):
            return False
        fx = self.env._faults
        if fx is not None:
            for name in self.nodes:
                ev = fx.active("qp_break", f"{name}.qp")
                if ev is not None:
                    raise RdmaError(
                        f"cannot reconnect {name}.qp: fault window active"
                    )
        names = list(self.nodes)
        fresh = {
            name: self.devices[name].create_qp(self.pds[name]) for name in names
        }
        fresh[names[0]].connect(fresh[names[1]])
        self.qps = fresh
        if fx is not None:
            fx.stats.reconnects += 1
        return True

    def send(self, msg: Message) -> Generator[Event, None, None]:
        # The channel owns both ends: no RECV WR, RQ match or CQ entries
        # (nobody would poll them), just the SEND's timing, then delivery.
        qp = self.qps[msg.src]
        yield from qp.transmit(msg.nbytes,
                               msg.meta.get("trace") if msg.meta else None)
        self._listeners.deliver(qp.remote.device.node.name, msg)

    def register(self, name, length, buffer=None, valid_until=None):
        if name not in self.nodes:
            raise KeyError(f"{name!r} is not an endpoint of this channel")
        mr = self.pds[name].register_mr(
            length,
            AccessFlags.remote_rw(),
            buffer=buffer,
            valid_until=valid_until,
        )
        self._mrs[mr.rkey] = mr
        return RemoteRegion(name, mr.addr, mr.rkey, mr.length)

    def deregister(self, region: RemoteRegion) -> None:
        mr = self._mrs.pop(region.rkey, None)
        if mr is not None:
            mr.pd.deregister_mr(mr)

    def rma_read(self, initiator, region, nbytes, offset=0, trace=None):
        qp = self.qps[initiator]
        comp = yield from qp.rdma_read(region.addr + offset, region.rkey, nbytes,
                                       trace=trace)
        return comp.payload

    def rma_write(self, initiator, region, payload=None, nbytes=None, offset=0,
                  trace=None):
        qp = self.qps[initiator]
        yield from qp.rdma_write(
            region.addr + offset, region.rkey, payload=payload, nbytes=nbytes,
            trace=trace,
        )


class FabricEndpoint:
    """A node's attachment point on one provider."""

    def __init__(self, fabric: "Fabric", node: ComputeNode, provider: ProviderInfo) -> None:
        self.fabric = fabric
        self.node = node
        self.provider = provider

    def connect(self, remote: "FabricEndpoint") -> FabricChannel:
        """Open a channel to ``remote`` (must share the provider)."""
        if remote.provider.name != self.provider.name:
            raise ValueError(
                f"provider mismatch: {self.provider.name} vs {remote.provider.name} "
                "(DAOS requires matching providers on client and engine)"
            )
        return self.fabric._make_channel(self.provider, self.node, remote.node)


class Fabric:
    """Factory/registry of per-node transport state and channels."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._tcp_stacks: Dict[str, TcpStack] = {}
        self._rdma_devices: Dict[str, RdmaDevice] = {}

    def endpoint(self, node: ComputeNode, provider: str) -> FabricEndpoint:
        """Attach ``node`` to ``provider`` (idempotent per node)."""
        info = resolve_provider(provider)
        if info.family == "tcp":
            if node.name not in self._tcp_stacks:
                self._tcp_stacks[node.name] = TcpStack(node, info.costs)
        else:
            if node.name not in self._rdma_devices:
                self._rdma_devices[node.name] = RdmaDevice(node, info.costs)
        return FabricEndpoint(self, node, info)

    def _make_channel(
        self, provider: ProviderInfo, a: ComputeNode, b: ComputeNode
    ) -> FabricChannel:
        if provider.family == "tcp":
            return TcpChannel(provider, a, b, self._tcp_stacks)
        return RdmaChannel(provider, a, b, self._rdma_devices)

    def connect(
        self, a: ComputeNode, b: ComputeNode, provider: str
    ) -> FabricChannel:
        """One-call endpoint setup + channel between two nodes."""
        ea = self.endpoint(a, provider)
        eb = self.endpoint(b, provider)
        return ea.connect(eb)
