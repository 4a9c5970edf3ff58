"""Message framing and wire-size accounting.

A :class:`Message` is what upper layers (RPC, NVMe-oF, DAOS) hand to a
transport.  Payloads may be:

* real bytes (``bytes``/``bytearray``/``numpy`` arrays) — used by the
  functional tests and examples, where data integrity is checked
  end-to-end, or
* *virtual* payloads (``payload=None`` with an explicit ``nbytes``) — used
  by the performance benches, where only sizes matter and copying megabytes
  per simulated I/O would waste host memory bandwidth for nothing.

:class:`Listeners` is the delivery side every transport shares: each
endpoint's service registers one function that receives its messages
(:func:`request_listener` for servers, :func:`reply_listener` for clients).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

from repro.sim.core import NORMAL, Process

__all__ = ["Message", "Listeners", "request_listener", "reply_listener",
           "payload_nbytes", "HEADER_BYTES"]

#: Fixed per-message framing overhead we account on the wire (transport
#: header + protocol framing); protocol goodput efficiency is applied on
#: top of this by each transport.
HEADER_BYTES = 64


def payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a payload object."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:  # numpy arrays and friends
        return int(nbytes)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(p) for p in payload) + 8
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()) + 8
    # Opaque control objects: a small fixed estimate.
    return 96


class Message:
    """One transport message.

    ``nbytes`` defaults to the payload's size; set it explicitly for
    virtual payloads.  ``kind`` and ``tag`` are free-form routing fields
    used by the RPC layers (service/method, request id).

    Implementation note: previously a ``@dataclass``; now a plain
    ``__slots__`` class with a hand-written constructor.  One Message is
    allocated per wire crossing, and the generated dataclass ``__init__``
    plus ``__post_init__`` and a per-instance ``__dict__`` showed up in
    run profiles (DESIGN.md §9).  The constructor signature and field
    semantics are unchanged.
    """

    __slots__ = ("src", "dst", "kind", "tag", "payload", "nbytes", "meta")

    def __init__(
        self,
        src: str,
        dst: str,
        kind: str = "data",
        tag: int = 0,
        payload: Any = None,
        nbytes: Optional[int] = None,
        meta: Optional[dict] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.tag = tag
        self.payload = payload
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        elif nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        self.nbytes = nbytes
        #: Capsule metadata, or None: a sampled request's span rides in
        #: it as ``"trace"``, for the server to adopt.
        self.meta = meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, kind={self.kind!r}, "
            f"tag={self.tag}, nbytes={self.nbytes})"
        )

    def reply_to(self, payload: Any = None, nbytes: Optional[int] = None,
                 kind: Optional[str] = None) -> "Message":
        """Build a response message addressed back to the sender.

        It carries no metadata: the server's process adopted the request's
        span (:func:`request_listener`), and the reply leg is booked on it.
        """
        return Message(
            src=self.dst,
            dst=self.src,
            kind=kind or self.kind,
            tag=self.tag,
            payload=payload,
            nbytes=nbytes,
        )


Deliver = Callable[[Message], None]


class Listeners:
    """Each endpoint's delivery function on one transport.

    The transport calls :meth:`deliver` when a message arrives and the
    service handles it right there (no mailbox, no extra kernel event).
    An endpoint has at most one listener, and a message needs one.
    """

    __slots__ = ("_fns",)

    def __init__(self, names: Iterable[str]) -> None:
        self._fns: Dict[str, Optional[Deliver]] = dict.fromkeys(names)

    def listen(self, name: str, deliver: Deliver) -> None:
        if name not in self._fns:
            raise KeyError(f"{name!r} is not an endpoint of this transport")
        if self._fns[name] is not None:
            raise RuntimeError(f"endpoint {name!r} already has a listener")
        self._fns[name] = deliver

    def deliver(self, name: str, msg: Message) -> None:
        fn = self._fns[name]
        if fn is None:
            raise RuntimeError(
                f"no listener on endpoint {name!r} for a {msg.kind!r} message")
        fn(msg)


def request_listener(env: Any, request: str, shutdown: str,
                     handle: Callable[[Message], Any], name: str) -> Deliver:
    """A server's delivery function: each ``request`` starts ``handle(msg)``
    as a process, after the events already due at its arrival instant (as a
    request taken from a queue would; on a busy core that order decides who
    runs).  The process adopts the span the capsule carries, so its work
    and its reply are the sampled request's.  Other kinds, and all after a
    ``shutdown``, are dropped."""
    live = True

    def deliver(msg: Message) -> None:
        nonlocal live
        if live and msg.kind == request:
            proc = Process(env, handle(msg), name, NORMAL)
            if msg.meta:
                proc.span = msg.meta.get("trace")
        elif msg.kind == shutdown:
            live = False

    return deliver


def reply_listener(pending: Dict[int, Any]) -> Deliver:
    """A client's delivery function: succeed the event pending on the tag
    (a reply whose call gave up at its deadline finds none: dropped)."""
    def deliver(msg: Message) -> None:
        waiter = pending.pop(msg.tag, None)
        if waiter is not None:
            waiter.succeed(msg)

    return deliver
