"""Capacity-limited resources and stores.

These are the queueing building blocks for the hardware models:

* :class:`Resource` — ``capacity`` identical servers (CPU cores, NVMe
  submission slots).  FIFO grant order.
* :class:`Store` — an unbounded FIFO of Python objects (the verbs
  completion and receive queues).

Requests and gets return events.  Requests support use as context
managers inside processes::

    with cpu.request() as req:
        yield req
        yield env.timeout(cost)

which guarantees release even if the process is interrupted while queued.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.sim.core import PENDING, Environment, Event

__all__ = [
    "Request",
    "Release",
    "Resource",
    "StoreGet",
    "Store",
]


class Request(Event):
    """Event that fires when the resource grants a slot to the requester."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def cancel(self) -> None:
        """Withdraw the request (granted slot is released, queued one dropped)."""
        self.resource.release(self)

    # Context-manager protocol: ``with res.request() as req: yield req``
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cancel()


class Release(Event):
    """Immediately-successful event produced by :meth:`Resource.release`.

    Born processed: releasing never blocks, so no kernel event is
    scheduled — a process yielding it continues at the same instant via
    the already-processed fast path.
    """

    __slots__ = ()

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self._succeed_inline()


class Resource:
    """``capacity`` identical servers granted to requests in FIFO order.

    Hot-path notes (DESIGN.md §9): an immediately-grantable request is
    born processed (no kernel event), releasing a slot removes the user
    by *swap-remove* — O(1), valid because the order of ``users`` is not
    observable — and only the FIFO *grant* order of queued requests is
    part of the contract (pinned by a regression test).
    """

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name: "str | None" = None
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def capacity(self) -> int:
        """Total number of slots."""
        return self._capacity

    @property
    def count(self) -> int:
        """Slots currently granted."""
        return len(self.users)

    def request(self) -> Request:
        """Ask for one slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Return a slot (or withdraw a queued request)."""
        users = self.users
        try:
            i = users.index(request)
        except ValueError:
            self._withdraw(request)  # queued (or stale): drop from the queue
        else:
            # Swap-remove: O(1); ``users`` order is not observable.
            last = users.pop()
            if last is not request:
                users[i] = last
            self._grant_next()
        return Release(self.env)

    # -- internals ----------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request._succeed_inline()
        else:
            wt = self.env._wait_tracer
            if wt is not None and self.env._active.span is not None:
                wt.begin_block(request, self.name)
            self.queue.append(request)

    def _withdraw(self, request: Request) -> None:
        """Remove a queued (never granted) request; no-op if unknown."""
        try:
            self.queue.remove(request)
        except ValueError:
            pass  # releasing twice is a no-op by design
        else:
            wt = self.env._wait_tracer
            if wt is not None and request in wt.blocked:
                wt.cancel_block(request)

    def _grant_next(self) -> None:
        wt = self.env._wait_tracer
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            if wt is not None and nxt in wt.blocked:
                wt.end_block(nxt)
            nxt.succeed()


class StoreGet(Event):
    """Fires with the retrieved item as its value."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        # Flattened Event.__init__ (no super() frame): one StoreGet is
        # allocated per delivered completion — a top-five allocation site.
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        store._do_get(self)


class Store:
    """Unbounded FIFO store of arbitrary items.

    A put never waits, so it is a plain call; a get is an event, born
    processed when an item is there (no kernel event: the yielding
    process continues inline at the same simulated time) and parked in
    FIFO order otherwise, until a put hands it the item.
    """

    def __init__(self, env: Environment, name: "str | None" = None) -> None:
        self.env = env
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Add ``item``, handing it to the oldest parked get if any."""
        if self._getters:
            getter = self._getters.popleft()
            wt = self.env._wait_tracer
            if wt is not None and getter in wt.blocked:
                wt.end_block(getter)
            getter.succeed(item)
        else:
            self.items.append(item)

    def get(self) -> StoreGet:
        """Take the oldest item; fires when one is available."""
        return StoreGet(self)

    # -- internals ----------------------------------------------------------
    def _do_get(self, event: StoreGet) -> None:
        if self.items:
            event._succeed_inline(self.items.popleft())
        else:
            wt = self.env._wait_tracer
            if wt is not None and self.env._active.span is not None:
                wt.begin_block(event, self.name)
            self._getters.append(event)
