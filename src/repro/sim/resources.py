"""Capacity-limited resources, stores and containers.

These are the queueing building blocks for the hardware models:

* :class:`Resource` — ``capacity`` identical servers (CPU cores, NVMe
  submission slots).  FIFO grant order.
* :class:`Store` — an unbounded/bounded FIFO of Python objects (message
  queues, completion queues).
* :class:`Container` — a continuous level (bytes of buffer pool, tokens).

All request/put/get operations return events.  Requests support use as
context managers inside processes::

    with cpu.request() as req:
        yield req
        yield env.timeout(cost)

which guarantees release even if the process is interrupted while queued.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.sim.core import PENDING, Environment, Event, SimulationError

__all__ = [
    "Request",
    "Release",
    "Resource",
    "StorePut",
    "StoreGet",
    "Store",
    "ContainerPut",
    "ContainerGet",
    "Container",
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

    def __init__(self, env: Environment, capacity: int = 1,
                 name: "str | None" = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
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
            if wt is not None:
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
            if wt is not None:
                wt.cancel_block(request)

    def _grant_next(self) -> None:
        wt = self.env._wait_tracer
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            if wt is not None:
                wt.end_block(nxt)
            nxt.succeed()


class StorePut(Event):
    """Fires when the item has been accepted into the store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        # Flattened Event.__init__ (no super() frame): one StorePut is
        # allocated per delivered message — a top-five allocation site.
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.item = item
        store._do_put(self)


class StoreGet(Event):
    """Fires with the retrieved item as its value."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        # Flattened Event.__init__ (see StorePut).
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        store._do_get(self)


class Store:
    """FIFO store of arbitrary items with optional capacity bound."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 name: "str | None" = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Offer ``item``; fires when there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Take the oldest item; fires when one is available."""
        return StoreGet(self)

    # -- internals ----------------------------------------------------------
    # Immediately-satisfiable puts/gets are born processed (no kernel
    # event): the freshly-constructed event has no callbacks yet, so the
    # yielding process continues inline at the same simulated time.
    # Parked counterparts woken here (``putter``/``getter``) *do* have a
    # waiter attached and are scheduled normally via ``succeed``.
    def _do_put(self, event: StorePut) -> None:
        if self._getters:
            getter = self._getters.popleft()
            wt = self.env._wait_tracer
            if wt is not None:
                wt.end_block(getter)
            getter.succeed(event.item)
            event._succeed_inline()
        elif len(self.items) < self.capacity:
            self.items.append(event.item)
            event._succeed_inline()
        else:
            wt = self.env._wait_tracer
            if wt is not None:
                wt.begin_block(event, self.name)
            self._putters.append(event)

    def _do_get(self, event: StoreGet) -> None:
        if self.items:
            item = self.items.popleft()
            event._succeed_inline(item)
            if self._putters and len(self.items) < self.capacity:
                putter = self._putters.popleft()
                wt = self.env._wait_tracer
                if wt is not None:
                    wt.end_block(putter)
                self.items.append(putter.item)
                putter.succeed()
        elif self._putters:
            putter = self._putters.popleft()
            wt = self.env._wait_tracer
            if wt is not None:
                wt.end_block(putter)
            event._succeed_inline(putter.item)
            putter.succeed()
        else:
            wt = self.env._wait_tracer
            if wt is not None:
                wt.begin_block(event, self.name)
            self._getters.append(event)


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._do_put(self)


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._do_get(self)


class Container:
    """A continuous quantity with blocking put/get (token buckets, pools)."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: "str | None" = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init={init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
        self._level = float(init)
        self._putters: Deque[ContainerPut] = deque()
        self._getters: Deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount``; fires once it fits under ``capacity``."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Remove ``amount``; fires once the level covers it."""
        return ContainerGet(self, amount)

    # -- internals ----------------------------------------------------------
    def _do_put(self, event: ContainerPut) -> None:
        if self._level + event.amount <= self.capacity:
            self._level += event.amount
            event._succeed_inline()
            self._serve_getters()
        else:
            wt = self.env._wait_tracer
            if wt is not None:
                wt.begin_block(event, self.name)
            self._putters.append(event)

    def _do_get(self, event: ContainerGet) -> None:
        if event.amount <= self._level:
            self._level -= event.amount
            event._succeed_inline()
            self._serve_putters()
        else:
            if event.amount > self.capacity:
                event.fail(
                    SimulationError(
                        f"get({event.amount}) exceeds container capacity {self.capacity}"
                    )
                )
                return
            wt = self.env._wait_tracer
            if wt is not None:
                wt.begin_block(event, self.name)
            self._getters.append(event)

    def _serve_getters(self) -> None:
        wt = self.env._wait_tracer
        while self._getters and self._getters[0].amount <= self._level:
            g = self._getters.popleft()
            self._level -= g.amount
            if wt is not None:
                wt.end_block(g)
            g.succeed()

    def _serve_putters(self) -> None:
        wt = self.env._wait_tracer
        while self._putters and self._level + self._putters[0].amount <= self.capacity:
            p = self._putters.popleft()
            self._level += p.amount
            if wt is not None:
                wt.end_block(p)
            p.succeed()
