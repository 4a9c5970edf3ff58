"""Core discrete-event simulation primitives.

The kernel follows the classic event-list design: a binary heap keyed by
``(time, priority, sequence)`` holds scheduled events; :meth:`Environment.run`
pops one event at a time, advances the clock and runs its callbacks.
Processes are plain Python generators that ``yield`` events; the kernel
resumes a process when the yielded event is processed, sending the event's
value back into the generator (or throwing its exception).

The implementation is deliberately small and allocation-conscious — the
hardware models in :mod:`repro.hw` push hundreds of thousands of events per
simulated run, and the guides for this domain stress keeping the interpreter
out of hot loops wherever possible (``__slots__`` everywhere, no closures in
the dispatch path).

Hot-loop design notes (see DESIGN.md §9 for the event-cost budget):

* :meth:`Environment.run` is the only dispatch loop: one inline
  pop/dispatch body, bounded by a horizon and an optional sentinel event,
  with no Python frame per event.
* Every heap push draws its tie-break key from one iterator,
  :attr:`Environment._eids`: the sequence numbers 1, 2, 3, ... (FIFO
  among same-time, same-priority events), or their seeded permutation
  under the race sanitizer (:func:`tie_scramble`).  ``next()`` on it
  costs no Python frame.
* :meth:`Environment.cancel` withdraws a timer in place: the loop pops
  an entry whose callbacks are gone and skips it, so a timer that would
  run no model code costs no dispatch.
* :attr:`Environment.events_processed` counts every dispatched event so
  telemetry and the run ledger's ``cost`` section
  (:func:`repro.bench.ledger.cost_section`) can report events-per-IO, the
  simulator's native cost metric.
* A finished process holds no reference cycle.  Whether it returns or
  raises, it drops its resume callback (a bound method, so a reference
  back to itself) and the event it last waited on.  Reference counting
  then frees the process, its generator and its frame as soon as the
  request it served ends, and its last Timeout with them.
  Memory per cell follows the requests in flight, not those completed,
  although :meth:`Environment.run` pauses the cycle collector.
"""

from __future__ import annotations

from gc import disable as gc_disable, enable as gc_enable, isenabled as gc_isenabled
from heapq import heappop, heappush
from itertools import count
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from repro.sim.registry import Registry

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "ConditionEvent",
    "AllOf",
    "Environment",
    "tie_scramble",
]

#: Sentinel for an event that has not yet been triggered.
PENDING = object()

#: Scheduling priority for events that must run before same-time events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

_TIE_MASK = (1 << 64) - 1


def _keep_scheduled(event: "Event") -> None:
    """No-op waiter: an event with a callback is dispatched via the heap."""


def tie_scramble(seed: int) -> Callable[[int], int]:
    """A seeded bijection on 64-bit ints, used as the heap tie-break key.

    The event heap orders entries by ``(time, priority, key)`` where
    ``key`` is normally the monotone event sequence number — FIFO among
    same-time, same-priority events.  The race sanitizer
    (:mod:`repro.analysis.sanitizer`) replaces ``key`` with this scramble
    of the sequence number: a pseudo-random *permutation* of the
    tie-break order, different per seed, with no possibility of key
    collisions (odd-multiplier modular multiplication is bijective, so
    heap tuples never fall through to comparing Event objects).  Events
    at distinct times or priorities are completely unaffected.
    """
    salt = (int(seed) * 0x9E3779B1) & _TIE_MASK
    mult = ((2 * int(seed) + 1) * 0x9E3779B97F4A7C15 | 1) & _TIE_MASK

    def scramble(eid: int, _salt: int = salt, _mult: int = mult) -> int:
        return ((eid ^ _salt) * _mult) & _TIE_MASK

    return scramble


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, yield of foreign events...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process may catch it and continue; the event it was
    waiting on stays valid and may be re-yielded.
    """


class Event:
    """An outcome that will happen at some point in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` schedules them,
    and once the environment processes them every callback in
    :attr:`callbacks` runs exactly once.  Processes wait on events by
    yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks ``fn(event)`` invoked when the event is processed.
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or will be) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if still pending."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined ``env.schedule(self, 0.0, priority)`` — succeed() is on
        # the wake-up path of every store/resource grant.
        env = self.env
        heappush(env._queue, (env._now, priority, next(env._eids), self))
        return self

    def _succeed_inline(self, value: Any = None) -> "Event":
        """Succeed *and* mark processed without scheduling a kernel event.

        Only valid while no callback has been attached (i.e. straight from
        the event's constructor, before it is handed to the caller): a
        process that later yields the event takes the already-processed
        fast path in :meth:`Process._resume` and continues at the same
        simulated instant the scheduled event would have delivered — one
        heap operation and one dispatch cheaper.  Used by the resource
        layer for requests/puts/gets that are satisfiable immediately
        (see DESIGN.md §9).
        """
        self._ok = True
        self._value = value
        self.callbacks = None
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have ``exception`` thrown into
        it.  If nobody waits, the exception surfaces from
        :meth:`Environment.run` unless :meth:`defused` was set.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, 0.0, priority)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._value is PENDING else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Event's fields, set here: no super() call per allocation.
        self.env = env
        self.callbacks = []
        self._defused = False
        self._ok = True
        self._value = value
        heappush(env._queue, (env._now + delay, NORMAL, next(env._eids), self))


class Initialize(Event):
    """Event that starts a freshly created :class:`Process` (urgent by default)."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process",
                 priority: int = URGENT) -> None:
        self.env = env
        self.callbacks = [process._rcb]
        self._defused = False
        self._ok = True
        self._value = None
        heappush(env._queue, (env._now, priority, next(env._eids), self))


class _InterruptEvent(Event):
    """Urgent event delivering an :class:`Interrupt` into a process."""

    __slots__ = ("process",)

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.process = process
        self._ok = False
        self._value = Interrupt()
        self._defused = True
        self.callbacks.append(self._deliver)
        env.schedule(self, 0.0, URGENT)

    def _deliver(self, event: "Event") -> None:
        # Like ``Process._resume``, both exits drop the process and clear
        # the locals: if the process fails, its exception's traceback holds
        # this frame, which would otherwise lead back to the process.
        proc = self.process
        self.process = None
        if proc.triggered:  # process already finished; drop the interrupt
            self = event = proc = None
            return
        # Detach the process from whatever it is waiting on, then resume it
        # with the Interrupt exception.
        target = proc._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(proc._rcb)
            except ValueError:
                pass
        proc._target = target = None
        proc._resume(self)
        self = event = proc = None


class Process(Event):
    """A running generator; itself an event that fires when the generator ends.

    The value of the process-event is the generator's return value; if the
    generator raises, the process fails with that exception.

    ``span`` is the sampled request span the process is working for, or
    None: the one place the open span is kept.  A process starts with
    none; a :class:`~repro.sim.spans.Span` opened in it becomes its span
    until it finishes, and whoever forks a process for a request, or
    starts one for a request that arrived, hands it the request's span.
    """

    __slots__ = ("generator", "_target", "name", "_rcb", "span")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
        priority: int = URGENT,
    ) -> None:
        if type(generator) is not GeneratorType and (
                not hasattr(generator, "send") or not hasattr(generator, "throw")):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        self.span = None
        #: The bound ``_resume`` method, materialised once: every suspension
        #: appends it to the awaited event's callback list, and building a
        #: fresh bound method per suspension is a measurable allocation in
        #: long runs.
        self._rcb = self._resume
        Initialize(env, self, priority)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    def interrupt(self) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        _InterruptEvent(self.env, self)

    # -- dispatch ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # A finished process keeps no cycle (module notes).  Both exits
        # drop the bound method pointing back at it and the event it last
        # waited on, so reference counting frees them.  An exception's
        # traceback can hold this frame — the raiser's directly, a
        # catcher's through its generator frame — so both exits also
        # clear the locals that would lead back to the process.
        env = self.env
        env._active = self
        generator = self.generator
        while True:
            try:
                if event._ok:
                    event = generator.send(event._value)
                else:
                    event._defused = True
                    event = generator.throw(event._value)
            except StopIteration as stop:
                env._active = None
                self._rcb = self._target = None
                self._ok = True
                self._value = stop.value
                if self.callbacks:
                    env.schedule(self, 0.0, URGENT)
                else:
                    # Nobody is waiting on this process: mark it processed
                    # inline instead of scheduling a no-op event.  A later
                    # ``yield proc`` takes the already-processed fast path
                    # with the same value at the same simulated time.
                    self.callbacks = None
                self = event = None
                return
            except BaseException as exc:  # noqa: BLE001 - failure propagates
                env._active = None
                self._rcb = self._target = None
                self._ok = False
                self._value = exc
                env.schedule(self, 0.0, URGENT)
                self = event = None
                return

            try:
                cbs = event.callbacks
            except AttributeError:
                env._active = None
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {event!r}"
                ) from None
            if cbs is not None:
                # Still pending or scheduled: park until it is processed.
                # (The cross-environment guard lives on this branch only —
                # an already-processed event carries no scheduling state, so
                # the hot inline path skips both checks.)
                if event.env is not env:
                    env._active = None
                    raise SimulationError(
                        f"process {self.name!r} yielded an event "
                        f"from another environment"
                    )
                cbs.append(self._rcb)
                self._target = event
                break
            # Already processed: loop immediately with its value.
        env._active = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class ConditionEvent(Event):
    """Base class for composite waits such as :class:`AllOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = tuple(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different environments")
        self._pending = len(self.events)
        if self._pending == 0:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict:
        # An event has *fired* once its callbacks ran (Timeouts carry their
        # value from construction, so testing the value would be wrong).
        return {ev: ev._value for ev in self.events if ev.callbacks is None and ev._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Fires once *all* constituent events have fired.

    Value is a ``{event: value}`` mapping.  Fails fast if any constituent
    fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class Environment:
    """The simulation clock and event loop.

    Typical use::

        env = Environment()

        def producer(env, store):
            while True:
                yield env.timeout(1.0)
                yield store.put("item")

        env.process(producer(env, store))
        env.run(until=100.0)
    """

    __slots__ = ("_now", "_queue", "_eids", "_active",
                 "_events_processed", "_wait_tracer", "_faults", "components")

    def __init__(self, tie_seed: Optional[int] = None) -> None:
        self._now = 0.0
        self._queue: list = []
        #: The heap's tie-break keys, one per push: the sequence numbers
        #: 1, 2, 3, ... (FIFO among same-time, same-priority events), or
        #: under the race sanitizer (``tie_seed``) their seeded
        #: permutation.
        self._eids: Iterator[int] = (
            count(1) if tie_seed is None
            else map(tie_scramble(tie_seed), count(1)))
        self._active: Optional[Process] = None
        #: Total events dispatched by this environment.
        self._events_processed = 0
        #: Wait-cause tracer (:class:`repro.sim.waits.WaitTracer`) or None.
        #: Hot paths pay one ``is not None`` test when no tracer is
        #: installed.
        self._wait_tracer = None
        #: Fault injector (:class:`repro.faults.plan.FaultInjector`) or
        #: None.  Injection points and recovery loops pay one ``is not
        #: None`` test when chaos is off — same contract as the tracer.
        self._faults = None
        #: Every component built in this environment (sim/registry.py).
        self.components = Registry()

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing (None outside process context)."""
        return self._active

    @property
    def events_processed(self) -> int:
        """Total events dispatched so far (consistent at run boundaries).

        Telemetry divides this by completed IOs to report *events/IO*, the
        simulator's native cost metric (see DESIGN.md §9).
        """
        return self._events_processed

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after ``delay`` seconds (a sleep the
        wait tracer books)."""
        wt = self._wait_tracer
        if wt is not None and (self._active.span is not None or wt.claimed):
            wt.on_timeout(delay)
        return Timeout(self, delay, value)

    def timeout_until(self, when: float, value: Any = None) -> Timeout:
        """Create an event firing at *absolute* simulated time ``when``.

        Unlike ``timeout(when - now)`` this is exact: the event fires at
        the float ``when`` itself, with no re-rounding through a delay.
        Transport layers use it to merge consecutive pure-delay sleeps
        (e.g. stack latency + switch propagation) into a single kernel
        event whose fire time is bit-identical to the chained sleeps.
        """
        now = self._now
        if when < now:
            raise ValueError(f"timeout_until({when}) lies in the past (now={now})")
        wt = self._wait_tracer
        if wt is not None and (self._active.span is not None or wt.claimed):
            wt.on_timeout(when - now)
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._defused = False
        t._ok = True
        t._value = value
        heappush(self._queue, (when, NORMAL, next(self._eids), t))
        return t

    def call_at(self, when: float, callback: Callable[[Event], None]) -> Timeout:
        """Run ``callback(event)`` at *absolute* simulated time ``when``.

        The one way to arm a model-internal timer that no process sleeps
        on (a pipe's next transfer finish, an RPC client's next deadline).
        It is scheduled exactly like ``timeout_until(when)`` but is never
        reported to the wait tracer: booking it as a ``(sleep)`` would
        charge the span of whichever process happened to arm it.  An
        owner that moves its timer withdraws the old one with
        :meth:`cancel`.
        """
        now = self._now
        if when < now:
            raise ValueError(f"call_at({when}) lies in the past (now={now})")
        # The body of ``timeout_until`` minus the tracer hook.
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = [callback]
        t._defused = False
        t._ok = True
        t._value = None
        heappush(self._queue, (when, NORMAL, next(self._eids), t))
        return t

    def cancel(self, timer: Timeout) -> None:
        """Withdraw a :meth:`call_at` timer; one that already fired is left.

        The timer keeps its heap entry, and so its sequence number, and no
        other event's key or order changes.  :meth:`run` drops the entry
        when it reaches the top: it runs no callback, is not counted in
        :attr:`events_processed` and does not move the clock.
        """
        timer.callbacks = None

    def process(self, generator: Generator[Event, Any, Any],
                name: Optional[str] = None, priority: int = URGENT) -> Process:
        """Start ``generator`` as a new process: before the other events due
        now, or after them (FIFO) with ``priority=NORMAL``."""
        return Process(self, generator, name=name, priority=priority)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Wait for every event in ``events``."""
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Insert ``event`` into the event list ``delay`` seconds from now."""
        heappush(self._queue,
                 (self._now + delay, priority, next(self._eids), event))

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        * ``until`` is ``None`` — run until the event list drains.
        * ``until`` is a number — run all events scheduled up to and
          including that time, then set the clock to it.
        * ``until`` is an :class:`Event` — run until that event is processed
          and return its value (raising if it failed, and raising
          :class:`SimulationError` if the event list drains first).

        Every mode runs the same fused dispatch loop, bounded by a horizon
        (``inf`` unless ``until`` is a number) and stopped early by the
        sentinel event, if any.  Heap pop and callback fan-out happen
        inline with the loop-invariant lookups (queue, ``heappop``)
        hoisted into locals.

        The cyclic garbage collector is paused for the duration of the
        loop (and restored on exit, including on error): a simulation turn
        allocates heavily — events, heap tuples, generator frames — and
        CPython's generation-0 collections otherwise trigger every ~700
        allocations, costing ~10% of wall time.  The pause is safe because
        a finished process releases its resume callback and its last
        awaited event (see :meth:`Process._resume`), so the processes that
        served a request leave no cycle behind.  The paused collector
        meets only the cycles of long-lived state, one set per session
        and per injected fault, and the next enabled collection after
        the run reclaims them.  A failed process's traceback reaches this
        frame, so on exit the loop also drops the last event it
        dispatched.
        """
        sentinel: Optional[Event] = None
        horizon = float("inf")
        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is None:  # already processed
                if not sentinel._ok:
                    raise sentinel._value
                return sentinel._value
            # A waiter keeps the sentinel on the heap: a process nobody
            # else awaits would otherwise end inline, never dispatched.
            sentinel.callbacks.append(_keep_scheduled)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} lies in the past (now={self._now})")
        queue = self._queue
        pop = heappop
        n = 0
        gc_was_enabled = gc_isenabled()
        if gc_was_enabled:
            gc_disable()
        try:
            while queue and queue[0][0] <= horizon:
                when, _prio, _key, event = pop(queue)
                callbacks = event.callbacks
                if callbacks is None:  # cancelled
                    continue
                self._now = when
                n += 1
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    exc = event._value
                    raise exc if isinstance(exc, BaseException) \
                        else SimulationError(repr(exc))
                if event is sentinel:
                    if not event._ok:
                        event._defused = True
                        raise event._value
                    return event._value
            if sentinel is not None:
                raise SimulationError(
                    "event list empty but the awaited event never fired")
            if until is not None:
                self._now = horizon
            return None
        finally:
            # A failed process's traceback reaches this frame; let it
            # keep no dispatched event (see the docstring).
            event = callbacks = callback = None
            self._events_processed += n
            if gc_was_enabled:
                gc_enable()
