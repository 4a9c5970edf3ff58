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
* Processed :class:`Timeout` objects that provably have no remaining
  references (checked with ``sys.getrefcount``) are parked on a bounded
  free-list and recycled by :meth:`Environment.timeout`, cutting the
  dominant allocation of the simulation (one Timeout per service
  reservation).  An event that *anything* still references — a condition,
  user code — is never recycled, so the optimisation is invisible to
  correctness.
* :attr:`Environment.events_processed` counts every dispatched event so
  telemetry and the run ledger's ``cost`` section
  (:func:`repro.bench.ledger.cost_section`) can report events-per-IO, the
  simulator's native cost metric.
"""

from __future__ import annotations

from gc import disable as gc_disable, enable as gc_enable, isenabled as gc_isenabled
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.registry import Registry

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "SimulationError",
    "Interrupt",
    "StopProcess",
    "Event",
    "Timeout",
    "Process",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
    "Environment",
    "tie_scramble",
]

#: Sentinel for an event that has not yet been triggered.
PENDING = object()

#: Scheduling priority for events that must run before same-time events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: Upper bound on the Timeout free-list (plenty for the deepest pipelines
#: while keeping a dormant Environment's footprint trivial).
_FREELIST_MAX = 128

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


class StopProcess(Exception):
    """Raised internally to abort a process from outside (rarely needed)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process may catch it and continue; the event it was
    waiting on stays valid and may be re-yielded.
    """

    @property
    def cause(self) -> Any:
        """The ``cause`` object passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


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
        env._eid += 1
        ts = env._tie_scramble
        heappush(env._queue,
                 (env._now, priority,
                  env._eid if ts is None else ts(env._eid), self))
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

    def trigger(self, event: "Event") -> None:
        """Mirror another event's outcome (used for chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self._defused = True
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._value is PENDING else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._eid += 1
        ts = env._tie_scramble
        heappush(env._queue,
                 (env._now + delay, NORMAL,
                  env._eid if ts is None else ts(env._eid), self))


class Initialize(Event):
    """Event that starts a freshly created :class:`Process` (urgent by default)."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process",
                 priority: int = URGENT) -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._rcb)
        env._eid += 1
        ts = env._tie_scramble
        heappush(env._queue,
                 (env._now, priority,
                  env._eid if ts is None else ts(env._eid), self))


class _InterruptEvent(Event):
    """Urgent event delivering an :class:`Interrupt` into a process."""

    __slots__ = ("process",)

    def __init__(self, env: "Environment", process: "Process", cause: Any) -> None:
        super().__init__(env)
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(self._deliver)
        env.schedule(self, 0.0, URGENT)

    def _deliver(self, event: "Event") -> None:
        proc = self.process
        if proc.triggered:  # process already finished; drop the interrupt
            return
        # Detach the process from whatever it is waiting on, then resume it
        # with the Interrupt exception.
        target = proc._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(proc._rcb)
            except ValueError:
                pass
        proc._target = None
        proc._resume(self)


class Process(Event):
    """A running generator; itself an event that fires when the generator ends.

    The value of the process-event is the generator's return value; if the
    generator raises, the process fails with that exception.
    """

    __slots__ = ("generator", "_target", "name", "_rcb")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
        priority: int = URGENT,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
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

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        _InterruptEvent(self.env, self, cause)

    # -- dispatch ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        env._active = self
        generator = self.generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_event = generator.throw(exc)
            except StopIteration as stop:
                env._active = None
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
                return
            except StopProcess:
                env._active = None
                self._ok = True
                self._value = None
                if self.callbacks:
                    env.schedule(self, 0.0, URGENT)
                else:
                    self.callbacks = None
                return
            except BaseException as exc:  # noqa: BLE001 - failure propagates
                env._active = None
                self._ok = False
                self._value = exc
                env.schedule(self, 0.0, URGENT)
                return

            try:
                cbs = next_event.callbacks
            except AttributeError:
                env._active = None
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                ) from None
            if cbs is not None:
                # Still pending or scheduled: park until it is processed.
                # (The cross-environment guard lives on this branch only —
                # an already-processed event carries no scheduling state, so
                # the hot inline path skips both checks.)
                if next_event.env is not env:
                    env._active = None
                    raise SimulationError(
                        f"process {self.name!r} yielded an event "
                        f"from another environment"
                    )
                cbs.append(self._rcb)
                self._target = next_event
                break
            # Already processed: loop immediately with its value.
            event = next_event
        env._active = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class ConditionEvent(Event):
    """Base class for :class:`AllOf` / :class:`AnyOf` composite waits."""

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


class AnyOf(ConditionEvent):
    """Fires as soon as *any* constituent event fires.

    Value is a ``{event: value}`` mapping of the events fired so far.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
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

    __slots__ = ("_now", "_queue", "_eid", "_active",
                 "_events_processed", "_tfree", "_timeouts_recycled",
                 "_wait_tracer", "_tie_scramble", "_faults", "components")

    def __init__(self, initial_time: float = 0.0,
                 tie_seed: Optional[int] = None) -> None:
        self._now = float(initial_time)
        #: Tie-break scrambler (race-sanitizer mode) or None.  When set,
        #: every heap push keys same-time, same-priority events by a
        #: seeded permutation of the sequence number instead of FIFO —
        #: the same zero-cost-when-off idiom as ``_wait_tracer``.
        self._tie_scramble: Optional[Callable[[int], int]] = (
            None if tie_seed is None else tie_scramble(tie_seed))
        self._queue: list = []
        self._eid = 0
        self._active: Optional[Process] = None
        #: Total events dispatched by this environment.
        self._events_processed = 0
        #: Free-list of recyclable Timeout objects (bounded).
        self._tfree: list = []
        #: How many Timeout allocations the free-list saved (telemetry).
        self._timeouts_recycled = 0
        #: Wait-cause tracer (:class:`repro.sim.waits.WaitTracer`) or None.
        #: Hot paths pay one ``is not None`` test when no tracer is
        #: installed, mirroring station ``_stats``.
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

    @property
    def timeouts_recycled(self) -> int:
        """Timeout allocations avoided via the free-list (perf accounting)."""
        return self._timeouts_recycled

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after ``delay`` seconds.

        Recycles a processed Timeout from the free-list when one is
        available — the dominant allocation of a simulated run is one
        Timeout per service reservation, and the run loop only parks an
        event here once ``sys.getrefcount`` proves nothing else can
        observe it.
        """
        wt = self._wait_tracer
        if wt is not None:
            wt.on_timeout(delay)
        tfree = self._tfree
        if tfree:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            # A recycled Timeout is always a cleanly-fired one (Timeouts
            # cannot fail and are only parked after a clean dispatch), so
            # ``_ok``/``_defused`` still hold their required values.
            t = tfree.pop()
            t.callbacks = []
            t._value = value
            t.delay = delay
            self._eid += 1
            ts = self._tie_scramble
            heappush(self._queue,
                     (self._now + delay, NORMAL,
                      self._eid if ts is None else ts(self._eid), t))
            self._timeouts_recycled += 1
            return t
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
        if wt is not None:
            wt.on_timeout(when - now)
        tfree = self._tfree
        if tfree:
            t = tfree.pop()
            t.callbacks = []
            self._timeouts_recycled += 1
        else:
            t = Timeout.__new__(Timeout)
            t.env = self
            t.callbacks = []
            t._defused = False
            t._ok = True
        t._value = value
        t.delay = when - now
        self._eid += 1
        ts = self._tie_scramble
        heappush(self._queue,
                 (when, NORMAL,
                  self._eid if ts is None else ts(self._eid), t))
        return t

    def call_at(self, when: float, callback: Callable[[Event], None]) -> Timeout:
        """Run ``callback(event)`` at *absolute* simulated time ``when``.

        The one way to arm a model-internal timer that no process sleeps
        on (a pipe's next transfer finish, an RPC client's next deadline).
        It is scheduled exactly like ``timeout_until(when)`` but is never
        reported to the wait tracer: booking it as a ``(sleep)`` would
        charge the span of whichever process happened to arm it.  The
        owner tells a superseded timer from its live one by identity.
        """
        now = self._now
        if when < now:
            raise ValueError(f"call_at({when}) lies in the past (now={now})")
        # The body of ``timeout_until`` minus the tracer hook, inlined
        # like the kernel's other push sites.
        tfree = self._tfree
        if tfree:
            t = tfree.pop()
            self._timeouts_recycled += 1
        else:
            t = Timeout.__new__(Timeout)
            t.env = self
            t._defused = False
            t._ok = True
        t.callbacks = [callback]
        t._value = None
        t.delay = when - now
        self._eid += 1
        ts = self._tie_scramble
        heappush(self._queue,
                 (when, NORMAL,
                  self._eid if ts is None else ts(self._eid), t))
        return t

    def process(self, generator: Generator[Event, Any, Any],
                name: Optional[str] = None, priority: int = URGENT) -> Process:
        """Start ``generator`` as a new process: before the other events due
        now, or after them (FIFO) with ``priority=NORMAL``."""
        return Process(self, generator, name=name, priority=priority)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Wait for every event in ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Wait for the first event in ``events``."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Insert ``event`` into the event list ``delay`` seconds from now."""
        self._eid += 1
        ts = self._tie_scramble
        heappush(self._queue,
                 (self._now + delay, priority,
                  self._eid if ts is None else ts(self._eid), event))

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
        sentinel event, if any.  Heap pop, callback fan-out and Timeout
        recycling happen inline with the loop-invariant lookups (queue,
        free-list, ``heappop``) hoisted into locals.

        The cyclic garbage collector is paused for the duration of the
        loop (and restored on exit, including on error): a simulation turn
        allocates heavily — events, heap tuples, generator frames — and
        CPython's generation-0 collections otherwise trigger every ~700
        allocations, costing ~10% of wall time.  Reference cycles
        (process → generator → frame) are rare and small; they are
        reclaimed by the next enabled collection after the run returns.
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
        tfree = self._tfree
        pop = heappop
        n = 0
        gc_was_enabled = gc_isenabled()
        if gc_was_enabled:
            gc_disable()
        try:
            while queue and queue[0][0] <= horizon:
                when, _prio, _eid, event = pop(queue)
                self._now = when
                n += 1
                callbacks = event.callbacks
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
                if (type(event) is Timeout and len(tfree) < _FREELIST_MAX
                        and getrefcount(event) == 2):
                    tfree.append(event)
            if sentinel is not None:
                raise SimulationError(
                    "event list empty but the awaited event never fired")
            if until is not None:
                self._now = horizon
            return None
        finally:
            self._events_processed += n
            if gc_was_enabled:
                gc_enable()
