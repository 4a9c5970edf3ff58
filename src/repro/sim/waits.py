"""Wait-cause attribution: *why* was each process blocked, and on what?

Spans (:mod:`repro.sim.spans`) say **where** in the request path simulated
time went; this module says **what each stage was waiting on**.  While a
:class:`WaitTracer` is installed on an :class:`~repro.sim.core.Environment`,
every primitive that makes a process give up the CPU reports a wait event:

* **reserve** — a :class:`~repro.sim.queues.FifoServer` /
  :class:`~repro.sim.queues.PooledServer` /
  :class:`~repro.sim.queues.BandwidthPipe` reservation.  The split into
  queueing delay (``wait``), occupancy (``service``) and post-service sleep
  (``latency``) is analytically exact — reservation servers compute all
  three before scheduling the single wake-up event.
* **block** — a parked :class:`~repro.sim.resources.Resource`
  request, :class:`~repro.sim.resources.Store` get or
  :class:`~repro.hw.dram.DramPool` allocation, measured from park to
  grant.
* **sleep** — a plain ``env.timeout`` not claimed by any primitive (pure
  delays: switch propagation, polling intervals, think time).

Each event is tagged with the *active span* of the process that waited
(its :attr:`~repro.sim.core.Process.span`: the innermost span still open
in it, or the request span it was handed), so every span decomposes as
``duration = service + Σ wait(resource_i)`` and the latency breakdown gains
a per-resource blame column.

Design rules (shared with spans):

* **Cost only for what it keeps** — every hook site guards with one
  ``env._wait_tracer is not None`` attribute test, and then calls the
  tracer only for a process with a span open (a sampled request).  An
  unsampled request never reaches the tracer.  The kernel also reports a
  timeout while a claim (:meth:`WaitTracer.claim`) is pending, so a claim
  is always consumed by the sleep that follows it.
* **Pure observation** — the tracer never schedules events or perturbs
  wake-up order; a traced run dispatches the events an untraced one does
  and is bit-identical to it.  Where a model spends one event on what
  the reference spent several on, it books the reference's records in
  closed form with :meth:`WaitTracer.book`, at the instants the
  reference would have reached: a merged hop after it wakes, a
  :class:`~repro.sim.queues.BandwidthPipe` each chunk slot once it can
  no longer be undone (see DESIGN.md §9/§10).
* **Bounded memory** — a record is a row, not an object: the span id
  and an interned ``(resource, kind, stage)`` code in an ``array('q')``,
  ``wait``, ``service``, ``latency`` and ``t`` in an ``array('d')``.
  That is 48 B of columns (~51 B with their slack) where a
  ``WaitRecord`` object cost ~146 B, and it keeps no span alive.  The
  rows stop growing at :attr:`WaitTracer.MAX_RECORDS` (the drop count
  is reported).

The tracer keeps :attr:`WaitTracer.records`, the span-attributed events
of sampled requests, each read back as a :class:`WaitRow`.  A record
carries the stage of the span it was booked on, so a span that never
finishes (a ``media.nvme`` read a media error cut short) still folds
its records under its own stage.  They feed the blame ranking, the
per-span decomposition, the wait-weighted flamegraphs and the
cumulative wait tracks (:meth:`WaitTracer.wait_series`).  Counts over
*all* operations are each station's own (``busy_time``, ``ops``).
"""

from __future__ import annotations

from array import array
from itertools import islice
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Collection, Dict, Iterator,
                    List, NamedTuple, Optional, Tuple)

from repro.sim.rows import Rows
from repro.sim.timeseries import GAUGE, TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.sim.spans import Span

__all__ = ["WaitTracer", "WaitRow",
           "RESERVE", "BLOCK", "SLEEP", "SLEEP_RESOURCE", "ANON_RESOURCE"]

_new = tuple.__new__

#: Record kinds.
RESERVE = "reserve"
BLOCK = "block"
SLEEP = "sleep"

#: Pseudo-resource for unclaimed timeouts (pure delays).
SLEEP_RESOURCE = "(sleep)"
#: Fallback for primitives constructed without a name.
ANON_RESOURCE = "(anon)"


class WaitRow(NamedTuple):
    """One span-attributed wait event, read back from its tracer row.

    ``wait`` is time spent queued (or parked, for blocks), ``service`` is
    time occupying the resource, ``latency`` is a post-service fixed delay
    (device access latency, pipe propagation, pure sleeps).  ``total``
    is the simulated time the waiting process gave up for this event.
    ``t`` is the instant it was recorded (reserve: at reservation;
    block: at grant); ``span_id`` and ``stage`` name the span it was
    booked on.
    """

    span_id: int
    resource: str
    kind: str
    wait: float
    service: float
    latency: float
    t: float
    stage: str

    @property
    def total(self) -> float:
        return self.wait + self.service + self.latency


class WaitTracer:
    """Records wait causes for one environment while installed.

    Usage::

        tracer = WaitTracer(env)
        tracer.install()        # or: with WaitTracer(env) as tracer: ...
        ... run the scenario ...
        tracer.uninstall()
        blame = tracer.blame()
    """

    #: The record rows stop growing at this many records: ~51 MB of
    #: rows (~146 MB as ``WaitRecord`` objects).
    MAX_RECORDS = 1_000_000

    def __init__(self, env: "Environment") -> None:
        self.env = env
        # Record i: span id and cause code at _ints[2 * i:2 * i + 2],
        # wait, service, latency, t at _times[4 * i:4 * i + 4].
        self._ints = array("q")
        self._times = array("d")
        #: Interned ``(resource, kind, stage)`` causes, by code.
        self._causes: List[Tuple[str, str, str]] = []
        self._cause_codes: Dict[tuple, int] = {}
        #: Events not recorded because :attr:`MAX_RECORDS` was reached.
        self.records_dropped = 0
        #: Set by :meth:`claim` right before a caller that booked its own
        #: wait creates the timeout it sleeps through, so
        #: Environment.timeout does not book the same passage again as a
        #: sleep.  The kernel calls :meth:`on_timeout` only while this is
        #: set or the sleeping process has a span open.
        self.claimed = False
        #: Sampled parked requests, gets and allocations -> (resource,
        #: park time, span).  Keyed by the event object itself (strong ref,
        #: removed at grant or withdrawal) so id() reuse cannot mix up two
        #: waits.  A grant or withdrawal site calls the tracer only for an
        #: event in it.
        self.blocked: Dict[object, Tuple[str, float, "Span"]] = {}
        # Models that book lazily (a pipe's chunk slots), each with the
        # callable that books what is due by now.  Every read runs them.
        self._deferred: Dict[Callable[[], None], None] = {}
        self.t_installed: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "WaitTracer":
        """Attach to the environment (at most one tracer at a time)."""
        current = self.env._wait_tracer
        if current is not None and current is not self:
            raise RuntimeError("another WaitTracer is already installed")
        self.env._wait_tracer = self
        if self.t_installed is None:
            self.t_installed = self.env.now
        return self

    def uninstall(self) -> None:
        """Detach; hooks revert to the zero-cost no-tracer path.

        Bookings due by now are made first (see :meth:`defer`).
        """
        if self.env._wait_tracer is self:
            self._flush()
            self.env._wait_tracer = None

    def __enter__(self) -> "WaitTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- hooks (called from primitives in a process; tracer installed) ------

    def reserve(self, name: Optional[str], wait: float, service: float,
                latency: float = 0.0) -> None:
        """A reservation server computed its analytic wait/service split.

        Books it now, on the running process's span.  A station pushes
        its own wake-up, so no timeout follows; a caller that sleeps
        through ``env.timeout`` after booking calls :meth:`claim` first.
        """
        self.book(name, wait, service, latency, self.env._active.span,
                  self.env._now)

    def claim(self) -> None:
        """Consume the next timeout silently: its caller books it itself."""
        self.claimed = True

    def book(self, name: Optional[str], wait: float, service: float,
             latency: float, span: "Span", t: float,
             kind: str = RESERVE) -> None:
        """Book one wait event on an explicit span at instant ``t``.

        The closed-form entry point: a model that spent one event where
        the reference spent several books each of the reference's events
        here, with the span that was open and the instant it was made at.
        Unlike :meth:`reserve` it claims no timeout, because none follows
        it.  A ``SLEEP`` goes to the ``(sleep)`` pseudo-resource.
        """
        self._append(span, ANON_RESOURCE if name is None else name, kind,
                     wait, service, latency, t)

    def on_timeout(self, delay: float) -> None:
        """``env.timeout``/``timeout_until`` was called.

        Consumed silently when its caller just claimed it; otherwise
        this is a pure delay, attributed to the ``(sleep)`` pseudo-resource
        of the active span.  The kernel does not call it for an unclaimed
        sleep with no span open (samplers, idle loops, unsampled work).
        """
        if self.claimed:
            self.claimed = False
            return
        self.book(SLEEP_RESOURCE, 0.0, 0.0, delay, self.env._active.span,
                  self.env._now, SLEEP)

    def defer(self, sync: Callable[[], None]) -> None:
        """Run ``sync()`` before every read of the tracer.

        For a model that books lazily: ``sync()`` books whatever it owes
        up to now, so a read sees what an eager model would have booked.
        """
        self._deferred[sync] = None

    def _flush(self) -> None:
        for sync in self._deferred:
            sync()

    def begin_block(self, event, name: Optional[str]) -> None:
        """A sampled request, get or allocation parked in a waiter queue."""
        self.blocked[event] = (name or ANON_RESOURCE, self.env._now,
                               self.env._active.span)

    def end_block(self, event) -> None:
        """A parked event is being granted/woken (same-instant resume)."""
        name, t0, span = self.blocked.pop(event)
        now = self.env._now
        self._append(span, name, BLOCK, now - t0, 0.0, 0.0, now)

    def cancel_block(self, event) -> None:
        """A parked event was withdrawn before being granted."""
        del self.blocked[event]

    def _append(self, span: "Span", name: str, kind: str, wait: float,
                service: float, latency: float, t: float) -> None:
        if len(self._ints) >= 2 * self.MAX_RECORDS:
            self.records_dropped += 1
            return
        key = (name, kind, span.name, span.node)
        cause = self._cause_codes.get(key)
        if cause is None:
            cause = self._cause_codes[key] = len(self._causes)
            self._causes.append((name, kind, span.stage))
        self._ints.extend((span.span_id, cause))
        self._times.extend((wait, service, latency, t))

    def _rows(self, lo: int, hi: int) -> Iterator[WaitRow]:
        ints = zip(*[islice(self._ints, 2 * lo, 2 * hi)] * 2)
        times = zip(*[islice(self._times, 4 * lo, 4 * hi)] * 4)
        causes = self._causes
        for (span_id, cause), (wait, service, latency, t) in zip(ints, times):
            resource, kind, stage = causes[cause]
            yield _new(WaitRow, (span_id, resource, kind, wait, service,
                                 latency, t, stage))

    # -- analyses -----------------------------------------------------------

    @property
    def records(self) -> Rows:
        """Span-attributed wait events (sampled requests only)."""
        self._flush()
        return Rows(self._rows, len(self._ints) >> 1)

    def blame(self) -> Dict[str, float]:
        """Resource -> attributed seconds over all sampled spans.

        Occupancy records only (reserve + sleep): block records mean
        "waiting for another process's work downstream" and would double
        count the downstream resource's own records.
        """
        out: Dict[str, float] = {}
        for r in self.records:
            if r.kind == BLOCK:
                continue
            out[r.resource] = out.get(r.resource, 0.0) + r.total
        return out

    def blame_components(self) -> Dict[str, Dict[str, float]]:
        """Resource -> ``{wait, service, latency, total}`` over sampled spans.

        Same record set as :meth:`blame` (occupancy records only), but the
        per-event split is preserved so a differential doctor can say
        whether a regression is *queueing* (wait grew) or *service*
        (the resource itself got slower).
        """
        out: Dict[str, Dict[str, float]] = {}
        for r in self.records:
            if r.kind == BLOCK:
                continue
            d = out.get(r.resource)
            if d is None:
                d = out[r.resource] = {"wait": 0.0, "service": 0.0,
                                       "latency": 0.0, "total": 0.0}
            d["wait"] += r.wait
            d["service"] += r.service
            d["latency"] += r.latency
            d["total"] += r.total
        return out

    def span_waits(self, span_ids: Collection[int]
                   ) -> Dict[int, Dict[str, float]]:
        """span_id -> resource -> attributed seconds (blocks included).

        Only the spans in ``span_ids`` are folded, each from its own
        records in record order, so a span's sums do not depend on which
        others are asked for.
        """
        out: Dict[int, Dict[str, float]] = {}
        for r in self.records:
            sid = r.span_id
            if sid in span_ids:
                d = out.setdefault(sid, {})
                d[r.resource] = d.get(r.resource, 0.0) + r.total
        return out

    def stage_waits(self) -> Dict[str, Dict[str, float]]:
        """Span stage -> resource -> attributed seconds (blocks included).

        This is the per-resource blame column for
        :class:`~repro.sim.spans.LatencyBreakdown`.
        """
        out: Dict[str, Dict[str, float]] = {}
        for r in self.records:
            d = out.setdefault(r.stage, {})
            d[r.resource] = d.get(r.resource, 0.0) + r.total
        return out

    def wait_series(self) -> List[TimeSeries]:
        """Cumulative queue wait per resource, name-sorted.

        Folded from the RESERVE and BLOCK records in instant order (record
        order within an instant): one point per instant at which a record
        waited, valued the resource's wait summed up to and including that
        instant, and covering the time since the previous point (or since
        install).
        """
        sums: Dict[str, List[list]] = {}
        for r in sorted(self.records, key=attrgetter("t")):
            if r.kind == SLEEP or r.wait <= 0.0:
                continue
            pts = sums.get(r.resource)
            if pts is None:
                sums[r.resource] = [[r.t, r.wait]]
            elif pts[-1][0] == r.t:
                pts[-1][1] += r.wait
            else:
                pts.append([r.t, pts[-1][1] + r.wait])
        out = []
        for name in sorted(sums):
            ts = TimeSeries(f"wait.{name}", unit="s", kind=GAUGE)
            last = self.t_installed or 0.0
            for t, cum in sums[name]:
                ts.append(t, t - last, cum)
                last = t
            out.append(ts)
        return out
