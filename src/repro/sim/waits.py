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

Design rules (shared with spans and station stats):

* **Zero cost when off** — every hook site guards with one
  ``env._wait_tracer is not None`` attribute test; nothing is allocated
  and no branch beyond the test is taken when no tracer is installed.
* **Pure observation** — the tracer never schedules events or perturbs
  wake-up order; a traced run dispatches the events an untraced one does
  and is bit-identical to it.  Where a model spends one event on what
  the reference spent several on, it books the reference's records in
  closed form with :meth:`WaitTracer.book`, at the instants the
  reference would have reached: a merged hop after it wakes, a
  :class:`~repro.sim.queues.BandwidthPipe` each chunk slot once it can
  no longer be undone (see DESIGN.md §9/§10).
* **Bounded memory** — the flat record list stops growing at
  :attr:`WaitTracer.MAX_RECORDS` (the drop count is reported), per-resource aggregate
  scalars are O(#resources), and the per-resource cumulative-wait
  counters are bounded :class:`~repro.sim.timeseries.TimeSeries` rings.

Two accounting streams come out:

* :attr:`WaitTracer.aggregates` — per-resource scalar totals over *all*
  operations since install (prefill included).  These pair with each
  station's own ``busy_time`` for the doctor's utilization-law check.
  A station the sampler watches (:meth:`WaitTracer.watch`) is fed from
  the same bookings: the tracer is the one thing a station reports to.
* :attr:`WaitTracer.records` — span-attributed events (only recorded when
  the waiting process has an open span, i.e. for sampled requests).
  These feed the blame ranking, the per-span decomposition and the
  wait-weighted flamegraphs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection, Dict, List, Optional, Tuple

from repro.sim.timeseries import GAUGE, TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.sim.spans import Span
    from repro.sim.timeseries import StationStats

__all__ = ["WaitTracer", "WaitRecord", "ResourceWait",
           "RESERVE", "BLOCK", "SLEEP", "SLEEP_RESOURCE", "ANON_RESOURCE"]

#: Record kinds.
RESERVE = "reserve"
BLOCK = "block"
SLEEP = "sleep"

#: Pseudo-resource for unclaimed timeouts (pure delays).
SLEEP_RESOURCE = "(sleep)"
#: Fallback for primitives constructed without a name.
ANON_RESOURCE = "(anon)"


class WaitRecord:
    """One span-attributed wait event.

    ``wait`` is time spent queued (or parked, for blocks), ``service`` is
    time occupying the resource, ``latency`` is a post-service fixed delay
    (device access latency, pipe propagation, pure sleeps).  ``total``
    is the simulated time the waiting process gave up for this event.
    """

    __slots__ = ("span", "resource", "kind", "wait", "service", "latency", "t")

    def __init__(self, span: "Span", resource: str, kind: str,
                 wait: float, service: float, latency: float, t: float) -> None:
        self.span = span
        self.resource = resource
        self.kind = kind
        self.wait = wait
        self.service = service
        self.latency = latency
        #: Simulated time the event was recorded (reserve: at reservation;
        #: block: at grant).
        self.t = t

    @property
    def total(self) -> float:
        return self.wait + self.service + self.latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WaitRecord {self.kind} {self.resource} "
                f"w={self.wait * 1e6:.2f}us s={self.service * 1e6:.2f}us "
                f"l={self.latency * 1e6:.2f}us>")


class ResourceWait:
    """Per-resource scalar aggregates over every operation since install."""

    __slots__ = ("name", "count", "wait", "service", "latency", "block",
                 "station")

    def __init__(self, name: str, station=None) -> None:
        self.name = name
        self.count = 0
        self.wait = 0.0
        self.service = 0.0
        self.latency = 0.0
        self.block = 0.0
        #: The sampler's station for this name (:meth:`WaitTracer.watch`)
        #: or None.
        self.station = station


class WaitTracer:
    """Records wait causes for one environment while installed.

    Usage::

        tracer = WaitTracer(env)
        tracer.install()        # or: with WaitTracer(env) as tracer: ...
        ... run the scenario ...
        tracer.uninstall()
        blame = tracer.blame()
    """

    #: The flat record list stops growing at this many records.
    MAX_RECORDS = 1_000_000

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._records: List[WaitRecord] = []
        #: Events not recorded because :attr:`MAX_RECORDS` was reached.
        self.records_dropped = 0
        self._aggregates: Dict[str, ResourceWait] = {}
        # Stations the sampler watches (see :meth:`watch`), by name.
        self._watched: Dict[str, "StationStats"] = {}
        # Set by :meth:`claim` right before a caller that booked its own
        # wait creates the timeout it sleeps through, so
        # Environment.timeout does not book the same passage again as a
        # sleep.
        self._claimed = False
        # Parked requests, gets and allocations -> (resource, park time, span).
        # Keyed by the event object itself (strong ref, removed at grant
        # or withdrawal) so id() reuse cannot mix up two waits.
        self._blocked: Dict[object, Tuple[str, float, "Span"]] = {}
        # Per-resource cumulative wait counters (Chrome-trace tracks).
        self._series: Dict[str, TimeSeries] = {}
        self._series_last_t: Dict[str, float] = {}
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
        self._claimed = True

    def watch(self, name: str, station: "StationStats") -> None:
        """Feed every later booking of ``name`` to ``station``.

        Each one arrives at its instant ``t`` and leaves at ``t + wait +
        service``: the sampler's in-flight gauge and Little's-law counters
        see exactly the reservations the aggregates count.
        """
        self._watched[name] = station
        agg = self._aggregates.get(name)
        if agg is not None:
            agg.station = station

    def _aggregate(self, name: str) -> ResourceWait:
        agg = self._aggregates.get(name)
        if agg is None:
            agg = self._aggregates[name] = ResourceWait(
                name, self._watched.get(name))
        return agg

    def book(self, name: Optional[str], wait: float, service: float,
             latency: float, span: Optional["Span"], t: float,
             kind: str = RESERVE) -> None:
        """Book one wait event on an explicit span at instant ``t``.

        The closed-form entry point: a model that spent one event where
        the reference spent several books each of the reference's events
        here, with the span that was open and the instant it was made at.
        Unlike :meth:`reserve` it claims no timeout, because none follows
        it.  ``span=None`` books the aggregates only.  A ``SLEEP`` goes to
        the ``(sleep)`` pseudo-resource; callers book one only on a span.
        """
        if name is None:
            name = ANON_RESOURCE
        agg = self._aggregates.get(name)
        if agg is None:
            agg = self._aggregate(name)
        agg.count += 1
        agg.wait += wait
        agg.service += service
        agg.latency += latency
        if wait > 0.0:
            self._bump_series(name, t, agg.wait + agg.block)
        station = agg.station
        if station is not None:
            station.record(t, t + wait + service)
        if span is not None:
            self._append(WaitRecord(span, name, kind,
                                    wait, service, latency, t))

    def on_timeout(self, delay: float) -> None:
        """``env.timeout``/``timeout_until`` was called.

        Consumed silently when its caller just claimed it; otherwise
        this is a pure delay, attributed to the ``(sleep)`` pseudo-resource
        of the active span (unattributed sleeps — samplers, idle loops —
        are not recorded at all).
        """
        if self._claimed:
            self._claimed = False
            return
        span = self.env._active.span
        if span is None:
            return
        self.book(SLEEP_RESOURCE, 0.0, 0.0, delay, span, self.env._now, SLEEP)

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
        """A request, get or allocation parked in a waiter queue."""
        span = self.env._active.span
        if span is None:
            return
        self._blocked[event] = (name or ANON_RESOURCE, self.env._now, span)

    def end_block(self, event) -> None:
        """A parked event is being granted/woken (same-instant resume)."""
        info = self._blocked.pop(event, None)
        if info is None:
            return
        name, t0, span = info
        now = self.env._now
        dur = now - t0
        agg = self._aggregate(name)
        agg.count += 1
        agg.block += dur
        if dur > 0.0:
            self._bump_series(name, now, agg.wait + agg.block)
        self._append(WaitRecord(span, name, BLOCK, dur, 0.0, 0.0, now))

    def cancel_block(self, event) -> None:
        """A parked event was withdrawn before being granted."""
        self._blocked.pop(event, None)

    def _append(self, record: WaitRecord) -> None:
        if len(self._records) >= self.MAX_RECORDS:
            self.records_dropped += 1
            return
        self._records.append(record)

    def _bump_series(self, name: str, now: float, cum_wait: float) -> None:
        ts = self._series.get(name)
        if ts is None:
            ts = self._series[name] = TimeSeries(
                f"wait.{name}", unit="s", kind=GAUGE)
            self._series_last_t[name] = self.t_installed or 0.0
        last = self._series_last_t[name]
        ts.append(now, now - last, cum_wait)
        if now > last:
            self._series_last_t[name] = now

    # -- analyses -----------------------------------------------------------

    @property
    def records(self) -> List[WaitRecord]:
        """Span-attributed wait events (sampled requests only)."""
        self._flush()
        return self._records

    @property
    def aggregates(self) -> Dict[str, ResourceWait]:
        """Per-resource totals since install.

        Every reservation counts.  A block counts only if the parked
        process had a span open (:meth:`begin_block`), and so does a
        ``(sleep)`` (:meth:`on_timeout`), so those totals cover sampled
        requests alone.
        """
        self._flush()
        return self._aggregates

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
            sid = r.span.span_id
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
            d = out.setdefault(r.span.stage, {})
            d[r.resource] = d.get(r.resource, 0.0) + r.total
        return out

    def wait_series(self) -> List[TimeSeries]:
        """Cumulative blamed-wait counters, one per resource, name-sorted."""
        self._flush()
        return [self._series[k] for k in sorted(self._series)]
