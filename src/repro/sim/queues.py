"""Fast queueing primitives used by the hardware models.

The generic :class:`~repro.sim.resources.Resource` costs three events per
acquire/hold/release cycle.  The models in :mod:`repro.hw` push enough
operations that this matters, so this module provides *reservation-based*
servers that need only **one** event per operation:

* :class:`FifoServer` — a single FIFO server.  ``serve(duration)`` computes
  the completion time analytically (``max(now, free_at) + duration``) and
  returns a single timeout event.  Exactly models a non-preemptive FIFO
  queue with deterministic service, which is how we model NVMe channels,
  serial links and serialized code sections (``enter(x86_cost)``).
* :class:`PooledServer` — ``n`` identical FIFO servers sharing one queue
  (an M/G/n-style station).  Completion times are computed with a heap of
  per-server free times.  Models CPU core pools.
* :class:`BandwidthPipe` — a duplex-less byte pipe: transfers are chopped
  into chunks that interleave fairly through a :class:`FifoServer`, so a
  small message never waits behind more than the in-flight chunks of large
  transfers.  Models NIC links and PCIe lanes.

  The pipe is *event-lean*: a transfer of more than one chunk is placed
  by an exact analytic scheduler instead of spending one event per chunk.
  Its pending chunk requests sit in a deque in request order; each is
  reserved with the chunk loop's own float operations, ahead of ``now``
  as far as the next transfer finish (within a bounded look-ahead), and
  those early slots are logged so that an arrival (a request the log did
  not foresee) rolls them back.
  One timer per pipe (``Environment.call_at``) wakes each finishing
  transfer.  A pending request due at the arrival's instant goes first.
  Under a wait tracer each slot is booked, in slot order, once it can no
  longer be undone, as the chunk loop would have booked it when the
  chunk was requested.  The scheduler is the pipe's one path: the
  chunk-per-event loop it reproduces lives in the tests, as the
  reference it is compared against.  See DESIGN.md §9 for the
  exactness argument.

Every station's wake-up event has the instant its service ends,
``done``, as its value: a caller that merged sleeps into it books the
reference's spans from there (``done = yield srv.serve(d, *delays)``).

All of them track cumulative busy time so utilization can be reported.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from math import inf, nextafter
from typing import Generator, Optional, Tuple

from repro.sim.core import NORMAL, Environment, Event, Timeout

__all__ = ["FifoServer", "PooledServer", "BandwidthPipe"]

#: Slot runs a pipe reserves ahead of the clock while it looks for the
#: next finish.  Past this it arms its timer at the next unreserved
#: request instead, which bounds what one arrival can roll back when many
#: transfers share the pipe.
_LOOKAHEAD = 16


class FifoServer:
    """A single non-preemptive FIFO server with deterministic service times.

    ``serve()`` *reserves* the server immediately: the caller is queued at
    its current position and receives an event that fires when its service
    completes.  This collapses queueing to O(1) state (the time the server
    next becomes free).

    A serialized code path (a lock, a progress thread, a job thread) is a
    FIFO server too: :meth:`enter` serves an x86-baseline cost scaled by
    :attr:`factor`, the host's ``lock_factor`` or ``cycle_factor``
    (:mod:`repro.hw.cpu`).  Its :attr:`name` is its blame bucket.
    """

    __slots__ = ("env", "name", "factor", "_free_at", "busy_time", "ops",
                 "_stats")

    def __init__(self, env: Environment, name: Optional[str] = None,
                 factor: float = 1.0) -> None:
        self.env = env
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
        #: Multiplier :meth:`enter` applies to every x86-baseline cost.
        self.factor = float(factor)
        self._free_at = 0.0
        #: Cumulative seconds of service performed (for utilization).
        self.busy_time = 0.0
        #: Number of operations served.
        self.ops = 0
        #: Optional telemetry station (attached only while sampling).
        self._stats = None

    def attach_stats(self, stats) -> None:
        """Attach a :class:`~repro.sim.timeseries.StationStats` recorder.

        The hot loop pays one ``is not None`` test when detached; with a
        recorder attached every reservation reports its arrival and
        (analytically known) completion time, feeding the in-flight gauge
        and the Little's-law self-check.
        """
        self._stats = stats

    def reserve(self, duration: float) -> Tuple[float, float]:
        """Reserve ``duration`` seconds of service; return ``(start, done)``.

        The station's one reservation: it books the busy time, the op
        count and the station recorder, and schedules nothing.  A caller
        that wakes itself (a pipe's chunk, a striped I/O's pieces) books
        the wait tracer too; :meth:`serve` is this plus both.
        """
        if duration < 0:
            raise ValueError(f"negative service duration {duration}")
        now = self.env._now
        free = self._free_at
        start = free if free > now else now
        done = start + duration
        self._free_at = done
        self.busy_time += duration
        self.ops += 1
        if self._stats is not None:
            self._stats.record(now, done)
        return start, done

    def serve(self, duration: float, *delays: float,
              latency: float = 0.0) -> Timeout:
        """Reserve ``duration`` of service; the event fires when it ends.

        ``latency`` (the server's own access latency, paid in parallel
        with later services) and then each of ``delays`` (the caller's
        own sleeps: a transport's stack latency, a propagation) are slept
        after the service in the same one kernel event.  It fires at
        ``now + (done - now)`` plus each of them in turn, the float chain
        of separate timeouts, scheduled with ``timeout_until``, which
        never re-rounds through a relative delay.  The event's value is
        ``done``.  The wait tracer books ``latency`` to the server; the
        delays are the caller's, which books them on its own spans from
        ``done`` (a sampled message's stage spans and ``(sleep)``
        records) or, with no span open, not at all.
        """
        if duration < 0:
            raise ValueError(f"negative service duration {duration}")
        if latency < 0 or delays and min(delays) < 0:
            raise ValueError(f"negative delay in {(latency, *delays)}")
        # :meth:`reserve`, inline: this is the hottest call of a run.
        env = self.env
        now = env._now
        free = self._free_at
        start = free if free > now else now
        done = start + duration
        self._free_at = done
        self.busy_time += duration
        self.ops += 1
        if self._stats is not None:
            self._stats.record(now, done)
        # ``+ 0.0`` leaves a time unchanged, so the plain wake-up is
        # ``timeout(done - now)``'s instant.
        when = now + (done - now) + latency
        for d in delays:
            when += d
        wt = env._wait_tracer
        if wt is not None:
            wt.reserve(self.name, start - now, duration, latency)
            wt.on_timeout(when - now)
        # The wake-up Timeout, pushed here as ``timeout_until(when, done)``
        # would push it, with one call less per reservation.
        tfree = env._tfree
        if tfree:
            t = tfree.pop()
            env._timeouts_recycled += 1
        else:
            t = Timeout.__new__(Timeout)
            t.env = env
            t._ok = True
            t._defused = False
        t.callbacks = []
        t._value = done
        eid = env._eid = env._eid + 1
        ts = env._tie_scramble
        heappush(env._queue, (when, NORMAL, eid if ts is None else ts(eid), t))
        return t

    def enter(self, x86_cost: float) -> Timeout:
        """Pass through the section, paying ``x86_cost * factor`` serially."""
        return self.serve(x86_cost * self.factor)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time busy over ``elapsed`` (default: since t=0)."""
        span = self.env.now if elapsed is None else elapsed
        return 0.0 if span <= 0 else min(1.0, self.busy_time / span)


class PooledServer:
    """``n`` identical FIFO servers fed from a single queue.

    Like :class:`FifoServer` but with a heap of per-server free times: a new
    operation is assigned to the earliest-free server.  This is the
    standard work-conserving multi-server station and models a CPU core
    pool under non-preemptive dispatch.
    """

    __slots__ = ("env", "n", "name", "factor", "_free", "busy_time", "ops",
                 "_stats")

    def __init__(self, env: Environment, n: int,
                 name: Optional[str] = None) -> None:
        if n <= 0:
            raise ValueError(f"need at least one server, got {n}")
        self.env = env
        self.n = int(n)
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
        #: Multiplier applied to every duration: a CPU pool's core speed
        #: (:class:`~repro.hw.cpu.CpuPool`), 1 for a bare station.
        self.factor = 1.0
        self._free = [0.0] * self.n
        heapq.heapify(self._free)
        self.busy_time = 0.0
        self.ops = 0
        #: Optional telemetry station (attached only while sampling).
        self._stats = None

    def attach_stats(self, stats) -> None:
        """Attach a :class:`~repro.sim.timeseries.StationStats` recorder."""
        self._stats = stats

    def execute(self, duration: float, *delays: float) -> Timeout:
        """Reserve ``duration`` seconds, scaled by :attr:`factor`, on the
        earliest-free server.

        The event fires when the service ends and then, as in
        :meth:`FifoServer.serve`, after each of the caller's ``delays``
        too, still one kernel event; its value is ``done``.
        """
        duration = duration * self.factor
        if duration < 0:
            raise ValueError(f"negative service duration {duration}")
        if delays and min(delays) < 0:
            raise ValueError(f"negative delay in {delays}")
        env = self.env
        now = env._now
        # The earliest-free server takes the operation: its free time is
        # replaced by ``done`` (a pop and a push in one heap operation).
        free_at = self._free
        free = free_at[0]
        start = free if free > now else now
        done = start + duration
        heapq.heapreplace(free_at, done)
        self.busy_time += duration
        self.ops += 1
        if self._stats is not None:
            self._stats.record(now, done)
        when = now + (done - now)
        for d in delays:
            when += d
        wt = env._wait_tracer
        if wt is not None:
            wt.reserve(self.name, start - now, duration)
            wt.on_timeout(when - now)
        # The wake-up Timeout, pushed as in :meth:`FifoServer.serve`.
        tfree = env._tfree
        if tfree:
            t = tfree.pop()
            env._timeouts_recycled += 1
        else:
            t = Timeout.__new__(Timeout)
            t.env = env
            t._ok = True
            t._defused = False
        t.callbacks = []
        t._value = done
        eid = env._eid = env._eid + 1
        ts = env._tie_scramble
        heappush(env._queue, (when, NORMAL, eid if ts is None else ts(eid), t))
        return t

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Mean per-server busy fraction over ``elapsed`` (default since 0)."""
        span = self.env.now if elapsed is None else elapsed
        return 0.0 if span <= 0 else min(1.0, self.busy_time / (span * self.n))


class _Transfer(Event):
    """A scheduled transfer, and the event its process waits on.

    ``left`` counts the bytes not yet reserved; ``at`` is the instant of
    the next chunk request or, once the last chunk is reserved, of the
    finish.  ``span`` is the span its owner had open when it called
    :meth:`BandwidthPipe.transfer`, which the wait tracer books its chunks
    on.
    """

    __slots__ = ("left", "at", "span")

    def __init__(self, env: Environment, left: int, at: float,
                 span=None) -> None:
        super().__init__(env)
        self.left = left
        self.at = at
        self.span = span


class BandwidthPipe:
    """A shared serial byte pipe with chunk-level fair interleaving.

    A transfer of ``nbytes`` is broken into ``chunk_bytes`` pieces; each
    piece reserves the underlying :class:`FifoServer` only when the
    previous piece finishes, so concurrent transfers interleave at chunk
    granularity (approximating per-packet fair sharing).  A fixed
    ``latency`` is added once per transfer.

    A transfer of more than one chunk costs one kernel event however many
    transfers share the pipe: the scheduler (``_advance``/``_sync``/
    ``_on_timer``) computes the slots the chunk loop would reserve and
    wakes the transfer at its last chunk's completion.  A wait tracer
    gets every slot in slot order (``_book``), each once it is final: as
    it is reserved, if it was requested by now, or else when it leaves
    the undo log without being rolled back.  Reading the tracer makes
    the slots due by then final first.  A transfer of one chunk is the
    chunk loop's one reservation, made at once.  Every transfer takes
    this path, observed or not; a pipe has no station recorder.

    Use from a process as ``yield from pipe.transfer(nbytes)``.
    """

    __slots__ = ("env", "bandwidth", "latency", "chunk_bytes", "_server",
                 "bytes_moved", "_requests", "_finishing",
                 "_undo", "_timer", "_timer_at", "_timer_cb",
                 "coalesced_ops", "revoked_ops")

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        latency: float = 0.0,
        chunk_bytes: int = 64 * 1024,
        name: Optional[str] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.env = env
        #: Bytes per second.
        self.bandwidth = float(bandwidth)
        #: One-way propagation + fixed per-message latency in seconds.
        self.latency = float(latency)
        self.chunk_bytes = int(chunk_bytes)
        # The internal server carries the pipe's wait-attribution name so
        # chunk reservations and the latency stage blame the same resource.
        self._server = FifoServer(env, name=name)
        #: Total payload bytes moved (for reports).
        self.bytes_moved = 0
        # Scheduler state: transfers with a pending chunk request, in
        # request order; transfers whose last chunk is reserved, in finish
        # order; the undo log of slots reserved ahead of the clock (see
        # ``_advance``); the armed timer and its instant.
        self._requests: deque = deque()
        self._finishing: deque = deque()
        self._undo: deque = deque()
        self._timer: Optional[Timeout] = None
        self._timer_at = 0.0
        self._timer_cb = self._on_timer
        #: Transfers completed analytically (perf accounting).
        self.coalesced_ops = 0
        #: Rollbacks of slots reserved ahead of an arrival.
        self.revoked_ops = 0

    @property
    def name(self) -> Optional[str]:
        """Resource name for wait-cause attribution (None = anonymous)."""
        return self._server.name

    @property
    def busy_time(self) -> float:
        """Cumulative seconds the pipe spent transmitting."""
        self._sync()
        return self._server.busy_time

    @property
    def ops(self) -> int:
        """Chunks reserved so far."""
        self._sync()
        return self._server.ops

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the pipe was transmitting."""
        self._sync()
        return self._server.utilization(elapsed)

    def transfer(self, nbytes: int) -> Generator[Event, None, None]:
        """Move ``nbytes`` through the pipe; completes after the last chunk.

        This is a plain generator intended for ``yield from`` inside a
        simulation process (no extra :class:`Process` is spawned).  It
        sleeps the latency, then waits for one event: the one chunk's
        service, or the scheduler's wake-up at the last chunk's end.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.bytes_moved += nbytes
        env = self.env
        wt = env._wait_tracer
        if self.latency:
            if wt is not None:
                # Pure propagation, blamed on the pipe (not a generic
                # sleep), after the slots requested by now.
                if self._requests or self._finishing:
                    self._sync()
                wt.reserve(self._server.name, 0.0, 0.0, self.latency)
            yield env.timeout(self.latency)
        if nbytes == 0:
            return
        if self._requests or self._finishing:
            self._sync()
        if nbytes > self.chunk_bytes:
            span = None
            if wt is not None:
                span = wt.active_span()
                wt.defer(self._sync)
            xfer = _Transfer(env, nbytes, env._now, span)
            self._requests.appendleft(xfer)
            self._arm()
            try:
                yield xfer
            except BaseException:
                self._abort(xfer)
                raise
            return
        # One chunk: the chunk loop's one reservation, made here.
        self.coalesced_ops += 1
        yield self._server.serve(nbytes / self.bandwidth)

    def transfer_and_sleep(self, nbytes: int, *delays: float) -> Timeout:
        """A one-chunk transfer, then the caller's ``delays``: one event.

        For a pipe without latency and ``0 < nbytes <= chunk_bytes``.  The
        chunk takes the one slot :meth:`transfer` would reserve, and the
        wake-up is :meth:`FifoServer.serve`'s chained instant.
        """
        if self.latency or not 0 < nbytes <= self.chunk_bytes:
            raise ValueError(
                f"not a one-chunk transfer on a zero-latency pipe: {nbytes} bytes")
        self.bytes_moved += nbytes
        self.coalesced_ops += 1
        if self._requests or self._finishing:
            self._sync()
        return self._server.serve(nbytes / self.bandwidth, *delays)

    # -- scheduler -----------------------------------------------------------
    def _advance(self, now: float, until: float) -> None:
        """Reserve pending chunk requests in request order.

        Every request due by ``now`` is reserved.  Requests due later, but
        before ``until``, are reserved too, until some transfer has its
        last chunk reserved.  Each slot repeats the chunk loop's float
        operations: ``start = max(free_at, r)``, ``done = start +
        take/bw``, and the next request at ``r + (done - r)``, the instant
        the chunk's timeout would fire.  A transfer alone in the queue
        takes its slots in one run, and a run with a slot requested after
        ``now`` is logged for undo as ``(last request, first request,
        transfer, bytes left, free_at, busy_time, slots)``.  Under a wait
        tracer a run requested by ``now`` is booked at once; a logged one
        is booked when it leaves the log.
        """
        requests = self._requests
        if not requests:
            return
        wt = self.env._wait_tracer
        finishing = self._finishing
        pop = requests.popleft
        push = requests.append
        log = self._undo.append
        srv = self._server
        bw = self.bandwidth
        chunk = self.chunk_bytes
        full = chunk / bw
        free = srv._free_at
        busy = srv.busy_time
        ops = srv.ops
        ahead = 0
        while requests:
            xfer = pop()
            r = xfer.at
            if r > now and (finishing or r >= until or ahead == _LOOKAHEAD):
                requests.appendleft(xfer)
                break
            r0, free0, busy0 = r, free, busy
            left = left0 = xfer.left
            slot_r = r
            duration = full if left > chunk else left / bw
            free = (free if free > r else r) + duration
            busy += duration
            left = left - chunk if left > chunk else 0
            r = r + (free - r)
            if left and not requests and r == free:
                # Alone, and the next request falls on the end of this
                # slot.  Then every later one does too, exactly: a slot
                # never outlasts the instant it was requested at, so
                # ``done - r`` is exact (Sterbenz) and ``r + (done - r)``
                # is ``done``.  The run goes on while its next request
                # passes the test above.
                stop = (now if finishing or until <= now
                        else nextafter(until, -inf))
                while r <= stop:
                    slot_r = r
                    if left > chunk:
                        free += full
                        busy += full
                        left -= chunk
                        r = free
                    else:
                        duration = left / bw
                        free += duration
                        busy += duration
                        left = 0
                        r = free
                        break
            n = (left0 - left + chunk - 1) // chunk
            ops += n
            xfer.left = left
            xfer.at = r
            if slot_r > now:
                log((slot_r, r0, xfer, left0, free0, busy0, n))
                ahead += 1
            elif wt is not None:
                self._book(r0, xfer, left0, free0, n)
            if left:
                push(xfer)
            else:
                finishing.append(xfer)
        srv._free_at = free
        srv.busy_time = busy
        srv.ops = ops

    def _book(self, r: float, xfer: _Transfer, left: int, free: float,
              n: int) -> None:
        """Book ``n`` slots of a run into the wait tracer, in slot order.

        The run is replayed from its first request ``r``, the bytes
        ``left`` and the server's ``free_at`` before it, with the chunk
        loop's float operations, and each slot is booked as the chunk
        loop's ``FifoServer.serve`` booked it: wait ``start - r``, its
        service, at the request instant ``r``, on the owner's span.
        """
        book = self.env._wait_tracer.book
        name = self._server.name
        span = xfer.span
        bw = self.bandwidth
        chunk = self.chunk_bytes
        full = chunk / bw
        for _ in range(n):
            start = free if free > r else r
            duration = full if left > chunk else left / bw
            free = start + duration
            book(name, start - r, duration, 0.0, span, r)
            left = left - chunk if left > chunk else 0
            r = r + (free - r)

    def _sync(self) -> None:
        """Make the server hold what the chunk loop holds at ``now``.

        Slots requested after ``now`` are rolled back, latest first, and
        requests due by ``now`` are reserved.  A request due exactly at
        ``now`` counts as made before whatever calls this.  Under a wait
        tracer every slot requested by ``now`` is booked, in slot order.
        """
        now = self.env._now
        undo = self._undo
        wt = self.env._wait_tracer
        if wt is not None:
            while undo and undo[0][0] <= now:
                _last, r, xfer, left, free, _busy, n = undo.popleft()
                self._book(r, xfer, left, free, n)
        kept = None
        if undo and undo[-1][0] > now:
            self.revoked_ops += 1
            srv = self._server
            requests = self._requests
            finishing = self._finishing
            chunk = self.chunk_bytes
            full = chunk / self.bandwidth
            while undo and undo[-1][0] > now:
                _last, r, xfer, left, free, busy, n = undo.pop()
                if xfer.left:
                    requests.pop()
                else:
                    finishing.pop()
                # Keep the run's slots requested by now; none is its last.
                # Only the earliest run rolled back can have any.
                kept = (r, xfer, left, free)
                while r <= now:
                    free = (free if free > r else r) + full
                    busy += full
                    left -= chunk
                    r = r + (free - r)
                    n -= 1
                xfer.left = left
                xfer.at = r
                requests.appendleft(xfer)
                srv._free_at = free
                srv.busy_time = busy
                srv.ops -= n
        undo.clear()
        if wt is not None and kept is not None:
            r, xfer, left, free = kept
            self._book(r, xfer, left, free,
                       (left - xfer.left) // self.chunk_bytes)
        requests = self._requests
        if requests and requests[0].at <= now:
            self._advance(now, now)

    def _arm(self) -> None:
        """Keep the timer armed no later than the next transfer finish.

        An armed timer bounds the look-ahead: a finish after it is found
        when it fires.  An arrival cannot finish before a transfer whose
        last chunk is already reserved, so then nothing is looked at.
        When the look-ahead stops short of a finish, the next unreserved
        request is the earliest instant one can come from.
        """
        finishing = self._finishing
        timer_at = self._timer_at if self._timer is not None else inf
        if not finishing:
            self._advance(self.env._now, timer_at)
        if finishing:
            at = finishing[0].at
        elif self._requests:
            at = self._requests[0].at
        else:
            return
        if at < timer_at:
            self._timer = self.env.call_at(at, self._timer_cb)
            self._timer_at = at

    def _on_timer(self, timer: Event) -> None:
        """Wake every transfer finishing now, then re-arm."""
        if timer is not self._timer:
            return  # superseded by an earlier timer
        self._timer = None
        now = self.env._now
        undo = self._undo
        wt = self.env._wait_tracer
        while undo and undo[0][0] <= now:
            _last, r, xfer, left, free, _busy, n = undo.popleft()
            if wt is not None:
                self._book(r, xfer, left, free, n)
        if self._requests:
            self._advance(now, now)
        finishing = self._finishing
        while finishing and finishing[0].at <= now:
            xfer = finishing.popleft()
            self.coalesced_ops += 1
            xfer._value = None
            callbacks = xfer.callbacks
            xfer.callbacks = None
            for callback in callbacks:
                callback(xfer)
        if self._requests or finishing:
            self._arm()

    def _abort(self, xfer: _Transfer) -> None:
        """The owner died mid-transfer: give back its unreserved chunks.

        The chunk in flight stays reserved, as it would in the chunk loop.
        """
        self._sync()
        if xfer.left:
            self._requests.remove(xfer)
        else:
            self._finishing.remove(xfer)
        self._arm()
