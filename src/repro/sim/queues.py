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
  reserved with the chunk loop's own float operations once it is due,
  and nothing is reserved ahead of ``now``.  The next transfer finish is
  projected in closed form, and one timer per pipe
  (``Environment.call_at``) is armed there: it fires only where a
  transfer finishes.  An arrival (a request the projection did not
  foresee) re-projects, cancelling the timer if the finish moved.  A
  pending request due at the arrival's instant goes first.  Under a
  wait tracer each slot is booked, in slot order, as it is reserved,
  as the chunk loop would have booked it when the chunk was requested.
  The scheduler is the pipe's one path: the chunk-per-event loop it
  reproduces lives in the tests, as the reference it is compared
  against.  See DESIGN.md §9 for the exactness argument.

Every station's wake-up event has the instant its service ends,
``done``, as its value: a caller that merged sleeps into it books the
reference's spans from there (``done = yield srv.serve(d, *delays)``).

All of them track cumulative busy time so utilization can be reported.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from heapq import heappush
from math import frexp, inf, ldexp
from typing import Generator, Optional, Tuple

from repro.sim.core import NORMAL, Environment, Event, Timeout

__all__ = ["FifoServer", "PooledServer", "BandwidthPipe"]

#: Grid points in a binade of doubles (:func:`_repeat_add`).
_GRID = 1 << 53

#: A pipe projects a finish in closed form up to this many full-chunk
#: times: ``bound``'s relative margin of 2**-20 in
#: :meth:`BandwidthPipe._project` outweighs the rounding of instants up
#: to there.
_EXACT_SPAN = 2.0 ** 29


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

    __slots__ = ("env", "name", "factor", "_free_at", "busy_time", "ops")

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

    def reserve(self, duration: float) -> Tuple[float, float]:
        """Reserve ``duration`` seconds of service; return ``(start, done)``.

        The station's one reservation: it books the busy time and the op
        count, and schedules nothing.  A caller that wakes itself (a
        striped I/O's pieces) books the wait tracer too; :meth:`serve` is
        this plus both.
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
        # ``+ 0.0`` leaves a time unchanged, so the plain wake-up is
        # ``timeout(done - now)``'s instant.
        when = now + (done - now) + latency
        for d in delays:
            when += d
        wt = env._wait_tracer
        if wt is not None and env._active.span is not None:
            wt.reserve(self.name, start - now, duration, latency)
        # The wake-up Timeout, pushed here as ``timeout_until(when, done)``
        # would push it, with one call less per reservation.
        t = Timeout.__new__(Timeout)
        t.env = env
        t.callbacks = []
        t._ok = True
        t._defused = False
        t._value = done
        heappush(env._queue, (when, NORMAL, next(env._eids), t))
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

    __slots__ = ("env", "n", "name", "factor", "_free", "busy_time", "ops")

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
        when = now + (done - now)
        for d in delays:
            when += d
        wt = env._wait_tracer
        if wt is not None and env._active.span is not None:
            wt.reserve(self.name, start - now, duration)
        # The wake-up Timeout, pushed as in :meth:`FifoServer.serve`.
        t = Timeout.__new__(Timeout)
        t.env = env
        t.callbacks = []
        t._ok = True
        t._defused = False
        t._value = done
        heappush(env._queue, (when, NORMAL, next(env._eids), t))
        return t

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Mean per-server busy fraction over ``elapsed`` (default since 0)."""
        span = self.env.now if elapsed is None else elapsed
        return 0.0 if span <= 0 else min(1.0, self.busy_time / (span * self.n))


class _Transfer(Event):
    """A scheduled transfer, and the event its process waits on.

    ``left`` counts the bytes not yet reserved; ``at`` is the instant of
    the next chunk request or, once the last chunk is reserved, of the
    finish.  ``span`` is its owner's span when it called
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


def _repeat_add(x: float, step: float, k: int) -> float:
    """``x`` after ``k`` rounds of ``x += step``: the float the loop ends on.

    Every sum that stays in one binade rounds onto that binade's grid, and
    once a sum has rounded onto it (which settles a tie to even), each
    further one adds the same multiple of the grid.  So the loop runs three
    steps where it enters a binade, and the rest of the binade is one exact
    multiply-add.
    """
    while k > 16:
        x1 = x + step
        x2 = x1 + step
        x3 = x2 + step
        k -= 3
        _m, e = frexp(x3)
        top = ldexp(1.0, e)
        if x1 >= 0.5 * top:
            # x2 and x3 are sums rounded onto the grid of [top/2, top).
            u = ldexp(1.0, e - 53)
            inc = int((x3 - x2) / u)
            if inc == 0:
                return x3
            # Steps from x3 whose exact sum stays below ``top``.
            n = min(k, (_GRID - int(x3 / u) - int(step / u) - 1) // inc)
            if n > 0:
                x3 += n * (inc * u)
                k -= n
        x = x3
    for _ in range(k):
        x += step
    return x


class BandwidthPipe:
    """A shared serial byte pipe with chunk-level fair interleaving.

    A transfer of ``nbytes`` is broken into ``chunk_bytes`` pieces; each
    piece reserves the underlying :class:`FifoServer` only when the
    previous piece finishes, so concurrent transfers interleave at chunk
    granularity (approximating per-packet fair sharing).  A fixed
    ``latency`` is added once per transfer.

    A transfer of more than one chunk costs one kernel event however many
    transfers share the pipe: the scheduler reserves the slots the chunk
    loop would reserve once they are requested (``_sync``), projects the
    next transfer finish without reserving anything (``_project``) and
    wakes the transfer there (``_on_timer``).  A wait tracer gets every
    slot, in slot order, as it is reserved; reading the tracer reserves
    the slots requested by then first.  A transfer of one chunk is the
    chunk loop's one reservation, made at once.  Every transfer takes
    this path, observed or not.

    Use from a process as ``yield from pipe.transfer(nbytes)``.
    """

    __slots__ = ("env", "bandwidth", "latency", "chunk_bytes", "_server",
                 "bytes_moved", "_requests", "_order", "_finishing",
                 "_timer", "_timer_at", "_timer_cb")

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
        # request order; the same transfers in the order their last chunks
        # come up (``_project``); transfers whose last chunk is reserved,
        # in finish order; the armed timer and its instant.
        self._requests: deque = deque()
        self._order: list = []
        self._finishing: deque = deque()
        self._timer: Optional[Timeout] = None
        self._timer_at = inf
        self._timer_cb = self._on_timer

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
        if wt is not None and env._active.span is None:
            wt = None  # the tracer would keep nothing of this transfer
        if self.latency:
            if wt is not None:
                # Pure propagation, blamed on the pipe (not a generic
                # sleep), after the slots requested by now.
                self._sync()
                wt.reserve(self._server.name, 0.0, 0.0, self.latency)
                wt.claim()
            yield env.timeout(self.latency)
        if nbytes == 0:
            return
        chunk = self.chunk_bytes
        if nbytes > chunk:
            self._sync()
            span = None
            if wt is not None:
                span = env._active.span
                wt.defer(self._sync)
            xfer = _Transfer(env, nbytes, env._now, span)
            # Every other request is due after now: this one goes first.
            self._requests.appendleft(xfer)
            order = self._order
            order.insert(bisect_left(order, -(-nbytes // chunk),
                                     key=lambda x: -(-x.left // chunk)), xfer)
            self._arm()
            try:
                yield xfer
            except BaseException:
                self._abort(xfer)
                raise
            return
        # One chunk: the chunk loop's one reservation, made here.  It
        # goes ahead of every pending request, so their finishes move.
        if not self._requests:
            yield self._server.serve(nbytes / self.bandwidth)
            return
        self._sync()
        done = self._server.serve(nbytes / self.bandwidth)
        self._arm()
        yield done

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
        if not self._requests:
            return self._server.serve(nbytes / self.bandwidth, *delays)
        self._sync()
        done = self._server.serve(nbytes / self.bandwidth, *delays)
        self._arm()
        return done

    # -- scheduler -----------------------------------------------------------
    def _sync(self) -> None:
        """Reserve every chunk request due by ``now``, in request order.

        A request due exactly at ``now`` counts as made before whatever
        calls this.  Each slot repeats the chunk loop's float operations:
        ``start = max(free_at, r)``, ``done = start + take/bw``, and the
        next request at ``r + (done - r)``, the instant the chunk's
        timeout would fire.  A transfer alone in the queue takes its slots
        in one run.  Under a wait tracer each run of a sampled transfer
        is booked as it is reserved.
        """
        requests = self._requests
        now = self.env._now
        if not requests or requests[0].at > now:
            return
        wt = self.env._wait_tracer
        finishing = self._finishing
        pop = requests.popleft
        push = requests.append
        srv = self._server
        bw = self.bandwidth
        chunk = self.chunk_bytes
        full = chunk / bw
        free = srv._free_at
        busy = srv.busy_time
        ops = srv.ops
        while requests and requests[0].at <= now:
            xfer = pop()
            r0 = r = xfer.at
            free0 = free
            left = left0 = xfer.left
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
                # is ``done``.
                while r <= now:
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
            if wt is not None and xfer.span is not None:
                self._book(r0, xfer, left0, free0, n)
            if left:
                push(xfer)
            else:
                finishing.append(xfer)
                self._order.remove(xfer)
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

    def _project(self) -> float:
        """The instant of the next transfer finish; nothing is reserved.

        A reserved last chunk ends before any pending request's.  Else the
        pending transfers take slots round robin in request order, so
        the first to finish is the one whose last chunk comes up first,
        ``_order[0]``, and every slot before that chunk is a full one.
        With at least two transfers the server never idles: each request
        is due before its turn.  The free instant before a slot is then
        the float that ``free += full`` reaches (:func:`_repeat_add`), and
        the finisher's own requests are stepped with the chunk loop's
        operations until they pass ``bound``; from there ``done <= 2r``,
        so ``r + (done - r)`` is ``done`` and the rest is one sum.  When a
        precondition fails, the next request instant is returned: the
        timer then reserves it and projects again.
        """
        finishing = self._finishing
        if finishing:
            return finishing[0].at
        requests = self._requests
        if not requests:
            return inf
        fin = self._order[0]
        n = len(requests)
        bw = self.bandwidth
        chunk = self.chunk_bytes
        full = chunk / bw
        f = self._server._free_at
        if n > 1:
            if requests[0].at > f or requests[-1].at > f + full:
                return requests[0].at
            f = _repeat_add(f, full, requests.index(fin))
        r = fin.at
        left = fin.left
        bound = n * full * (1.0 + 2.0 ** -20)
        while left > chunk:
            start = f if f > r else r
            done = start + full
            left -= chunk
            r = r + (done - r)
            f = _repeat_add(done, full, n - 1)
            if r >= bound:
                # A slot now ends at most ``n`` full slots after its
                # request, give or take a few ulps: ``done <= 2r``.
                start = f if f > r else r
                m = -(-left // chunk)
                if m > 1:
                    r = _repeat_add(start, full, (m - 2) * n + 1)
                    f = _repeat_add(r, full, n - 1)
                    left -= (m - 1) * chunk
                else:
                    f = start
                break
        start = f if f > r else r
        done = start + left / bw
        at = r + (done - r)
        # Later than this, rounding could outgrow ``bound``'s margin.
        return at if at <= full * _EXACT_SPAN else requests[0].at

    def _arm(self) -> None:
        """Arm the timer at the next finish, cancelling one it replaces."""
        at = self._project()
        if at != self._timer_at:
            env = self.env
            if self._timer is not None:
                env.cancel(self._timer)
            self._timer = None if at == inf else env.call_at(at, self._timer_cb)
            self._timer_at = at

    def _on_timer(self, _timer: Event) -> None:
        """Wake every transfer finishing now, then re-arm."""
        self._timer = None
        self._timer_at = inf
        now = self.env._now
        self._sync()
        finishing = self._finishing
        while finishing and finishing[0].at <= now:
            xfer = finishing.popleft()
            xfer._value = None
            callbacks = xfer.callbacks
            xfer.callbacks = None
            for callback in callbacks:
                callback(xfer)
        self._arm()

    def _abort(self, xfer: _Transfer) -> None:
        """The owner died mid-transfer: give back its unreserved chunks.

        The chunk in flight stays reserved, as it would in the chunk loop.
        """
        self._sync()
        if xfer.left:
            self._requests.remove(xfer)
            self._order.remove(xfer)
        else:
            self._finishing.remove(xfer)
        self._arm()
