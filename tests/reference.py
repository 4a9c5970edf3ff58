"""Reference models the differential tests compare production code with.

Each is the plain, event-per-step form of a path that production code
takes in closed form, kept here so that exactly one path lives in
``src/``:

* :func:`chunk_loop_transfer` — a bandwidth pipe's chunk-per-event loop,
  which :class:`~repro.sim.queues.BandwidthPipe`'s analytic scheduler
  reproduces slot for slot (:class:`ChunkLoopPipe` is a pipe that runs
  it);
* :func:`process_per_piece_submit` — a striped NVMe I/O as one process
  per piece and an ``AllOf`` join, which
  :meth:`~repro.hw.nvme.NvmeArray.submit` reproduces inline;
* :class:`AnyOf` — the first-of wait an RPC call once raced against its
  deadline, which the RPC client's deadline timer reproduces;
* :func:`window_mean` — a time series' duration-weighted mean over a
  window (``-inf`` to ``inf`` for the whole series), which only tests
  ask for.

A test patches a reference in (``monkeypatch.setattr(BandwidthPipe,
"transfer", chunk_loop_transfer)``) or builds it directly.
"""

from repro.sim.core import PENDING, ConditionEvent
from repro.sim.queues import BandwidthPipe

__all__ = ["AnyOf", "ChunkLoopPipe", "chunk_loop_transfer",
           "process_per_piece_submit", "window_mean"]


def chunk_loop_transfer(pipe, nbytes):
    """``BandwidthPipe.transfer`` as one event per chunk.

    The latency, then each chunk reserved on the pipe's server when the
    one before it ends.  The wait tracer gets the latency and every chunk
    from :meth:`FifoServer.serve <repro.sim.queues.FifoServer.serve>`, at
    the instant the chunk is requested, on the owner's open span.
    """
    if nbytes < 0:
        raise ValueError(f"negative transfer size {nbytes}")
    pipe.bytes_moved += nbytes
    env = pipe.env
    srv = pipe._server
    if pipe.latency:
        wt = env._wait_tracer
        if wt is not None and env._active.span is not None:
            wt.reserve(srv.name, 0.0, 0.0, pipe.latency)
            wt.claim()
        yield env.timeout(pipe.latency)
    chunk = pipe.chunk_bytes
    bw = pipe.bandwidth
    remaining = nbytes
    while remaining > 0:
        take = chunk if remaining > chunk else remaining
        yield srv.serve(take / bw)
        remaining -= take


class ChunkLoopPipe(BandwidthPipe):
    """A bandwidth pipe whose every transfer runs the chunk loop."""

    __slots__ = ()

    transfer = chunk_loop_transfer


def process_per_piece_submit(array, offset, nbytes, is_write,
                             bw_efficiency=1.0):
    """``NvmeArray.submit`` with a process per piece and their join.

    Each piece is :meth:`NvmeDevice.submit
    <repro.hw.nvme.NvmeDevice.submit>` in a process of its own, handed the
    caller's span: its fault check, its ``nvme`` child span and its
    RESERVE record, its wake-up and its meter.  The caller waits on an
    ``AllOf``, which books nothing, and raises the first piece to fail.
    (A second failing piece fails a process nobody waits for, which ends
    the run.)
    """
    pieces = array.split(offset, nbytes)
    if len(pieces) == 1:
        dev, size = pieces[0]
        yield from dev.submit(size, is_write, bw_efficiency)
        return
    env = array.env
    span = env.active_process.span
    procs = []
    for dev, size in pieces:
        proc = env.process(dev.submit(size, is_write, bw_efficiency))
        proc.span = span
        procs.append(proc)
    yield env.all_of(procs)


class AnyOf(ConditionEvent):
    """Fires as soon as *any* constituent event fires.

    Value is a ``{event: value}`` mapping of the events fired so far.
    Fails if the first constituent to fire failed.
    """

    __slots__ = ()

    def _check(self, event):
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


def window_mean(series, t0, t1):
    """``series``' duration-weighted mean over ``[t0, t1]``.

    Windows straddling a bound contribute pro rata, treating each
    window's signal as constant at its mean.
    """
    area = 0.0
    span = 0.0
    for t_end, dt, v in series.points():
        start = max(t_end - dt, t0)
        end = min(t_end, t1)
        if end > start:
            area += v * (end - start)
            span += end - start
    return area / span if span > 0.0 else 0.0
