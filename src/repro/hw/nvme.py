"""NVMe SSD device and striped-array models.

A device is a FIFO serializer whose per-op service time is
``max(size / bandwidth, 1 / iops_cap)`` — this single expression yields
both the large-block bandwidth plateau and the small-block IOPS ceiling of
Fig. 3 — plus a NAND access latency paid in parallel (it delays each
completion but consumes no device throughput, matching how internal
parallelism hides latency once queues are deep).

The array stripes a flat logical address space across devices (1 MiB
stripe, like the paper's dfs/fio layout), giving the near-linear
multi-drive scaling of Fig. 3c.  An I/O that spans stripes is joined
inline: the caller reserves every piece and sleeps once, one kernel event
however many pieces, traced, faulted or plain.  A process per piece, the
join it reproduces, is the reference in ``tests/reference.py``.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.faults.errors import NvmeMediaError
from repro.hw.specs import MIB, NvmeSpec
from repro.sim.core import Environment, Event
from repro.sim.monitor import RateMeter
from repro.sim.queues import FifoServer

__all__ = ["NvmeDevice", "NvmeArray", "MEDIA_SPAN"]

#: The span a storage engine opens around its own I/O to the NVMe tier
#: (VOS's).  It times the device stage itself, so a device working under
#: it opens no ``nvme`` span: the device's records go on it.  Under any
#: other span a device times its own work in an ``nvme`` child.
MEDIA_SPAN = "media.nvme"


class NvmeDevice:
    """One NVMe SSD as a calibrated queueing station."""

    __slots__ = ("env", "spec", "index", "name", "_server", "reads", "writes",
                 "_latency")

    def __init__(self, env: Environment, spec: NvmeSpec, index: int = 0) -> None:
        self.env = env
        self.spec = spec
        self.index = index
        #: The device's one name: station, fault target, meters, spans.
        self.name = f"nvme.ssd{index}"
        self._server = FifoServer(env, name=self.name)
        self.reads = RateMeter(env, f"{self.name}.reads")
        self.writes = RateMeter(env, f"{self.name}.writes")
        #: The access latency of a read and of a write, by ``is_write``.
        self._latency = (spec.access_latency(False), spec.access_latency(True))

    def service_time(self, nbytes: int, is_write: bool,
                     bw_efficiency: float = 1.0) -> float:
        """Seconds of device occupancy for one I/O of ``nbytes`` issued now.

        ``bw_efficiency`` < 1 models a software path (e.g. the kernel block
        layer) that cannot stream the device at its raw rate; it inflates
        only the bandwidth-bound component of the service time.  The
        device's one fault check: an active ``nvme_latency_spike``
        stretches the time by its factor, and an active
        ``nvme_media_error`` raises :class:`NvmeMediaError` instead.
        """
        if nbytes <= 0:
            raise ValueError(f"I/O size must be positive, got {nbytes}")
        if not 0.0 < bw_efficiency <= 1.0:
            raise ValueError(f"bw_efficiency must be in (0, 1], got {bw_efficiency}")
        spec = self.spec
        if is_write:
            service = max(nbytes / (spec.write_bw * bw_efficiency),
                          1.0 / spec.write_iops_cap)
        else:
            service = max(nbytes / (spec.read_bw * bw_efficiency),
                          1.0 / spec.read_iops_cap)
        fx = self.env._faults
        if fx is not None:
            name = self.name
            if fx.active("nvme_media_error", name) is not None:
                raise NvmeMediaError(
                    f"{name}: injected media error on "
                    f"{'write' if is_write else 'read'} of {nbytes} bytes"
                )
            spike = fx.active("nvme_latency_spike", name)
            if spike is not None:
                service *= spike.factor
        return service

    def submit(
        self,
        nbytes: int,
        is_write: bool,
        bw_efficiency: float = 1.0,
    ) -> Generator[Event, None, None]:
        """Perform one device I/O; completes after queue + service + latency.

        The service time is :meth:`service_time`, with its fault check.
        """
        service = self.service_time(nbytes, is_write, bw_efficiency)
        span = self.env._active.span
        if span is not None:
            span = (None if span.name == MEDIA_SPAN else
                    span.child("nvme", node=self.name, nbytes=nbytes))
        # Queue+service, then the parallel NAND access latency: one
        # kernel event at the chained instant, the latency booked to the
        # device.
        yield self._server.serve(service, latency=self._latency[is_write])
        if span is not None:
            span.finish()
        (self.writes if is_write else self.reads).record(nbytes)

    @property
    def busy_time(self) -> float:
        """Cumulative seconds of device service."""
        return self._server.busy_time

    @property
    def ops(self) -> int:
        """Reservations served so far."""
        return self._server.ops

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the device was serving."""
        return self._server.utilization(elapsed)


class NvmeArray:
    """``n`` devices striped into one logical address space.

    Stripe unit is 1 MiB: a 1 MiB sequential stream round-robins whole
    I/Os across drives (near-linear bandwidth scaling) while 4 KiB random
    I/Os scatter uniformly.
    """

    __slots__ = ("env", "devices", "capacity_bytes")

    #: Stripe unit: consecutive runs of this many bytes go to one drive.
    STRIPE_BYTES = MIB

    def __init__(self, env: Environment, spec: NvmeSpec, n_devices: int) -> None:
        if n_devices <= 0:
            raise ValueError(f"need at least one device, got {n_devices}")
        self.env = env
        self.devices: List[NvmeDevice] = [NvmeDevice(env, spec, i) for i in range(n_devices)]
        #: Total array capacity.
        self.capacity_bytes = sum(d.spec.capacity_bytes for d in self.devices)

    def __len__(self) -> int:
        return len(self.devices)

    def device_for(self, offset: int) -> NvmeDevice:
        """The device holding logical ``offset``."""
        return self.devices[(offset // self.STRIPE_BYTES) % len(self.devices)]

    def split(self, offset: int, nbytes: int) -> List[Tuple[NvmeDevice, int]]:
        """Break ``[offset, offset+nbytes)`` into per-device pieces."""
        out: List[Tuple[NvmeDevice, int]] = []
        remaining = nbytes
        pos = offset
        while remaining > 0:
            in_stripe = self.STRIPE_BYTES - (pos % self.STRIPE_BYTES)
            take = min(remaining, in_stripe)
            out.append((self.device_for(pos), take))
            pos += take
            remaining -= take
        return out

    def submit(
        self,
        offset: int,
        nbytes: int,
        is_write: bool,
        bw_efficiency: float = 1.0,
    ) -> Generator[Event, None, None]:
        """One logical I/O; pieces on different devices proceed in parallel.

        A split I/O is joined inline: the caller reserves every piece
        itself, in piece order, with :meth:`FifoServer.reserve
        <repro.sim.queues.FifoServer.reserve>`, and sleeps once, until the
        last piece's wake instant (the float operations of
        :meth:`FifoServer.serve`).  That is one kernel event where a
        process per piece and their join cost ``3n + 1`` (DESIGN.md §9).
        What those processes would have left is made here in closed form:

        * each piece's RESERVE booking, at now: on its ``nvme`` child of
          the process's span (opened now, closed at the piece's wake
          instant), or, under :data:`MEDIA_SPAN` or no span, on the
          caller's span for the piece it waited for (the last to finish,
          the first of them on a tie) and, for the rest, only if a
          station watches the device;
        * a piece under an ``nvme_media_error`` reserves nothing; the
          other pieces reserve, book and count as above, and then the
          first failing piece's error is raised, with no sleep.
        """
        if nbytes <= 0 or offset < 0 or offset + nbytes > self.capacity_bytes:
            raise ValueError(f"bad I/O of {nbytes} bytes at offset {offset} "
                             f"(array capacity {self.capacity_bytes})")
        stripe, in_stripe = divmod(offset, self.STRIPE_BYTES)
        if nbytes <= self.STRIPE_BYTES - in_stripe:
            # One piece: :meth:`split`'s one entry, without the list.
            dev = self.devices[stripe % len(self.devices)]
            yield from dev.submit(nbytes, is_write, bw_efficiency)
            return
        pieces = self.split(offset, nbytes)
        env = self.env
        now = env._now
        booked = []
        error = None
        wake = now
        last = 0
        for dev, size in pieces:
            try:
                service = dev.service_time(size, is_write, bw_efficiency)
            except NvmeMediaError as exc:
                error = error or exc
                continue
            latency = dev._latency[is_write]
            start, done = dev._server.reserve(service)
            at = now + (done - now) + latency
            if at > wake:
                wake, last = at, len(booked)
            booked.append((dev, size, start - now, service, latency, at))
        wt = env._wait_tracer
        span = env._active.span
        timed = span is not None and span.name != MEDIA_SPAN
        # Untimed, the piece the caller waits for keeps its record on the
        # caller's span, whose records then sum to its duration.
        waited = None if timed or error is not None else span
        for i, (dev, size, wait, service, latency, at) in enumerate(booked):
            piece = waited if i == last else None
            if timed:
                piece = span.child("nvme", node=dev.name, nbytes=size,
                                   start=now, end=at)
            if wt is not None and piece is not None:
                wt.book(dev.name, wait, service, latency, piece, now)
        if error is None:
            if wt is not None and span is not None:
                wt.claim()  # the pieces' bookings cover the sleep
            yield env.timeout_until(wake)
        for dev, size, *_ in booked:
            (dev.writes if is_write else dev.reads).record(size)
        if error is not None:
            raise error
