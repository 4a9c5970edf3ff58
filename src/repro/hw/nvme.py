"""NVMe SSD device and striped-array models.

A device is a FIFO serializer whose per-op service time is
``max(size / bandwidth, 1 / iops_cap)`` — this single expression yields
both the large-block bandwidth plateau and the small-block IOPS ceiling of
Fig. 3 — plus a NAND access latency paid in parallel (it delays each
completion but consumes no device throughput, matching how internal
parallelism hides latency once queues are deep).

The array stripes a flat logical address space across devices (1 MiB
stripe, like the paper's dfs/fio layout), giving the near-linear
multi-drive scaling of Fig. 3c.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.hw.specs import MIB, NvmeSpec
from repro.sim.core import Environment, Event
from repro.sim.monitor import RateMeter
from repro.sim.queues import FifoServer

__all__ = ["NvmeDevice", "NvmeArray"]


class NvmeDevice:
    """One NVMe SSD as a calibrated queueing station."""

    __slots__ = ("env", "spec", "index", "name", "_server", "reads", "writes")

    def __init__(self, env: Environment, spec: NvmeSpec, index: int = 0) -> None:
        self.env = env
        self.spec = spec
        self.index = index
        #: The device's one name: station, fault target, meters, spans.
        self.name = f"nvme.ssd{index}"
        self._server = FifoServer(env, name=self.name)
        self.reads = RateMeter(env, f"{self.name}.reads")
        self.writes = RateMeter(env, f"{self.name}.writes")

    def service_time(self, nbytes: int, is_write: bool,
                     bw_efficiency: float = 1.0) -> float:
        """Seconds of device occupancy for one I/O of ``nbytes``.

        ``bw_efficiency`` < 1 models a software path (e.g. the kernel block
        layer) that cannot stream the device at its raw rate; it inflates
        only the bandwidth-bound component of the service time.
        """
        if nbytes <= 0:
            raise ValueError(f"I/O size must be positive, got {nbytes}")
        if not 0.0 < bw_efficiency <= 1.0:
            raise ValueError(f"bw_efficiency must be in (0, 1], got {bw_efficiency}")
        spec = self.spec
        if is_write:
            return max(nbytes / (spec.write_bw * bw_efficiency), 1.0 / spec.write_iops_cap)
        return max(nbytes / (spec.read_bw * bw_efficiency), 1.0 / spec.read_iops_cap)

    def submit(
        self,
        nbytes: int,
        is_write: bool,
        bw_efficiency: float = 1.0,
        trace=None,
    ) -> Generator[Event, None, None]:
        """Perform one device I/O; completes after queue + service + latency.

        The service time is :meth:`service_time`, stretched while an
        ``nvme_latency_spike`` fault is active.
        """
        service = self.service_time(nbytes, is_write, bw_efficiency)
        spec = self.spec
        fx = self.env._faults
        if fx is not None:
            name = self.name
            if fx.active("nvme_media_error", name) is not None:
                from repro.faults.errors import NvmeMediaError

                raise NvmeMediaError(
                    f"{name}: injected media error on "
                    f"{'write' if is_write else 'read'} of {nbytes} bytes"
                )
            spike = fx.active("nvme_latency_spike", name)
            if spike is not None:
                service *= spike.factor
        span = None
        if trace is not None:
            span = trace.child("nvme", node=self.name, nbytes=nbytes)
        # Queue+service plus the parallel NAND access latency are two
        # back-to-back pure sleeps for this process; ``serve_then``
        # reserves the device exactly like ``serve`` but wakes us once,
        # at the bit-identical completion instant (one kernel event).
        yield self._server.serve_then(service, spec.access_latency(is_write))
        if span is not None:
            span.finish()
        (self.writes if is_write else self.reads).record(nbytes)

    @property
    def busy_time(self) -> float:
        """Cumulative seconds of device service."""
        return self._server.busy_time

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the device was serving."""
        return self._server.utilization(elapsed)

    def attach_stats(self, stats) -> None:
        """Attach a telemetry station to the device's command queue.

        ``stats`` (a :class:`~repro.sim.timeseries.StationStats`) then sees
        every submission's arrival and completion, powering the per-device
        queue-depth counter track and the Little's-law self-check.
        """
        self._server.attach_stats(stats)


class NvmeArray:
    """``n`` devices striped into one logical address space.

    Stripe unit is 1 MiB: a 1 MiB sequential stream round-robins whole
    I/Os across drives (near-linear bandwidth scaling) while 4 KiB random
    I/Os scatter uniformly.
    """

    __slots__ = ("env", "devices", "stripe_bytes")

    def __init__(
        self,
        env: Environment,
        spec: NvmeSpec,
        n_devices: int,
        stripe_bytes: int = MIB,
    ) -> None:
        if n_devices <= 0:
            raise ValueError(f"need at least one device, got {n_devices}")
        if stripe_bytes <= 0:
            raise ValueError(f"stripe size must be positive, got {stripe_bytes}")
        self.env = env
        self.devices: List[NvmeDevice] = [NvmeDevice(env, spec, i) for i in range(n_devices)]
        self.stripe_bytes = int(stripe_bytes)

    def __len__(self) -> int:
        return len(self.devices)

    @property
    def capacity_bytes(self) -> int:
        """Total array capacity."""
        return sum(d.spec.capacity_bytes for d in self.devices)

    def device_for(self, offset: int) -> NvmeDevice:
        """The device holding logical ``offset``."""
        return self.devices[(offset // self.stripe_bytes) % len(self.devices)]

    def split(self, offset: int, nbytes: int) -> List[Tuple[NvmeDevice, int]]:
        """Break ``[offset, offset+nbytes)`` into per-device pieces."""
        out: List[Tuple[NvmeDevice, int]] = []
        remaining = nbytes
        pos = offset
        while remaining > 0:
            in_stripe = self.stripe_bytes - (pos % self.stripe_bytes)
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
        trace=None,
    ) -> Generator[Event, None, None]:
        """One logical I/O; pieces on different devices proceed in parallel.

        A split I/O with no ``trace`` and no fault plan is joined inline:
        the caller reserves every piece itself, in piece order, with the
        float operations of :meth:`FifoServer.serve_then
        <repro.sim.queues.FifoServer.serve_then>`, and sleeps once, until
        the last piece's wake instant.  That is one kernel event where a
        process per piece and their join cost ``3n + 1`` (DESIGN.md §9).
        A traced or faulted I/O keeps a process per piece.
        """
        pieces = self.split(offset, nbytes)
        if len(pieces) == 1:
            dev, size = pieces[0]
            yield from dev.submit(size, is_write, bw_efficiency, trace=trace)
            return
        env = self.env
        if trace is not None or env._faults is not None or not pieces:
            procs = [
                env.process(dev.submit(size, is_write, bw_efficiency, trace=trace))
                for dev, size in pieces
            ]
            yield env.all_of(procs)
            return
        now = env._now
        booked = []
        wake = now
        last = 0
        for i, (dev, size) in enumerate(pieces):
            service = dev.service_time(size, is_write, bw_efficiency)
            latency = dev.spec.access_latency(is_write)
            srv = dev._server
            free = srv._free_at
            start = free if free > now else now
            done = start + service
            srv._free_at = done
            srv.busy_time += service
            srv.ops += 1
            if srv._stats is not None:
                srv._stats.record(now, done)
            at = (now + (done - now)) + latency
            if at > wake:
                wake, last = at, i
            booked.append((srv.name, start - now, service, latency))
        wt = env._wait_tracer
        if wt is not None:
            # Every piece reaches the aggregates; the caller's open span
            # gets the record of the piece it waited for, the last to
            # finish (the first of them on a tie), so the span's records
            # still sum to its duration.
            for i, (name, wait, service, latency) in enumerate(booked):
                wt.reserve(name, wait, service, latency, record=i == last)
        yield env.timeout_until(wake)
        for dev, size in pieces:
            (dev.writes if is_write else dev.reads).record(size)

    def total_bytes_read(self) -> int:
        """Aggregate bytes read across devices."""
        return sum(d.reads.bytes for d in self.devices)

    def total_bytes_written(self) -> int:
        """Aggregate bytes written across devices."""
        return sum(d.writes.bytes for d in self.devices)
