"""The FIO-equivalent workload driver.

One :class:`FioJobSpec` names everything the paper's sweeps vary — the
POSIX workload (``read``/``write``/``randread``/``randwrite``), block
size, ``numjobs``, ``iodepth``, runtime — and :func:`run_fio` drives any
engine *adapter* with it: ``numjobs`` job threads, each keeping
``iodepth`` operations in flight, with a ramp-up window excluded from the
measurement (FIO's ``ramp_time``).

An adapter is anything with::

    new_context(name=None) -> FifoServer
    submit(ctx, offset, nbytes, is_write) -> generator

which :class:`~repro.storage.iouring.IoUringEngine` and
:class:`~repro.storage.spdk.NvmfInitiator` already satisfy; the Fig. 5
runner's ``_MultiSessionAdapter`` (:mod:`repro.bench.runner`) drives the
ROS2 data port (FIO's DFS engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.sim.core import Environment
from repro.sim.monitor import LatencyRecorder, RateMeter
from repro.sim.rng import RngStreams
from repro.workload.patterns import RandomPattern, SequentialPattern

__all__ = ["FioJobSpec", "FioResult", "run_fio", "WORKLOADS"]

#: The paper's four POSIX workloads (Fig. 3/4/5 row labels R, W, RR, RW).
WORKLOADS = ("read", "write", "randread", "randwrite")


@dataclass(frozen=True)
class FioJobSpec:
    """One FIO job file (the knobs the paper sweeps)."""

    rw: str = "read"
    bs: int = 4096
    numjobs: int = 1
    iodepth: int = 16
    runtime: float = 0.05  # measured window, simulated seconds
    ramp_time: float = 0.01  # warm-up excluded from the stats
    size: int = 256 * 1024 * 1024  # per-job region
    record_latency: bool = False
    seed: int = 7

    def __post_init__(self) -> None:
        if self.rw not in WORKLOADS:
            raise ValueError(f"rw must be one of {WORKLOADS}, got {self.rw!r}")
        if self.bs <= 0 or self.numjobs <= 0 or self.iodepth <= 0:
            raise ValueError("bs, numjobs and iodepth must be positive")
        if self.runtime <= 0 or self.ramp_time < 0:
            raise ValueError("runtime must be positive, ramp_time non-negative")
        if self.size < self.bs:
            raise ValueError(f"per-job size {self.size} smaller than bs {self.bs}")

    @property
    def is_write(self) -> bool:
        return self.rw in ("write", "randwrite")

    @property
    def is_random(self) -> bool:
        return self.rw in ("randread", "randwrite")


@dataclass
class FioResult:
    """What FIO prints at the end of a run."""

    spec: FioJobSpec
    total_ios: int
    elapsed: float
    iops: float
    bandwidth: float  # bytes/second
    latency: Dict[str, float] = field(default_factory=dict)
    #: Operations that failed with an error inside the measured window
    #: (nonzero only under fault injection).
    errors: int = 0
    #: ``env.events_processed`` when the run began, when the measured
    #: window opened and when it closed — the simulator's own cost, kept
    #: out of :meth:`to_dict` and equality so results stay comparable.
    phase_events: Tuple[int, int, int] = field(default=(0, 0, 0),
                                               compare=False, repr=False)

    @property
    def bandwidth_gib(self) -> float:
        """Bandwidth in GiB/s (the paper's large-block unit)."""
        return self.bandwidth / 2**30

    @property
    def kiops(self) -> float:
        """Thousands of IOPS (the paper's small-block unit)."""
        return self.iops / 1e3

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable result record (the JSON bench artefacts)."""
        return {
            "spec": {
                "rw": self.spec.rw,
                "bs": self.spec.bs,
                "numjobs": self.spec.numjobs,
                "iodepth": self.spec.iodepth,
                "runtime": self.spec.runtime,
                "ramp_time": self.spec.ramp_time,
                "size": self.spec.size,
            },
            "total_ios": self.total_ios,
            "elapsed": self.elapsed,
            "iops": self.iops,
            "bandwidth": self.bandwidth,
            "bandwidth_gib": self.bandwidth_gib,
            "kiops": self.kiops,
            "latency": dict(self.latency),
            # Conditional so no-fault artefacts stay byte-identical to the
            # records committed before fault injection existed.
            **({"errors": self.errors} if self.errors else {}),
        }

    def __str__(self) -> str:
        return (
            f"{self.spec.rw} bs={self.spec.bs} jobs={self.spec.numjobs} "
            f"qd={self.spec.iodepth}: {self.iops:,.0f} IOPS, "
            f"{self.bandwidth_gib:.2f} GiB/s"
        )


def run_fio(
    env: Environment,
    adapter,
    spec: FioJobSpec,
    collector=None,
) -> FioResult:
    """Run one FIO job spec to completion and report the measured window.

    The caller must have finished all setup processes (engines started,
    files created and pre-filled); this call advances the simulation by
    ``ramp_time + runtime`` seconds.

    When ``collector`` (a :class:`~repro.sim.spans.SpanCollector`) is given,
    each measured operation may start a sampled trace whose root span covers
    submit-to-completion; it is the lane's span while the operation runs,
    and the adapter and every layer below annotate it with per-stage child
    spans.  With ``collector=None`` the hot loop issues the
    exact same calls as before tracing existed.
    """
    rng = RngStreams(spec.seed)
    meter = RateMeter(env, "fio")
    # Per-job recorders, merged at report time — exactly how real FIO
    # accounts latency (one log per job, folded into the group report).
    job_lats = [LatencyRecorder(f"fio.lat.j{j}", enabled=spec.record_latency)
                for j in range(spec.numjobs)]
    t_start = env.now
    measure_from = t_start + spec.ramp_time
    t_end = measure_from + spec.runtime
    stop = [False]
    errors = [0]

    fx = env._faults
    if fx is not None:
        # Fault event times are relative to the measured window so a plan
        # written for one spec ports across ramp times unchanged.
        if fx.armed_at is None:
            fx.arm(measure_from)
        from repro.daos.types import DaosError
        from repro.faults.errors import FaultInjectedError
        from repro.net.rdma import RdmaError
        op_errors = (DaosError, FaultInjectedError, RdmaError, ConnectionError)
    else:
        op_errors = ()

    is_write = spec.is_write

    def lane(env, ctx, pattern, lat):
        while not stop[0]:
            offset = pattern.next()
            t0 = env._now
            if collector is not None and t0 >= measure_from:
                tr = collector.trace(f"fio.{spec.rw}", nbytes=spec.bs)
            else:
                tr = None
            if fx is None:
                # The exact pre-chaos hot loop: no counters, no try frame.
                yield from adapter.submit(ctx, offset, spec.bs, is_write)
                if tr is not None:
                    tr.finish()
            else:
                fx.stats.submitted += 1
                try:
                    yield from adapter.submit(ctx, offset, spec.bs, is_write)
                except op_errors:
                    fx.stats.failed += 1
                    if tr is not None:
                        tr.finish()
                    if env.now >= measure_from:
                        errors[0] += 1
                    continue
                fx.stats.completed += 1
                if tr is not None:
                    tr.finish()
            now = env._now
            if now >= measure_from:
                meter.record(spec.bs)
                lat.record(now - t0)

    for j in range(spec.numjobs):
        ctx = adapter.new_context(f"fio.job{j}")
        region_start = j * spec.size
        if spec.is_random:
            pattern = RandomPattern(
                region_start, spec.size, spec.bs, rng.stream(f"job{j}")
            )
        else:
            pattern = SequentialPattern(region_start, spec.size, spec.bs)
        for _ in range(spec.iodepth):
            env.process(lane(env, ctx, pattern, job_lats[j]), name=f"fio.j{j}")

    # Let the ramp pass, reset the window, then measure.
    events_start = env.events_processed
    env.run(until=measure_from)
    events_open = env.events_processed
    meter.reset()
    for rec in job_lats:
        rec.clear()
    env.run(until=t_end)
    events_close = env.events_processed
    stop[0] = True
    # Drain: in-flight operations complete but no new ones are issued.
    elapsed = meter.elapsed()
    lat = LatencyRecorder("fio.lat", enabled=spec.record_latency)
    for rec in job_lats:
        lat.merge(rec)
    return FioResult(
        spec=spec,
        total_ios=meter.ops,
        elapsed=elapsed,
        iops=meter.ops_per_sec(),
        bandwidth=meter.bytes_per_sec(),
        latency=lat.summary() if spec.record_latency else {},
        errors=errors[0],
        phase_events=(events_start, events_open, events_close),
    )
