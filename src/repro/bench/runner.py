"""Experiment builders: one function per paper-figure cell.

Each call constructs a *fresh* simulated testbed, runs the FIO spec, and
returns the measured :class:`~repro.workload.fio.FioResult` — cells of a
sweep are completely independent, like separate runs on the physical
testbed.

* :func:`run_fig3_cell` — local FIO / io_uring device baselines (Fig. 3).
* :func:`run_fig4_cell` — remote SPDK NVMe-oF, TCP vs RDMA, pinned core
  counts on both ends (Fig. 4).
* :func:`run_fig5_doctored` — the one instrumented Fig. 5 runner (spans,
  wait tracer, optional sampler); :func:`run_fig5_chaos` is the same run
  under a fault plan, drained to an empty heap.
* :func:`run_ros2_fio` — the generic ROS2 runner every Fig. 5 cell and
  the ablation benches share (system bootstrap, file creation, pre-fill
  for reads, FIO drive); an unobserved Fig. 5 cell is
  ``run_ros2_fio(*_build_fig5(...))``.

:func:`repro.bench.campaign.run_cell` maps a cell config onto these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core import Ros2Config, Ros2System
from repro.hw.platform import make_paper_testbed
from repro.hw.specs import MIB
from repro.net import Fabric
from repro.sim import Environment, Sampler, SpanCollector
from repro.storage import BlockDevice, IoUringEngine, NvmfInitiator, NvmfTarget
from repro.workload.fio import FioJobSpec, FioResult, run_fio

__all__ = [
    "run_fig3_cell",
    "run_fig4_cell",
    "run_fig5_doctored",
    "run_fig5_chaos",
    "doctor_stations",
    "DoctoredRun",
    "ChaosRun",
    "run_ros2_fio",
    "default_iodepth",
    "default_numjobs",
    "default_runtime",
]

#: The DFS file every Fig. 5 FIO job reads or writes.
FIO_PATH = "/bench/fio.dat"


def default_iodepth(bs: int) -> int:
    """The queue depths the paper's FIO configurations imply: deep queues
    for small blocks (IOPS tests), shallow for streaming."""
    return 16 if bs < 64 * 1024 else 8


def default_numjobs(bs: int) -> int:
    """Fig. 5's FIO job counts: 8 jobs for >= 1 MiB blocks, 16 below."""
    return 8 if bs >= MIB else 16


def default_runtime(bs: int) -> float:
    """Fig. 5's measured window in simulated seconds.

    Large-block runs need a longer window: under the DPU's deep RX
    queues, per-I/O latency reaches milliseconds and a too-short window
    under-reports steady-state throughput.
    """
    return 0.15 if bs >= MIB else 0.03


def _seed_kwargs(seed: Optional[int]) -> dict:
    """Per-cell RNG override, leaving the FioJobSpec default in one place.

    The campaign executor derives a seed from the cell key (``"seed":
    "auto"``), so a cell's offset streams depend only on its config —
    never on which worker ran it or in what order.
    """
    return {} if seed is None else {"seed": int(seed)}


# ---------------------------------------------------------------------------
# Fig. 3 — local io_uring
# ---------------------------------------------------------------------------

def run_fig3_cell(
    rw: str,
    bs: int,
    numjobs: int,
    n_ssds: int = 1,
    iodepth: Optional[int] = None,
    runtime: float = 0.03,
    seed: Optional[int] = None,
) -> FioResult:
    """One point of Fig. 3: local FIO with the IO_URING engine."""
    env = Environment()
    top = make_paper_testbed(env, client="host", n_ssds=n_ssds)
    engine = IoUringEngine(top.server, BlockDevice(top.server.nvme))
    spec = FioJobSpec(
        rw=rw, bs=bs, numjobs=numjobs,
        iodepth=iodepth or default_iodepth(bs),
        runtime=runtime, ramp_time=runtime / 4,
        size=512 * MIB,
        **_seed_kwargs(seed),
    )
    return run_fio(env, engine, spec)


# ---------------------------------------------------------------------------
# Fig. 4 — remote SPDK NVMe-oF
# ---------------------------------------------------------------------------

class _MultiQpAdapter:
    """SPDK-style one-qpair-per-core: contexts round-robin over initiators."""

    def __init__(self, initiators) -> None:
        self.initiators = list(initiators)
        self._next = 0
        self._owner = {}

    def new_context(self, name=None):
        init = self.initiators[self._next % len(self.initiators)]
        self._next += 1
        ctx = init.new_context(name)
        self._owner[id(ctx)] = init
        return ctx

    def submit(self, ctx, offset, nbytes, is_write):
        return self._owner[id(ctx)].submit(ctx, offset, nbytes, is_write)


def run_fig4_cell(
    provider: str,
    rw: str,
    bs: int,
    client_cores: int,
    server_cores: int,
    iodepth: int = 32,
    runtime: float = 0.03,
    seed: Optional[int] = None,
) -> FioResult:
    """One heatmap cell of Fig. 4: remote SPDK to one SSD, pinned core counts.

    One NVMe-oF qpair (channel + initiator) per client core, one FIO job
    per core, ``iodepth`` commands in flight per qpair — the standard
    ``spdk_nvme_perf`` shape.
    """
    env = Environment()
    top = make_paper_testbed(
        env, client="host",
        client_cores=client_cores, server_cores=server_cores,
    )
    fabric = Fabric(env)
    device = BlockDevice(top.server.nvme)
    target = NvmfTarget(top.server, device)
    initiators = []
    for _ in range(client_cores):
        ch = fabric.connect(top.client, top.server, provider)
        target.serve(ch)
        initiators.append(NvmfInitiator(top.client, ch).start())
    adapter = _MultiQpAdapter(initiators)
    spec = FioJobSpec(
        rw=rw, bs=bs, numjobs=client_cores, iodepth=iodepth,
        runtime=runtime, ramp_time=runtime / 4, size=512 * MIB,
        **_seed_kwargs(seed),
    )
    return run_fio(env, adapter, spec)


# ---------------------------------------------------------------------------
# Fig. 5 — end-to-end ROS2 / DFS
# ---------------------------------------------------------------------------

class _MultiSessionAdapter:
    """One ROS2 session (own channel/PD/QP/TCP connection) per FIO job.

    FIO's DFS engine forks one process per job, each with its own DAOS
    client context and hence its own fabric connection — which is what
    lets host TCP aggregate past the single-stream ceiling on 4 SSDs.
    """

    def __init__(self, ports_and_fhs) -> None:
        self._ports = list(ports_and_fhs)  # [(port, fh), ...]
        self._next = 0
        self._owner = {}

    def new_context(self, name=None):
        port, fh = self._ports[self._next % len(self._ports)]
        self._next += 1
        ctx = port.new_context(name)
        self._owner[id(ctx)] = (port, fh)
        return ctx

    def submit(self, ctx, offset, nbytes, is_write):
        port, fh = self._owner[id(ctx)]
        if is_write:
            return port.write(ctx, fh, offset, nbytes=nbytes)
        return port.read(ctx, fh, offset, nbytes)


def run_ros2_fio(
    system: Ros2System,
    spec: FioJobSpec,
    tenant_policy: Optional[dict] = None,
    collector: Optional[SpanCollector] = None,
) -> FioResult:
    """Bootstrap ``system``, create the test file, pre-fill it for read
    workloads, and drive ``spec`` through ROS2 data ports.

    Every job gets its own session (channel, PD/QP or TCP connection), as
    FIO's one-process-per-job DFS engine does."""
    env = system.env
    token = system.register_tenant("fio", **(tenant_policy or {}))
    span = spec.numjobs * spec.size

    def setup(env):
        yield from system.start()
        first = yield from system.open_session(token)
        parent = FIO_PATH.rsplit("/", 1)[0]
        if parent:
            yield from first.mkdir(parent)
        fh0 = yield from first.create(FIO_PATH)
        ports = [(first.data_port(), fh0)]
        for _ in range(spec.numjobs - 1):
            s = yield from system.open_session(token)
            fh = yield from s.open(FIO_PATH)
            ports.append((s.data_port(), fh))
        fx = env._faults
        if fx is not None:
            fx.check_targets()  # every session's channel exists now
        if not spec.is_write:
            # Lay the file out in whole chunks so reads hit real extents,
            # 32 writers wide (setup time, excluded from measurement).
            port0 = ports[0][0]
            ctx_pool = [port0.new_context(f"prefill{i}") for i in range(32)]
            chunk = MIB
            offsets = list(range(0, span, chunk))

            def writer(env, ctx, start_idx):
                for i in range(start_idx, len(offsets), len(ctx_pool)):
                    yield from port0.write(ctx, fh0, offsets[i], nbytes=chunk)

            writers = [
                env.process(writer(env, ctx, i)) for i, ctx in enumerate(ctx_pool)
            ]
            yield env.all_of(writers)
        return ports

    p = env.process(setup(env))
    env.run(until=p)
    ports = p.value
    adapter = _MultiSessionAdapter(ports)
    return run_fio(env, adapter, spec, collector=collector)


def _build_fig5(
    provider: str,
    client: str,
    rw: str,
    bs: int,
    numjobs: int,
    n_ssds: int = 1,
    iodepth: Optional[int] = None,
    runtime: Optional[float] = None,
    seed: Optional[int] = None,
    n_targets: Optional[int] = None,
    tie_seed: Optional[int] = None,
    fault_plan=None,
) -> Tuple[Ros2System, FioJobSpec]:
    """Assemble the Fig. 5 testbed (fresh environment) and its FIO spec.

    ``tie_seed`` puts the kernel in race-sanitizer mode: same-time,
    same-priority events pop in a seeded pseudo-random permutation
    instead of FIFO (see :func:`repro.sim.core.tie_scramble`).

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) is installed
    on the fresh environment; :func:`run_ros2_fio` checks its targets
    against the component registry before prefill, and
    :func:`~repro.workload.fio.run_fio` arms it when the measured window
    opens.
    """
    env = Environment(tie_seed=tie_seed)
    if fault_plan is not None:
        fault_plan.install(env)
    system = Ros2System(env, Ros2Config(
        transport=provider, client=client, n_ssds=n_ssds,
        n_targets=n_targets, data_mode=False,
    ))
    if runtime is None:
        runtime = default_runtime(bs)
    size = 64 * MIB if bs >= MIB else 48 * MIB
    spec = FioJobSpec(
        rw=rw, bs=bs, numjobs=numjobs,
        iodepth=iodepth or default_iodepth(bs),
        runtime=runtime, ramp_time=runtime / 3, size=size,
        **_seed_kwargs(seed),
    )
    return system, spec


def doctor_stations(system: Ros2System) -> list:
    """The doctor's station table, from the stations' own counters.

    Every registry station's ``busy_time``, capacity and ``ops``, summed
    per blame bucket (the BF3 Arm RX pool and ``tcp_stack`` section both
    book as ``dpu.arm_rx``).
    """
    from repro.sim.doctor import Station
    from repro.sim.registry import STATION_KINDS

    acc: dict = {}
    for c in system.env.components.of_kind(*STATION_KINDS):
        rec = acc.setdefault(c.bucket, [0.0, 0, 0])
        rec[0] += c.obj.busy_time
        rec[1] += c.capacity
        rec[2] += c.obj.ops
    return [Station(name=n, busy_time=b, capacity=c, ops=o)
            for n, (b, c, o) in sorted(acc.items())]


@dataclass
class DoctoredRun:
    """A Fig. 5 cell's measurements plus the doctor's inputs.

    An unobserved cell (``observe: false``) has no ``collector``,
    ``tracer`` or ``sampler``.  ``tracer`` holds the sampled requests'
    wait-cause records (installed at *t = 0*, before prefill, the window
    each station's ``busy_time`` and ``ops`` counters cover);
    ``stations`` is the :func:`doctor_stations` view taken after the
    run.
    """

    result: FioResult
    collector: Optional[SpanCollector]
    tracer: "object"  # WaitTracer (avoid a bench->sim.waits type cycle here)
    sampler: Optional[Sampler]
    stations: list
    system: Ros2System
    spec: FioJobSpec


def run_fig5_doctored(
    provider: str,
    client: str,
    rw: str,
    bs: int,
    numjobs: int,
    n_ssds: int = 1,
    iodepth: Optional[int] = None,
    runtime: Optional[float] = None,
    sample_every: int = 20,
    observe_sampler: bool = True,
    seed: Optional[int] = None,
    n_targets: Optional[int] = None,
    tie_seed: Optional[int] = None,
    fault_plan=None,
) -> DoctoredRun:
    """A Fig. 5 cell with every instrument attached — the run behind
    ``doctor``, ``chaos`` and every observed campaign Fig. 5 cell.

    Installs a :class:`~repro.sim.waits.WaitTracer` before anything runs
    (so the doctor's utilizations cover the stations' whole counts),
    samples request spans 1-in-``sample_every``, records
    per-operation latency for the SLO gates, and optionally attaches the
    standard sampler from *t = 0*, so its ``.busy`` and ``.bytes`` series
    cover setup/prefill as well as the measured window
    (``observe_sampler=False`` skips it, as every recorded run does: its
    ticks are kernel events, counted in a record's ``cost``).  The
    sampler only reads counters; the tracer hears the sampled requests
    alone.  None of it changes the simulated outcome.
    """
    import dataclasses

    from repro.sim.waits import WaitTracer

    system, spec = _build_fig5(provider, client, rw, bs, numjobs,
                               n_ssds=n_ssds, iodepth=iodepth, runtime=runtime,
                               seed=seed, n_targets=n_targets,
                               tie_seed=tie_seed, fault_plan=fault_plan)
    spec = dataclasses.replace(spec, record_latency=True)
    tracer = WaitTracer(system.env)
    tracer.install()
    sampler = None
    if observe_sampler:
        from repro.core.telemetry import observe

        sampler = observe(system,
                          interval=(spec.ramp_time + spec.runtime) / 400.0)
    collector = SpanCollector(system.env, sample_every=sample_every)
    result = run_ros2_fio(system, spec, collector=collector)
    if sampler is not None:
        sampler.stop()
    stations = doctor_stations(system)
    return DoctoredRun(result=result, collector=collector, tracer=tracer,
                       sampler=sampler, stations=stations, system=system,
                       spec=spec)


# ---------------------------------------------------------------------------
# Chaos — Fig. 5 cells under a fault plan
# ---------------------------------------------------------------------------

@dataclass
class ChaosRun:
    """A doctored Fig. 5 cell run under fault injection, fully drained.

    ``stats`` is the injector's :class:`~repro.faults.plan.FaultStats`
    after every lane exited, so conservation (``submitted == completed +
    failed``) holds by construction if no operation was lost.
    """

    run: DoctoredRun
    plan: "object"   # FaultPlan (avoid a bench->faults type cycle here)
    stats: "object"  # FaultStats


def run_fig5_chaos(
    provider: str,
    client: str,
    rw: str,
    bs: int,
    numjobs: int,
    fault_plan,
    n_ssds: int = 1,
    iodepth: Optional[int] = None,
    runtime: Optional[float] = None,
    sample_every: int = 20,
    seed: Optional[int] = None,
    n_targets: Optional[int] = None,
    tie_seed: Optional[int] = None,
) -> ChaosRun:
    """A Fig. 5 cell with a :class:`~repro.faults.plan.FaultPlan` active.

    Exactly :func:`run_fig5_doctored` plus: the plan is installed before
    the system is built, and after FIO raises its stop flag the event
    heap is drained *to empty* so every in-flight operation — including
    ones mid-retry-backoff — either completes or fails.  That makes the
    conservation check exact rather than a race against a drain window.
    """
    run = run_fig5_doctored(
        provider, client, rw, bs, numjobs,
        n_ssds=n_ssds, iodepth=iodepth, runtime=runtime,
        sample_every=sample_every, observe_sampler=False,
        seed=seed, n_targets=n_targets, tie_seed=tie_seed,
        fault_plan=fault_plan,
    )
    env = run.system.env
    # Drain: lanes saw the stop flag but may be parked in backoff sleeps
    # or deadline waits; servers park on empty stores (no heap entries),
    # so running the heap dry terminates and settles every lane.
    env.run()
    fx = env._faults
    fx.stats.degraded_reads = run.system.engine.degraded_reads
    return ChaosRun(run=run, plan=fault_plan, stats=fx.stats)
