"""One benchmark workload, run in a fresh process by ``run.py``.

The process imports the whole simulator first, then repeats the
workload's cell until ``--seconds`` of elapsed time have passed (at
least once) and reports the medians.  With ``--trace 1`` it instead runs one
traced cell, one timed cell and, for the observed workloads, one plain
twin, and reports the per-layer metrics.  It prints one JSON object on
its last line of output.

    PYTHONPATH=src PYTHONHASHSEED=0 python benchmarks/perf/cell.py \\
        --workload rdma-randread-4k --seed 7 --seconds 20 --trace 0 \\
        --scale 1 --out benchmarks/perf/out
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    """One Fig. 5 cell shape, always on the DPU client."""

    kind: str  # "plain", "doctor" (observed) or "chaos" (observed, faulted)
    transport: str
    rw: str
    bs: int
    numjobs: int
    iodepth: int
    ssds: int
    runtime: float  # measured window, simulated seconds
    why: str


WORKLOADS: Dict[str, Workload] = {
    "rdma-randread-4k": Workload(
        "plain", "rdma", "randread", 4096, 16, 16, 1, 0.04,
        "RDMA small-IO path: per-op verbs, RPC and DAOS-client code "
        "dominate host time while the bandwidth pipes sit nearly idle"),
    "tcp-randread-4k-doctor": Workload(
        "doctor", "tcp", "randread", 4096, 16, 16, 1, 0.0625,
        "the observed path campaigns run: TCP stack and Arm-RX stations "
        "with the wait tracer and spans on, then the doctor's verdict"),
    "rdma-write-1m-4ssd": Workload(
        "plain", "rdma", "write", MIB, 8, 8, 4, 1.0,
        "streaming writes: pipes, NIC, DRAM staging, 4-way NVMe striping "
        "and VOS updates do the work; per-op RPC code does little"),
    "chaos-rdma-randread-4k": Workload(
        "chaos", "rdma", "randread", 4096, 16, 16, 1, 0.03,
        "the fault, retry and reconnect paths: a client QP break at half "
        "the window, lasting a tenth of it, drained to an empty heap"),
}

#: End-to-end metrics: name -> unit.  BENCHMARK.json holds their bounds.
END_TO_END = {
    "cell_s": "s",
    "setup_s": "s",
    "sim_ios_per_host_s": "IO/s",
    "events_per_io": "events",
    "peak_rss_mib": "MiB",
    "sim_kiops": "kIOPS",
    "sim_gib_s": "GiB/s",
}

#: Stations whose measured-window utilization is reported; a station a
#: workload does not have reads 0.  ``storage.xs`` pools every engine
#: xstream (8 per SSD).
STATIONS = (
    "dpu.arm_rx", "dpu.cpu", "dpu.daos_progress", "net.dpu.rx",
    "net.dpu.tx", "net.storage.rx", "net.storage.tx", "storage.cpu",
    "storage.tcp_rx", "storage.tcp_stack", "storage.xs", "nvme.ssd0",
    "nvme.ssd1", "nvme.ssd2", "nvme.ssd3",
)

#: Fault counters reported on every workload (0 without a fault plan).
FAULTS = ("retries", "reconnects", "timeouts", "replies_dropped", "failed",
          "lost")

#: Simulated headline bands from EXPERIMENTS.md: (metric, low, high).
PAPER_BANDS = {
    "tcp-randread-4k-doctor": ("iops", 0.18e6, 0.23e6),
    "rdma-write-1m-4ssd": ("gib_s", 10.0, 11.0),
}

#: The doctor must blame this station first, with a share in this range.
DOCTOR_TOP = ("dpu.arm_rx", 0.81, 0.91)

#: The seed ``expected.json`` was recorded at.
DIGEST_SEED = 7


def per_layer_units(layers_mod) -> Dict[str, str]:
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for phase in layers_mod.PHASES:
        units[f"phase.{phase}_s"] = "s"
        units[f"phase.{phase}_events"] = "events"
    units["sim.host_us_per_event"] = "us"
    for group in layers_mod.GROUPS:
        units[f"self_us_per_io.{group}"] = "us"
    for group, _module, cls, methods in layers_mod.BOUNDARIES:
        for m in methods:
            units[f"calls_per_io.{group.split('.')[0]}.{cls}.{m}"] = "calls"
    units["trace.overhead_x"] = "x"
    for st in STATIONS:
        units[f"util.{st}"] = "share"
    for res in ("dpu.arm_rx", "nvme.ssd0", "fault"):
        units[f"blame_share.{res}"] = "share"
    for f in FAULTS:
        units[f"faults.{f}"] = "count"
    units["obs.overhead_x"] = "x"
    units["obs.extra_events_per_io"] = "events"
    return units


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    """What one cell run leaves behind for the metrics and checks."""

    result: object  # FioResult
    env: object
    blame: Optional[List[dict]] = None
    fault_stats: Optional[dict] = None
    lost: int = 0


def _plain(w: Workload, seed: int, runtime: float, plan=None) -> Cell:
    """A Fig. 5 cell as ``runner._build_fig5`` lays it out, unobserved."""
    from repro.bench import runner

    system, spec = runner._build_fig5(
        w.transport, "dpu", w.rw, w.bs, w.numjobs, n_ssds=w.ssds,
        iodepth=w.iodepth, runtime=runtime, seed=seed, fault_plan=plan)
    result = runner.run_ros2_fio(system, replace(spec, record_latency=True))
    system.env.run()
    return Cell(result=result, env=system.env)


def run_cell(w: Workload, seed: int, scale: float, plain: bool = False
             ) -> Cell:
    """Build, set up, run and drain one cell; ``plain`` drops observation.

    Every cell ends by running the event heap dry, so each operation in
    flight at the stop flag completes or fails before the cell returns.
    """
    from repro.bench import runner
    from repro.bench.chaos import default_qp_break_plan
    from repro.sim.doctor import blame_ranking, diagnose

    runtime = w.runtime * scale
    if w.kind == "chaos":
        plan = default_qp_break_plan("dpu", runtime)
        if plain:
            return _plain(w, seed, runtime, plan=plan)
        ch = runner.run_fig5_chaos(
            w.transport, "dpu", w.rw, w.bs, w.numjobs, plan, n_ssds=w.ssds,
            iodepth=w.iodepth, runtime=runtime, seed=seed)
        run = ch.run
        total_root = sum(s.duration for s in run.collector.roots())
        st = ch.stats
        return Cell(result=run.result, env=run.system.env,
                    blame=blame_ranking(run.tracer, total_root),
                    fault_stats=st.to_dict(),
                    lost=st.submitted - st.completed - st.failed)
    if w.kind == "doctor" and not plain:
        run = runner.run_fig5_doctored(
            w.transport, "dpu", w.rw, w.bs, w.numjobs, n_ssds=w.ssds,
            iodepth=w.iodepth, runtime=runtime, observe_sampler=False,
            seed=seed)
        diag = diagnose(run.result, run.collector, run.tracer,
                        stations=run.stations)
        env = run.system.env
        env.run()
        return Cell(result=run.result, env=env, blame=diag.blame)
    return _plain(w, seed, runtime)


def digest(result) -> dict:
    """The simulated outputs ``expected.json`` pins."""
    return {"total_ios": result.total_ios, "errors": result.errors,
            "iops": result.iops, "bandwidth": result.bandwidth,
            "latency": dict(result.latency)}


def timed_cell(w: Workload, seed: int, scale: float, plain: bool = False,
               on_measured=None):
    """One cell under the phase clock: ``(cell, clock)``."""
    from layers import PhaseClock

    gc.collect()
    with PhaseClock(on_measured=on_measured) as clock:
        cell = run_cell(w, seed, scale, plain=plain)
    return cell, clock


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_cell(name: str, w: Workload, cell: Cell, seed: int, scale: float,
               expected: dict) -> List[str]:
    """Failed correctness checks of one cell (empty when all pass)."""
    bad = []
    res = cell.result
    if seed == DIGEST_SEED and scale == 1:
        want = expected.get(name)
        if want is None:
            bad.append(f"expected.json has no digest for {name}")
        elif digest(res) != want:
            bad.append(f"simulated digest differs from expected.json: "
                       f"{digest(res)} != {want}")
    if cell.lost:
        bad.append(f"{cell.lost} operations lost in the drain")
    if scale == 1 and w.kind == "doctor":
        top, lo, hi = DOCTOR_TOP
        first = cell.blame[0] if cell.blame else {"resource": None,
                                                  "share": 0.0}
        if first["resource"] != top or not lo <= first["share"] <= hi:
            bad.append(f"doctor blames {first['resource']} at "
                       f"{first['share']:.3f}, want {top} in [{lo}, {hi}]")
    band = PAPER_BANDS.get(name)
    if scale == 1 and band is not None:
        metric, lo, hi = band
        value = res.iops if metric == "iops" else res.bandwidth_gib
        if not lo <= value <= hi:
            bad.append(f"simulated {metric} {value:.6g} outside the paper "
                       f"band [{lo:g}, {hi:g}]")
    return bad


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_pass(name: str, w: Workload, seed: int, seconds: float,
                    scale: float, expected: dict) -> dict:
    """Repeat the cell for ``seconds`` and report medians of each metric."""
    samples: Dict[str, List[float]] = {k: [] for k in END_TO_END}
    checks: List[str] = []
    first = None
    t_begin = time.perf_counter()
    while True:
        cell, clock = timed_cell(w, seed, scale)
        res = cell.result
        if first is None:
            first = cell
            checks += check_cell(name, w, cell, seed, scale, expected)
        elif digest(res) != digest(first.result):
            checks.append("a repeated cell changed its simulated outputs")
        samples["cell_s"].append(clock.cell_s)
        samples["setup_s"].append(clock.setup_s)
        samples["sim_ios_per_host_s"].append(
            res.total_ios / clock.cpu["measured"])
        samples["events_per_io"].append(
            clock.events["measured"] / res.total_ios)
        samples["sim_kiops"].append(res.kiops)
        samples["sim_gib_s"].append(res.bandwidth_gib)
        if time.perf_counter() - t_begin >= seconds:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["peak_rss_mib"].append(rss_mib)
    metrics = {k: _metric(statistics.median(v), END_TO_END[k])
               for k, v in samples.items()}
    return _report(first, checks, metrics, cells=len(samples["cell_s"]),
                   samples=samples)


def _report(cell: Cell, checks: List[str], metrics: dict, **extra) -> dict:
    res = cell.result
    return {
        "correct": not checks,
        "checks": checks,
        "attempted": res.total_ios + res.errors,
        "failed": res.errors,
        "metrics": metrics,
        "digest": digest(res),
        **extra,
    }


def _stations(system) -> Dict[str, list]:
    """``{station: [busy seconds, capacity]}``, xstreams pooled."""
    from repro.bench.runner import doctor_stations

    acc: Dict[str, list] = {}
    for s in doctor_stations(system):
        name = "storage.xs" if s.name.startswith("storage.xs") else s.name
        busy_cap = acc.setdefault(name, [0.0, 0])
        busy_cap[0] += s.busy_time
        busy_cap[1] += s.capacity
    return acc


def per_layer_pass(name: str, w: Workload, seed: int, scale: float,
                   expected: dict, out_dir: str) -> dict:
    """One traced cell, one timed cell and, if observed, its plain twin."""
    import layers

    units = per_layer_units(layers)
    m: Dict[str, float] = {}

    # The traced cell runs first, so the timed cell and its twin below
    # both run in a warm process.  The boundary timer and the station
    # snapshots bracket the measured window exactly.
    timer = layers.SelfTimer()
    marks: Dict[bool, tuple] = {}

    def on_measured(phase_clock, start):
        timer.env = phase_clock.env
        timer.sampling = start
        marks[start] = (timer.snapshot(), timer.top_s, phase_clock.env.now,
                        _stations(phase_clock.system))

    with timer:
        traced, traced_clock = timed_cell(w, seed, scale,
                                          on_measured=on_measured)
    cell, clock = timed_cell(w, seed, scale)
    res = cell.result
    ios = res.total_ios
    checks = check_cell(name, w, cell, seed, scale, expected)
    for phase in layers.PHASES:
        m[f"phase.{phase}_s"] = clock.cpu[phase]
        m[f"phase.{phase}_events"] = clock.events[phase]
    m["sim.host_us_per_event"] = (clock.cpu["measured"] * 1e6
                                  / clock.events["measured"])
    if digest(traced.result) != digest(res):
        checks.append("the traced cell changed the simulated outputs")
    if traced.env.events_processed != cell.env.events_processed:
        checks.append("the traced cell changed the kernel event count")
    (b0, top0, t0, st0), (b1, top1, t1, st1) = marks[True], marks[False]
    traced_s = traced_clock.wall["measured"]
    group_s = dict.fromkeys(layers.GROUPS, 0.0)
    aggregates = {}
    for bname, b in timer.boundaries.items():
        calls = b1[bname][0] - b0[bname][0]
        self_s = b1[bname][1] - b0[bname][1]
        group_s[b.group] += self_s
        m[f"calls_per_io.{b.package}.{bname}"] = calls / ios
        aggregates[bname] = {"layer": b.group, "calls_per_io": calls / ios,
                             "self_us_per_io": self_s * 1e6 / ios}
    group_s["sim.kernel"] = traced_s - (top1 - top0)
    for group, secs in group_s.items():
        m[f"self_us_per_io.{group}"] = secs * 1e6 / ios
    m["trace.overhead_x"] = traced_s / clock.wall["measured"]
    for st in STATIONS:
        busy1, cap = st1.get(st, (0.0, 1))
        busy0 = st0.get(st, (0.0, 1))[0]
        m[f"util.{st}"] = (busy1 - busy0) / ((t1 - t0) * cap)
    with open(os.path.join(out_dir, f"trace-{name}.json"), "w") as fh:
        json.dump(layers.trace_document(timer, name, aggregates), fh)

    shares = {row["resource"]: row["share"] for row in cell.blame or ()}
    m["blame_share.dpu.arm_rx"] = shares.get("dpu.arm_rx", 0.0)
    m["blame_share.nvme.ssd0"] = shares.get("nvme.ssd0", 0.0)
    m["blame_share.fault"] = sum((v for k, v in shares.items()
                                  if k.startswith("fault:")), 0.0)
    stats = cell.fault_stats or {}
    for f in FAULTS:
        m[f"faults.{f}"] = cell.lost if f == "lost" else stats.get(f, 0)

    m["obs.overhead_x"] = 1.0
    m["obs.extra_events_per_io"] = 0.0
    if cell.blame is not None:
        twin, twin_clock = timed_cell(w, seed, scale, plain=True)
        if digest(twin.result) != digest(res):
            checks.append("observing the cell changed its simulated outputs")
        m["obs.overhead_x"] = clock.cell_s / twin_clock.cell_s
        m["obs.extra_events_per_io"] = (
            clock.events["measured"] - twin_clock.events["measured"]) / ios
    metrics = {k: _metric(m[k], u) for k, u in units.items()}
    return _report(cell, checks, metrics, cells=1,
                   traced_host_us_per_io=traced_s * 1e6 / ios)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def import_simulator() -> str:
    """Import every simulator module so no import runs on the clock."""
    import importlib
    import pkgutil

    import repro

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(mod.name)
    return repro.__file__


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True,
                    help="the src/ directory the simulator must come from")
    args = ap.parse_args(argv)

    origin = import_simulator()
    src = os.path.realpath(args.src)
    if not os.path.realpath(origin).startswith(src + os.sep):
        print(f"error: repro imported from {origin}, not from {src}",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    w = WORKLOADS[args.workload]
    if args.trace:
        report = per_layer_pass(args.workload, w, args.seed, args.scale,
                                expected, args.out)
    else:
        report = end_to_end_pass(args.workload, w, args.seed, args.seconds,
                                 args.scale, expected)
    report["sim"] = {"ios": report["digest"]["total_ios"],
                     **{f"lat_{k}_us": v * 1e6 for k, v in
                        report["digest"]["latency"].items() if k != "count"}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
