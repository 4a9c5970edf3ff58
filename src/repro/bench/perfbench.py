"""Wall-clock performance harness for the simulation kernel (BENCH seed).

The simulator's *outcomes* are pinned bit-exactly by the fig. 5 CI
baseline; this module pins how *fast* those outcomes are produced.  It
measures three layers:

* **Kernel** — raw event dispatch rate of the heap/generator core
  (events per wall-second on a timeout ping-pong with no model code).
* **Pipe** — simulated MiB moved per wall-second through a
  :class:`~repro.sim.queues.BandwidthPipe`, coalesced vs. the classic
  chunk-per-event reference, plus kernel events per 1 MiB transfer —
  the direct measurement behind the "≥4× fewer events per uncontended
  1 MiB IO" claim (observed: chunked ≈ tens of events, coalesced ≈ a
  handful, independent of payload size).
* **Fig. 5 cells** — end-to-end wall-clock of small fig. 5 CI cells
  (warmup + repeated runs, min taken), with
  :attr:`~repro.sim.core.Environment.events_processed` and events/IO
  recorded for each.
* **Campaign** — the parallel campaign executor
  (:mod:`repro.bench.campaign`) on a small fig. 5 grid: serial vs
  ``--jobs N`` wall-clock, the fully-cached re-run, and a byte-identity
  census of the serial and parallel ledgers.  Parallel speedup is
  hardware-dependent (a 1-core container shows ~1x); the cached re-run
  and the mismatch count are the machine-independent signals.

Methodology: every sample is min-of-``repeat`` with ``warmup`` discarded
runs and a ``gc.collect()`` before each timed run.  Min (not mean) is
the standard wall-clock estimator for a deterministic workload — all
variance is machine noise, so the minimum is the least-noisy sample.
Cross-machine numbers are *not* comparable; regression gating
(:func:`check_against_baseline`) therefore uses a generous relative
threshold (default 30%) on rate metrics and treats the deterministic
event counts as the precise signal.

Output is a ``repro-perfbench-v1`` JSON document (``BENCH_perf.json`` at
the repo root records one full run together with the pre-optimisation
reference numbers).  CLI::

    python -m repro.bench.cli perf --quick          # CI smoke (~seconds)
    python -m repro.bench.cli perf --out BENCH_perf.json
    python -m repro.bench.cli perf --quick --check benchmarks/baselines/perf_smoke.json
"""

from __future__ import annotations

import gc
import json
import platform
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.hw.specs import MIB
from repro.sim.core import Environment
from repro.sim.queues import BandwidthPipe

__all__ = [
    "bench_kernel",
    "bench_pipe",
    "bench_fig5_cells",
    "bench_campaign",
    "run_perfbench",
    "check_against_baseline",
    "FIG5_CELLS",
    "QUICK_FIG5_CELLS",
    "SEED_REFERENCE",
]

FORMAT = "repro-perfbench-v1"

#: The fig. 5 CI cells the harness times: tag -> (provider, client, rw,
#: bs, numjobs, runtime).  Small enough to repeat, big enough that the
#: kernel (not interpreter startup) dominates.
FIG5_CELLS: Dict[str, Tuple[str, str, str, int, int, float]] = {
    "tcp_j4_r15": ("tcp", "dpu", "read", MIB, 4, 0.15),
    "tcp_j1_r15": ("tcp", "dpu", "read", MIB, 1, 0.15),
    "tcp_j1_r05": ("tcp", "dpu", "read", MIB, 1, 0.05),
    "tcp_w_j4_r15": ("tcp", "dpu", "write", MIB, 4, 0.15),
    "rdma_rr4k_j16_r015": ("rdma", "dpu", "randread", 4096, 16, 0.015),
}

#: The subset CI runs: one streaming TCP cell, and the paper's headline
#: small-IO cell (4 KiB RDMA randread on the DPU).  Its window is long
#: enough that setup stays small next to ~15 events/IO, so a single extra
#: event per IO (+5.5%) fails the 5% count gate.
QUICK_FIG5_CELLS = ("tcp_j1_r05", "rdma_rr4k_j16_r015")

#: Pre-optimisation wall-clock of the same cells on the machine that
#: recorded BENCH_perf.json (min of repeated paired A/B runs against the
#: seed tree).  Embedded so the document carries its own before/after
#: story; *not* used for gating (wall-clock is machine-specific).
SEED_REFERENCE = {
    "methodology": (
        "paired A/B against the seed tree on one machine; per cell: "
        "2 warmup runs, then min over >=5 timed runs per round, min "
        "across rounds; gc.collect() before each timed run"
    ),
    "fig5_wall_s": {
        "tcp_j4_r15": 0.1914,
        "tcp_j1_r15": 0.1230,
        "tcp_j1_r05": 0.0555,
        "tcp_w_j4_r15": 0.1563,
    },
    "events_per_uncontended_1mib_transfer": 17.0,  # 16 chunk serves + tail
}

#: Pointer into the run ledger: where the durable run history lives and
#: which committed reference campaign ``compare-runs`` diffs against.
#: Carried in every perfbench document so ``BENCH_perf.json`` records
#: the trajectory even after regeneration.
TRAJECTORY = {
    "ledger_dir": "benchmarks/ledger",
    "reference_campaign": "fig5-2026-08 (tcp/rdma x 4KiB/1MiB, dpu client)",
    "compare": "python -m repro.bench.cli compare-runs "
               "fig5-tcp-dpu-randread-4096 fig5-rdma-dpu-randread-4096",
}


def _min_wall(fn: Callable[[], object], repeat: int, warmup: int
              ) -> Tuple[float, object]:
    """Min wall-clock over ``repeat`` timed runs after ``warmup`` runs."""
    result = None
    for _ in range(max(0, warmup)):
        result = fn()
    best = float("inf")
    for _ in range(max(1, repeat)):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best, result


# ---------------------------------------------------------------------------
# Layer 1 — kernel event dispatch
# ---------------------------------------------------------------------------

def bench_kernel(n_events: int = 200_000, repeat: int = 3, warmup: int = 1
                 ) -> dict:
    """Raw dispatch rate: ``n_events`` zero-work timeouts through the heap.

    Two interleaved processes yield timeouts so both the recycled-
    :class:`~repro.sim.core.Timeout` fast path and process resumption are
    on the measured path — the same shape as model code hot loops.
    """
    counters = {}

    def once():
        env = Environment()

        def ticker(env, period):
            while True:
                yield env.timeout(period)

        env.process(ticker(env, 1.0))
        env.process(ticker(env, 1.5))
        # Each ticker contributes ~until/period events; pick `until` so the
        # total is ~n_events.
        until = n_events / (1 / 1.0 + 1 / 1.5)
        env.run(until=until)
        counters["events"] = env.events_processed
        counters["recycled"] = env.timeouts_recycled
        return env

    wall, _ = _min_wall(once, repeat, warmup)
    events = counters["events"]
    return {
        "n_events": events,
        "timeouts_recycled": counters["recycled"],
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# Layer 2 — bandwidth pipe, coalesced vs chunked reference
# ---------------------------------------------------------------------------

def bench_pipe(total_bytes: int = 512 * MIB, transfer_bytes: int = MIB,
               repeat: int = 3, warmup: int = 1) -> dict:
    """Uncontended sequential transfers through one pipe, both modes.

    Returns per-mode wall time, simulated MiB per wall-second, and kernel
    events per transfer — the coalescing win in its purest form.
    """
    n_transfers = max(1, total_bytes // transfer_bytes)

    def run_mode(coalesce: bool):
        counters = {}

        def once():
            env = Environment()
            pipe = BandwidthPipe(env, bandwidth=10e9, latency=1e-6,
                                 coalesce=coalesce)

            def mover(env):
                for _ in range(n_transfers):
                    yield from pipe.transfer(transfer_bytes)

            p = env.process(mover(env))
            env.run(until=p)
            counters["events"] = env.events_processed
            counters["coalesced_ops"] = pipe.coalesced_ops
            counters["bytes_moved"] = pipe.bytes_moved
            return env

        wall, _ = _min_wall(once, repeat, warmup)
        sim_mib = n_transfers * transfer_bytes / MIB
        return {
            "wall_s": wall,
            "sim_mib": sim_mib,
            "sim_mib_per_wall_sec": sim_mib / wall if wall > 0 else 0.0,
            "events": counters["events"],
            "events_per_transfer": counters["events"] / n_transfers,
            "coalesced_ops": counters["coalesced_ops"],
            "bytes_moved": counters["bytes_moved"],
        }

    coalesced = run_mode(True)
    chunked = run_mode(False)
    ratio = (chunked["events_per_transfer"] / coalesced["events_per_transfer"]
             if coalesced["events_per_transfer"] else 0.0)
    return {
        "transfer_bytes": transfer_bytes,
        "n_transfers": n_transfers,
        "coalesced": coalesced,
        "chunked": chunked,
        "event_reduction_x": ratio,
    }


# ---------------------------------------------------------------------------
# Layer 3 — fig. 5 CI cells, end to end
# ---------------------------------------------------------------------------

def bench_fig5_cells(cells: Optional[Dict[str, tuple]] = None,
                     repeat: int = 3, warmup: int = 1) -> dict:
    """Wall-clock + event census of small fig. 5 cells.

    Uses the same builders as ``cli fig5`` (fresh environment per run) so
    the number is exactly "how long one CI cell takes".  Events/IO uses
    the *total* dispatched events over total completed IOs — it includes
    setup and prefill, so it is an upper bound on the steady-state cost.
    """
    from repro.bench.runner import _build_fig5, run_ros2_fio

    cells = FIG5_CELLS if cells is None else cells
    out = {}
    for tag, (prov, client, rw, bs, jobs, runtime) in cells.items():
        stats: Dict[str, float] = {}

        def once(prov=prov, client=client, rw=rw, bs=bs, jobs=jobs,
                 runtime=runtime, stats=stats):
            system, spec = _build_fig5(prov, client, rw, bs, jobs,
                                       n_ssds=1, runtime=runtime)
            result = run_ros2_fio(system, spec)
            stats["events"] = system.env.events_processed
            stats["recycled"] = system.env.timeouts_recycled
            stats["total_ios"] = result.total_ios
            return result

        wall, _ = _min_wall(once, repeat, warmup)
        ios = stats["total_ios"]
        out[tag] = {
            "spec": {"provider": prov, "client": client, "rw": rw,
                     "bs": bs, "numjobs": jobs, "runtime": runtime},
            "wall_s": wall,
            "total_ios": ios,
            "events_processed": stats["events"],
            "timeouts_recycled": stats["recycled"],
            "events_per_io": stats["events"] / ios if ios else 0.0,
            "ios_per_wall_sec": ios / wall if wall > 0 else 0.0,
        }
    return out


# ---------------------------------------------------------------------------
# Layer 4 — campaign executor (parallel + cache)
# ---------------------------------------------------------------------------

def bench_campaign(jobs: int = 4, quick: bool = False, repeat: int = 3,
                   warmup: int = 0) -> dict:
    """Campaign executor: serial vs parallel vs fully-cached wall-clock.

    Runs one small fig. 5 grid three ways into throwaway ledgers:

    1. serial (``jobs=1``, cache bypassed),
    2. parallel (``jobs=jobs``, cache bypassed),
    3. cached (re-run over the serial ledger — every cell should hit).

    Both volatile stamps are pinned so the serial and parallel ledgers
    must be **byte-identical**; ``records_mismatched`` counts files that
    differ or exist on only one side (0 is the only acceptable value —
    it is the determinism contract of :func:`repro.bench.campaign.run_campaign`).
    ``parallel_speedup_x`` is reported but *not* gated: it only exceeds
    1x when real cores are available (``cpu_count`` is recorded next to
    it so readers can judge).  The cached re-run is pure ledger-scan
    overhead, so ``cached_cells_per_sec`` is a stable, gateable rate.
    """
    import os
    import tempfile

    from repro.bench import campaign as cp

    grid: Dict[str, list] = {"transport": ["tcp", "rdma"], "numjobs": [1, 2]}
    if not quick:
        grid["rw"] = ["randread", "randwrite"]
    spec = {
        "format": cp.FORMAT,
        "name": "perfbench",
        "experiment": "fig5",
        "defaults": {"bs": "4k", "runtime": 0.02, "quick": True},
        "grid": grid,
    }
    n_cells = len(cp.expand_spec(spec))
    # Pinned volatile stamps: byte-identity between the serial and the
    # parallel ledger is then exact file equality, no stripping needed.
    stamp = {"git_sha": "perfbench", "created": "1970-01-01T00:00:00Z"}

    with tempfile.TemporaryDirectory(prefix="perfbench-campaign-") as tmp:
        serial_dir = os.path.join(tmp, "serial")
        parallel_dir = os.path.join(tmp, "parallel")

        gc.collect()
        t0 = time.perf_counter()
        serial = cp.run_campaign(spec, jobs=1, ledger_dir=serial_dir,
                                 force=True, **stamp)
        serial_wall = time.perf_counter() - t0

        gc.collect()
        t0 = time.perf_counter()
        parallel = cp.run_campaign(spec, jobs=jobs, ledger_dir=parallel_dir,
                                   force=True, **stamp)
        parallel_wall = time.perf_counter() - t0

        names = sorted(set(os.listdir(serial_dir)) | set(os.listdir(parallel_dir)))
        mismatched = 0
        for name in names:
            a, b = os.path.join(serial_dir, name), os.path.join(parallel_dir, name)
            if not (os.path.exists(a) and os.path.exists(b)):
                mismatched += 1
                continue
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    mismatched += 1

        cache_hits = {}

        def cached_once():
            result = cp.run_campaign(spec, jobs=1, ledger_dir=serial_dir,
                                     **stamp)
            cache_hits["n"] = result.counts().get("cached", 0)
            return result

        cached_wall, _ = _min_wall(cached_once, repeat, warmup)

    return {
        "jobs": jobs,
        "n_cells": n_cells,
        "cpu_count": os.cpu_count() or 1,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "parallel_speedup_x":
            serial_wall / parallel_wall if parallel_wall > 0 else 0.0,
        "cached_wall_s": cached_wall,
        "cached_speedup_x":
            serial_wall / cached_wall if cached_wall > 0 else 0.0,
        "serial_cells_per_sec": n_cells / serial_wall if serial_wall > 0 else 0.0,
        "cached_cells_per_sec": n_cells / cached_wall if cached_wall > 0 else 0.0,
        "cache_hits": cache_hits.get("n", 0),
        "cache_misses": n_cells - cache_hits.get("n", 0),
        "records_mismatched": mismatched,
        "errors": len(serial.errors) + len(parallel.errors),
    }


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

def bench_simlint(repeat: int = 3, warmup: int = 1) -> dict:
    """Layer 5 — the determinism linter itself.

    Times a full ``simlint`` pass (AST parse + all six SIM rules) over
    the installed ``repro`` package, so a rule that quietly goes
    quadratic shows up in BENCH_perf.json before it shows up as a slow
    CI ``lint-gate``.  ``files_per_sec`` is the gated rate;
    ``parse_errors`` is a deterministic count gated at zero.
    ``findings_raw`` (pre-baseline findings) is reported ungated — it
    legitimately moves as the tree and its suppression baseline evolve.
    """
    import os as _os

    import repro
    from repro.analysis import lint_paths

    pkg_dir = _os.path.dirname(repro.__file__)
    wall, report = _min_wall(lambda: lint_paths([pkg_dir]), repeat, warmup)
    assert report is not None
    return {
        "files": report.files_checked,
        "rules": 6,
        "findings_raw": len(report.findings),
        "parse_errors": len(report.parse_errors),
        "wall_s": wall,
        "files_per_sec": report.files_checked / wall if wall > 0 else 0.0,
    }


def run_perfbench(quick: bool = False, repeat: int = 3, warmup: int = 1
                  ) -> dict:
    """Run all three layers; returns the ``repro-perfbench-v1`` document."""
    if quick:
        kernel = bench_kernel(n_events=50_000, repeat=repeat, warmup=warmup)
        pipe = bench_pipe(total_bytes=128 * MIB, repeat=repeat, warmup=warmup)
        cells = {t: FIG5_CELLS[t] for t in QUICK_FIG5_CELLS}
        campaign = bench_campaign(jobs=2, quick=True, repeat=repeat)
    else:
        kernel = bench_kernel(repeat=repeat, warmup=warmup)
        pipe = bench_pipe(repeat=repeat, warmup=warmup)
        cells = FIG5_CELLS
        campaign = bench_campaign(jobs=4, quick=False, repeat=repeat)
    fig5 = bench_fig5_cells(cells, repeat=repeat, warmup=warmup)
    simlint = bench_simlint(repeat=repeat, warmup=warmup)
    doc = {
        "format": FORMAT,
        "quick": bool(quick),
        "repeat": repeat,
        "warmup": warmup,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "kernel": kernel,
        "pipe": pipe,
        "fig5": fig5,
        "campaign": campaign,
        "simlint": simlint,
        "seed_reference": SEED_REFERENCE,
        "trajectory": TRAJECTORY,
    }
    doc["summary"] = _summarize(doc)
    return doc


def _summarize(doc: dict) -> dict:
    """Headline numbers, including the honest before/after story."""
    ref = doc["seed_reference"]["fig5_wall_s"]
    speedups = {}
    for tag, cell in doc["fig5"].items():
        before = ref.get(tag)
        if before and cell["wall_s"] > 0:
            speedups[tag] = before / cell["wall_s"]
    camp = doc.get("campaign", {})
    return {
        "kernel_events_per_sec": doc["kernel"]["events_per_sec"],
        "pipe_event_reduction_x": doc["pipe"]["event_reduction_x"],
        "pipe_coalesced_sim_mib_per_wall_sec":
            doc["pipe"]["coalesced"]["sim_mib_per_wall_sec"],
        "fig5_speedup_vs_seed": speedups,
        "campaign_parallel_speedup_x": camp.get("parallel_speedup_x"),
        "campaign_cached_speedup_x": camp.get("cached_speedup_x"),
        "campaign_records_mismatched": camp.get("records_mismatched"),
        "simlint_files_per_sec": doc.get("simlint", {}).get("files_per_sec"),
        "note": (
            "fig5_speedup_vs_seed divides the committed seed-reference "
            "wall-clock (recorded on the reference machine) by this "
            "run's wall-clock; only meaningful on comparable hardware"
        ),
    }


# ---------------------------------------------------------------------------
# Regression gate (CI)
# ---------------------------------------------------------------------------

#: (path, kind) gated metrics.  "rate" = higher is better, gated at
#: ``max_regression`` (wall-clock noise tolerance); "count" = lower is
#: better and deterministic, gated tightly (events creeping back in is
#: exactly the regression this harness exists to catch).
_GATED = [
    (("kernel", "events_per_sec"), "rate"),
    (("pipe", "coalesced", "sim_mib_per_wall_sec"), "rate"),
    (("pipe", "coalesced", "events_per_transfer"), "count"),
    (("pipe", "event_reduction_x"), "ratio"),
    # Campaign executor: throughput rates absorb machine noise (30%
    # derate); the mismatch and error counts are deterministic and
    # gated at a hard 0 (baseline 0, so any growth fails).  The
    # parallel speedup is deliberately NOT gated — it depends on core
    # count, which CI runners do not guarantee.
    (("campaign", "serial_cells_per_sec"), "rate"),
    (("campaign", "cached_cells_per_sec"), "rate"),
    (("campaign", "records_mismatched"), "count"),
    (("campaign", "errors"), "count"),
    # simlint: throughput absorbs machine noise; a parse error in the
    # package tree is deterministic breakage, gated at a hard 0.
    (("simlint", "files_per_sec"), "rate"),
    (("simlint", "parse_errors"), "count"),
]


def _dig(doc: dict, path: tuple) -> Optional[float]:
    cur = doc
    for key in path:
        if not isinstance(cur, dict) or key not in cur:
            return None
        cur = cur[key]
    return float(cur) if isinstance(cur, (int, float)) else None


def check_against_baseline(current: dict, baseline: dict,
                           max_regression: float = 0.30) -> List[str]:
    """Return a list of failure strings (empty = pass).

    Rate metrics may drop by at most ``max_regression`` relative to the
    baseline (absorbs machine noise); deterministic event counts may not
    grow by more than 5%, and the event-reduction ratio may not fall
    below 4x (the acceptance floor) nor by more than 5% vs baseline.
    """
    failures = []
    gated = list(_GATED)
    for tag in baseline.get("fig5", {}):
        gated.append((("fig5", tag, "events_per_io"), "count"))
    for path, kind in gated:
        base = _dig(baseline, path)
        cur = _dig(current, path)
        name = ".".join(str(p) for p in path)
        if base is None:
            continue  # metric absent from baseline: nothing to gate
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        if kind == "rate":
            floor = base * (1.0 - max_regression)
            if cur < floor:
                failures.append(
                    f"{name}: {cur:.4g} < {floor:.4g} "
                    f"(baseline {base:.4g}, max regression "
                    f"{max_regression * 100:.0f}%)")
        elif kind == "count":
            ceil = base * 1.05
            if cur > ceil:
                failures.append(
                    f"{name}: {cur:.4g} > {ceil:.4g} "
                    f"(baseline {base:.4g}, +5% tolerance)")
        elif kind == "ratio":
            if cur < 4.0:
                failures.append(f"{name}: {cur:.4g} < 4.0 (acceptance floor)")
            elif cur < base * 0.95:
                failures.append(
                    f"{name}: {cur:.4g} < {base * 0.95:.4g} "
                    f"(baseline {base:.4g}, -5% tolerance)")
    return failures


def render_summary(doc: dict) -> str:
    """Human-readable one-screen report."""
    k = doc["kernel"]
    p = doc["pipe"]
    lines = [
        "perfbench — simulation kernel wall-clock",
        f"  kernel : {k['events_per_sec'] / 1e6:.2f} M events/s "
        f"({k['n_events']} events, {k['timeouts_recycled']} recycled timeouts)",
        f"  pipe   : coalesced {p['coalesced']['sim_mib_per_wall_sec']:.0f} "
        f"sim-MiB/s @ {p['coalesced']['events_per_transfer']:.1f} ev/xfer; "
        f"chunked {p['chunked']['sim_mib_per_wall_sec']:.0f} sim-MiB/s @ "
        f"{p['chunked']['events_per_transfer']:.1f} ev/xfer "
        f"({p['event_reduction_x']:.1f}x fewer events)",
    ]
    ref = doc["seed_reference"]["fig5_wall_s"]
    for tag, cell in doc["fig5"].items():
        extra = ""
        before = ref.get(tag)
        if before:
            extra = (f"  [seed ref {before * 1e3:.1f} ms -> "
                     f"{before / cell['wall_s']:.2f}x]")
        lines.append(
            f"  fig5   : {tag:14s} {cell['wall_s'] * 1e3:7.1f} ms, "
            f"{cell['events_processed']} events / {cell['total_ios']} IOs "
            f"= {cell['events_per_io']:.0f} ev/IO{extra}")
    c = doc.get("campaign")
    if c:
        lines.append(
            f"  campaign: {c['n_cells']} cells — serial "
            f"{c['serial_wall_s'] * 1e3:.0f} ms, jobs={c['jobs']} "
            f"{c['parallel_wall_s'] * 1e3:.0f} ms "
            f"({c['parallel_speedup_x']:.2f}x on {c['cpu_count']} cpu), "
            f"cached {c['cached_wall_s'] * 1e3:.1f} ms "
            f"({c['cached_speedup_x']:.0f}x), "
            f"{c['records_mismatched']} mismatched records")
    s = doc.get("simlint")
    if s:
        lines.append(
            f"  simlint : {s['files']} files in {s['wall_s'] * 1e3:.0f} ms "
            f"({s['files_per_sec']:.0f} files/s, "
            f"{s['findings_raw']} raw findings, "
            f"{s['parse_errors']} parse errors)")
    return "\n".join(lines)


def save_doc(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
