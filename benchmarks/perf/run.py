"""Host-cost benchmark of the simulator on four Fig. 5 cells.

Runs each workload in a fresh single-threaded subprocess (``cell.py``)
that imports the simulator from this checkout's ``src/``, prints every
metric by name and unit, checks the simulated outputs and writes
``OUT/results.json``.  The last line of output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 benchmarks/perf/run.py                       # all four, ~92 s
    python3 benchmarks/perf/run.py --workload rdma-randread-4k --seed 3 \\
        --seconds 20 --trace 0
    python3 benchmarks/perf/run.py --trace 1             # per-layer metrics
    python3 benchmarks/perf/run.py --repeat 5 --out /tmp/a   # for compare.py
    python3 benchmarks/perf/run.py --smoke               # plumbing, ~10 s

Exit codes: 0 when every check passes, 1 when a check fails, 2 on bad
input (before anything is simulated).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from cell import END_TO_END, WORKLOADS  # noqa: E402

#: Elapsed seconds each workload keeps repeating its cell; the command in
#: BENCHMARK.json is run with its ``run_seconds`` (the same value) as
#: ``--seconds``.
DEFAULT_SECONDS = 20.0

#: Smoke runs shrink every simulated window by this factor, one cell each.
SMOKE_SCALE = 1 / 20

#: A worker gets ``--seconds`` plus this long, for its imports, the cell
#: still running when the time is up, or the traced pass's two or three
#: cells; one that is not done by then is killed and the run fails.
WORKER_SLACK_S = 120

#: RDMA must reach this multiple of TCP's 4 KiB IOPS ("often 2x or more").
RDMA_OVER_TCP = 2.0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description="Time the simulator on four Fig. 5 workloads.")
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="run only this workload (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=7,
                    help="workload seed (default 7, the pinned digest seed)")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="elapsed seconds each workload repeats its cell "
                         "(ignored by --trace 1)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: report the per-layer metrics instead")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs of every workload, interleaved")
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for results.json and trace files")
    ap.add_argument("--smoke", action="store_true",
                    help=f"one cell per workload at {SMOKE_SCALE:g} of its "
                         "window; checks that need the full window are off")
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must not be negative")
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    return args


def spawn_worker(name: str, args, scale: float, seconds: float) -> dict:
    """Run one workload in a fresh process and return its report."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "cell.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--scale", repr(scale), "--out", args.out, "--src", src]
    timeout = seconds + WORKER_SLACK_S
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return _failed(f"{name}: worker exceeded {timeout:g} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _failed(f"{name}: worker exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _failed(why: str) -> dict:
    return {"correct": False, "checks": [why], "attempted": 0, "failed": 0,
            "metrics": {}, "digest": None}


def print_report(name: str, rep: dict) -> None:
    print(f"== {name}: {'ok' if rep['correct'] else 'CHECK FAILED'} "
          f"({rep.get('cells', 0)} cell(s), {rep['attempted']} simulated "
          f"IOs, {rep['failed']} failed)")
    for check in rep["checks"]:
        print(f"   check failed: {check}")
    for metric, mv in rep["metrics"].items():
        print(f"   {metric:44s} {mv['value']:>16.6g} {mv['unit']}")
    for metric, value in rep.get("sim", {}).items():
        print(f"   sim {metric:40s} {value:>16.6g}")


def cross_checks(runs: Dict[str, List[dict]]) -> List[str]:
    """Checks that need two workloads of the same invocation."""
    rdma, tcp = runs.get("rdma-randread-4k"), runs.get(
        "tcp-randread-4k-doctor")
    bad = []
    if rdma and tcp:
        for a, b in zip(rdma, tcp):
            if a["digest"] and b["digest"] and (
                    a["digest"]["iops"] < RDMA_OVER_TCP * b["digest"]["iops"]):
                bad.append(f"RDMA 4 KiB IOPS {a['digest']['iops']:.6g} is "
                           f"below {RDMA_OVER_TCP}x TCP "
                           f"{b['digest']['iops']:.6g}")
    return bad


def summary(runs: Dict[str, List[dict]], extra_checks: List[str]) -> dict:
    """The last output line: medians over repeats of each metric.

    With more than one workload the metric names are prefixed by the
    workload.
    """
    reports = [r for reps in runs.values() for r in reps]
    metrics = {}
    for name, reps in runs.items():
        prefix = "" if len(runs) == 1 else f"{name}."
        for metric, mv in reps[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in reps
                      if metric in r["metrics"]]
            metrics[prefix + metric] = {"value": statistics.median(values),
                                        "unit": mv["unit"]}
    return {
        "correct": all(r["correct"] for r in reports) and not extra_checks,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator source under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create --out {args.out}: {exc}", file=sys.stderr)
        return 2
    if not os.access(args.out, os.W_OK):
        print(f"error: --out {args.out} is not writable", file=sys.stderr)
        return 2
    args.out = os.path.abspath(args.out)
    names = args.workload or list(WORKLOADS)
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = 0.0 if args.smoke else args.seconds

    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for _ in range(args.repeat):
        for name in names:
            rep = spawn_worker(name, args, scale, seconds)
            runs[name].append(rep)
            print_report(name, rep)
    extra = cross_checks(runs)
    for check in extra:
        print(f"check failed: {check}")

    doc = {"seed": args.seed, "trace": args.trace, "seconds": seconds,
           "scale": scale, "end_to_end": END_TO_END, "runs": runs}
    with open(os.path.join(args.out, "results.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    result = summary(runs, extra)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
