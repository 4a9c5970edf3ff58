"""The virtual-time race sanitizer.

A deterministic discrete-event simulation makes two promises that
nothing in the type system enforces:

1. **Hash-seed independence** — no outcome may depend on Python's
   per-process string-hash randomization (``set`` iteration order,
   pre-3.7 ``dict`` assumptions, ``id()``-keyed containers).
2. **Tie independence of the headline metrics** — when two events carry
   the *same* virtual timestamp and priority, the kernel breaks the tie
   FIFO by event ID.  That order is an implementation detail: any code
   whose *headline metrics* change materially when equal-time pop order
   is permuted has a hidden happens-before assumption — a virtual-time
   race.

The sanitizer attacks both axes on a quick Fig. 5 cell:

* it re-runs the cell with the kernel's seeded **tie scramble**
  (:func:`repro.sim.core.tie_scramble`) permuting equal-``(time,
  priority)`` pop order, for several shuffle seeds;
* it re-runs each shuffled cell under two different ``PYTHONHASHSEED``
  values (which requires a subprocess — the hash seed is fixed at
  interpreter start);

then diffs the stripped ledger records.  The gates are deliberately of
different strength:

* **hash axis: byte identity.**  Changing ``PYTHONHASHSEED`` does not
  change the schedule, so the full stripped record — attribution
  sections and the event ``cost`` included — must be byte-identical.  Any diff is a real
  hash-order dependence.
* **tie axis: metric envelope.**  A tie permutation produces a
  *different but equally valid* execution: requests swap queue slots,
  so per-request attribution (flame stacks, sampled spans) legitimately
  tracks the realized schedule, and windowed counters can shift by one
  IO at the measurement boundary (observed ≤ 2.5e-4 relative on the
  quick cells).  The gate therefore compares the ``metrics`` section
  under a tight quantization envelope — default 2e-3 relative, 1e-2
  for extreme-value tail statistics (``.max``/``.p99``/``.p999``).
  Real races (unseeded RNG, hash-order grant loops) move metrics by
  percent-level amounts and blow through it.

On drift, the differential doctor (:func:`repro.sim.diffdoctor.
diff_runs`) is run between the reference and the drifting record to
blame the resource whose grant order diverged.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SANITIZE_FORMAT",
    "DEFAULT_TOLERANCE",
    "TAIL_TOLERANCE",
    "DEFAULT_SEEDS",
    "DEFAULT_HASH_SEEDS",
    "build_record",
    "compare_metrics",
    "sanitize_cell",
    "run_sanitizer",
    "render_sanitize",
]

SANITIZE_FORMAT = "repro-sanitize-v1"

#: Relative tolerance for ordinary metrics (rates, counts, means).
#: The observed tie-permutation envelope on the quick cells is ≤2.5e-4
#: (one IO crossing the measurement-window boundary); real races move
#: metrics by percent-level amounts.
DEFAULT_TOLERANCE = 2e-3

#: Relative tolerance for extreme-value tail statistics, which track a
#: single sample and are therefore the most schedule-sensitive.
TAIL_TOLERANCE = 1e-2

_TAIL_SUFFIXES = (".max", ".p99", ".p999")

DEFAULT_SEEDS: Tuple[int, ...] = (1, 2, 3, 4, 5)
DEFAULT_HASH_SEEDS: Tuple[int, ...] = (0, 12345)

#: The quick Fig. 5 cell sanitized on each transport: the DPU client's
#: 4 KiB random read with 16 jobs.
_CELL = {"client": "dpu", "rw": "randread", "bs": 4096, "numjobs": 16}


def build_record(
    transport: str,
    runtime: float = 0.02,
    tie_seed: Optional[int] = None,
) -> dict:
    """Run the doctored quick Fig. 5 cell and reduce it to a stripped record.

    The config deliberately excludes ``tie_seed``: the permuted run
    claims to be *the same experiment*, and the sanitizer's whole
    question is whether the record agrees.
    """
    from repro.bench import ledger
    from repro.bench.runner import run_fig5_doctored

    run = run_fig5_doctored(
        transport, _CELL["client"], _CELL["rw"], _CELL["bs"],
        _CELL["numjobs"], runtime=runtime, sample_every=20,
        observe_sampler=False, tie_seed=tie_seed)
    config = {"experiment": "fig5", "transport": transport, **_CELL,
              "runtime": runtime}
    record = ledger.make_run_record(
        run.result, run.collector, run.tracer, config=config,
        label=f"sanitize-{transport}", kind="sanitize")
    return ledger.strip_volatile(record)


def _tolerance_for(key: str) -> float:
    if key.endswith(_TAIL_SUFFIXES):
        return TAIL_TOLERANCE
    return DEFAULT_TOLERANCE


def compare_metrics(ref: dict, var: dict) -> List[dict]:
    """Drifted entries of the two records' ``metrics`` sections.

    Returns one row per metric whose relative delta exceeds its
    tolerance, plus rows for keys present on only one side (always
    drift: the metric namespace itself must be schedule-independent).
    """
    a = {k: float(v) for k, v in ref.get("metrics", {}).items()}
    b = {k: float(v) for k, v in var.get("metrics", {}).items()}
    drifted: List[dict] = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            drifted.append({"metric": key,
                            "ref": a.get(key), "var": b.get(key),
                            "rel": None, "tolerance": 0.0,
                            "why": "metric present on only one side"})
            continue
        denom = max(abs(a[key]), abs(b[key]), 1e-30)
        rel = abs(a[key] - b[key]) / denom
        tol = _tolerance_for(key)
        if rel > tol:
            drifted.append({"metric": key, "ref": a[key], "var": b[key],
                            "rel": rel, "tolerance": tol,
                            "why": "exceeds envelope"})
    return drifted


def _envelope_use(ref: dict, var: dict) -> Tuple[float, str]:
    """Worst rel-delta/tolerance ratio and the metric that sets it."""
    a = {k: float(v) for k, v in ref.get("metrics", {}).items()}
    b = {k: float(v) for k, v in var.get("metrics", {}).items()}
    worst, worst_key = 0.0, ""
    for key in a.keys() & b.keys():
        denom = max(abs(a[key]), abs(b[key]), 1e-30)
        use = (abs(a[key] - b[key]) / denom) / _tolerance_for(key)
        if use > worst:
            worst, worst_key = use, key
    return worst, worst_key


def _blame_drift(ref: dict, var: dict, label: str) -> List[dict]:
    """Rank resources by wait/service delta between the two records."""
    from repro.sim.diffdoctor import diff_runs

    diag = diff_runs(ref, var, label=label)
    return [
        {"resource": c["resource"], "delta": c["delta"],
         "delta_wait": c["delta_wait"], "delta_service": c["delta_service"]}
        for c in diag.contributors[:5]
    ]


# ---------------------------------------------------------------------------
# Subprocess orchestration
# ---------------------------------------------------------------------------

def _worker_argv(transport: str, runtime: float,
                 tie_seed: Optional[int]) -> List[str]:
    argv = [sys.executable, "-m", "repro.analysis.sanitizer", "--worker",
            "--transport", transport, "--runtime", repr(runtime)]
    if tie_seed is not None:
        argv += ["--tie-seed", str(tie_seed)]
    return argv


def _spawn(argv: List[str], hash_seed: int) -> "subprocess.Popen[str]":
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    # Ensure the worker resolves the same package tree as the parent.
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)


def _collect(proc: "subprocess.Popen[str]", what: str) -> str:
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(
            f"sanitizer worker failed ({what}, rc={proc.returncode}):\n"
            f"{err.strip()[-2000:]}")
    return out.strip()


def sanitize_cell(
    transport: str,
    runtime: float = 0.02,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    hash_seeds: Sequence[int] = DEFAULT_HASH_SEEDS,
) -> dict:
    """Sanitize one cell: 1 reference + len(seeds)*len(hash_seeds) runs.

    All workers are spawned concurrently (each is an independent
    single-threaded simulation); the OS schedules them.
    """
    def argv(tie_seed: Optional[int]) -> List[str]:
        return _worker_argv(transport, runtime, tie_seed)

    procs: Dict[Tuple[Optional[int], int], "subprocess.Popen[str]"] = {}
    procs[(None, hash_seeds[0])] = _spawn(argv(None), hash_seeds[0])
    for s in seeds:
        for h in hash_seeds:
            procs[(s, h)] = _spawn(argv(s), h)

    texts = {key: _collect(proc, f"tie_seed={key[0]} hash_seed={key[1]}")
             for key, proc in procs.items()}

    ref = json.loads(texts[(None, hash_seeds[0])])
    hash_mismatches: List[dict] = []
    drifts: List[dict] = []
    blame: List[dict] = []
    envelope_use, envelope_metric = 0.0, ""
    for s in seeds:
        # Hash axis: full stripped record must be byte-identical.
        base_text = texts[(s, hash_seeds[0])]
        for h in hash_seeds[1:]:
            if texts[(s, h)] != base_text:
                hash_mismatches.append({
                    "tie_seed": s, "hash_seeds": [hash_seeds[0], h],
                    "why": "stripped record differs across "
                           "PYTHONHASHSEED — hash-order dependence"})
        # Tie axis: metrics section within the quantization envelope.
        for h in hash_seeds:
            var = json.loads(texts[(s, h)])
            use, use_key = _envelope_use(ref, var)
            if use > envelope_use:
                envelope_use, envelope_metric = use, use_key
            rows = compare_metrics(ref, var)
            if rows:
                for row in rows:
                    drifts.append({"tie_seed": s, "hash_seed": h, **row})
                blame = _blame_drift(
                    ref, var, f"{transport} tie_seed={s}")

    ok = not hash_mismatches and not drifts
    return {
        "transport": transport, **_CELL, "runtime": runtime,
        "seeds": list(seeds), "hash_seeds": list(hash_seeds),
        "n_runs": 1 + len(seeds) * len(hash_seeds),
        "reference_iops": float(
            ref.get("metrics", {}).get("result.iops", 0.0)),
        "envelope_use": envelope_use,
        "envelope_metric": envelope_metric,
        "hash_mismatches": hash_mismatches,
        "drifted_metrics": drifts,
        "blame": blame,
        "ok": ok,
    }


def run_sanitizer(
    transports: Sequence[str] = ("rdma", "tcp"),
    runtime: float = 0.02,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    hash_seeds: Sequence[int] = DEFAULT_HASH_SEEDS,
) -> dict:
    """Sanitize the quick Fig. 5 cells; the ``repro-sanitize-v1`` doc."""
    cells = [sanitize_cell(t, runtime=runtime, seeds=seeds,
                           hash_seeds=hash_seeds)
             for t in transports]
    return {
        "format": SANITIZE_FORMAT,
        "tolerance": DEFAULT_TOLERANCE,
        "tail_tolerance": TAIL_TOLERANCE,
        "cells": cells,
        "ok": all(c["ok"] for c in cells),
    }


def render_sanitize(doc: dict) -> str:
    """Human-readable sanitizer report."""
    lines: List[str] = []
    for cell in doc.get("cells", []):
        status = "clean" if cell["ok"] else "RACE"
        lines.append(
            f"{cell['transport']}/{cell['client']} {cell['rw']} "
            f"bs={cell['bs']}: {status} — {cell['n_runs']} runs, "
            f"worst envelope use {cell['envelope_use'] * 100:.0f}% "
            f"({cell['envelope_metric'] or 'n/a'})")
        for m in cell["hash_mismatches"]:
            lines.append(f"  HASH RACE: tie_seed={m['tie_seed']} "
                         f"hash_seeds={m['hash_seeds']}: {m['why']}")
        for d in cell["drifted_metrics"][:10]:
            lines.append(
                f"  DRIFT: {d['metric']} {d['ref']} -> {d['var']} "
                f"(rel {d['rel']:.2e} > tol {d['tolerance']:.0e}) "
                f"[tie_seed={d['tie_seed']}]")
        for b in cell["blame"]:
            lines.append(
                f"  blame: {b['resource']} delta {b['delta']:+.3e} s "
                f"(wait {b['delta_wait']:+.3e}, "
                f"service {b['delta_service']:+.3e})")
    verdict = "ok" if doc.get("ok") else "VIRTUAL-TIME RACE DETECTED"
    lines.append(f"sanitize: {verdict}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Worker entry point (subprocess side)
# ---------------------------------------------------------------------------

def _worker_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.sanitizer",
        description="Worker mode: run one cell, print its stripped "
                    "canonical record on stdout.")
    parser.add_argument("--worker", action="store_true", required=True)
    parser.add_argument("--transport", required=True)
    parser.add_argument("--runtime", type=float, default=0.02)
    parser.add_argument("--tie-seed", type=int, default=None)
    args = parser.parse_args(argv)

    from repro.bench.ledger import canonical_json

    record = build_record(args.transport, runtime=args.runtime,
                          tie_seed=args.tie_seed)
    sys.stdout.write(canonical_json(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(_worker_main())
