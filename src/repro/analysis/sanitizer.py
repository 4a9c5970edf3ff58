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

The sanitizer attacks both axes on the cells of a campaign spec
(``repro-campaign-v1``, expanded by
:func:`~repro.bench.campaign.expand_spec`).  Every run goes through the
campaign's own cell runner and record format
(:func:`~repro.bench.campaign.run_cell` +
:func:`~repro.bench.campaign.cell_record`) on its worker pool:

* the FIFO run is the reference — byte-identical to the cell's ledger
  record, so every verdict names a run ID in the ledger;
* each tie seed re-runs the cell with the kernel's seeded **tie
  scramble** (:func:`repro.sim.core.tie_scramble`) permuting
  equal-``(time, priority)`` pop order;
* each tie-seeded run repeats under every ``PYTHONHASHSEED`` value, one
  pool of spawned workers per value (the hash seed is fixed at
  interpreter start);

then diffs the records.  The gates are deliberately of different
strength:

* **hash axis: byte identity.**  Changing ``PYTHONHASHSEED`` does not
  change the schedule, so the full stripped record — attribution
  sections and the event ``cost`` included — must be byte-identical.  Any diff is a real
  hash-order dependence.
* **tie axis: metric envelope.**  A tie permutation produces a
  *different but equally valid* execution: requests swap queue slots,
  so per-request attribution (flame stacks, sampled spans) legitimately
  tracks the realized schedule, and windowed counters can shift by one
  IO at the measurement boundary (observed ≤ 2.5e-4 relative on the
  20 ms 4 KiB cells).  The gate therefore compares the ``metrics`` section
  under a tight quantization envelope — default 2e-3 relative, 1e-2
  for extreme-value tail statistics (``.max``/``.p99``/``.p999``).
  Real races (unseeded RNG, hash-order grant loops) move metrics by
  percent-level amounts and blow through it.

On drift, the differential doctor (:func:`repro.sim.diffdoctor.
diff_runs`) is run between the reference and the drifting record to
blame the resource whose grant order diverged.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SANITIZE_FORMAT",
    "DEFAULT_TOLERANCE",
    "TAIL_TOLERANCE",
    "DEFAULT_SEEDS",
    "DEFAULT_HASH_SEEDS",
    "spec_cells",
    "compare_metrics",
    "run_sanitizer",
    "render_sanitize",
]

SANITIZE_FORMAT = "repro-sanitize-v2"

#: Relative tolerance for ordinary metrics (rates, counts, means).
#: The observed tie-permutation envelope on the 20 ms 4 KiB cells is
#: ≤2.5e-4 (one IO crossing the measurement-window boundary); real races
#: move metrics by percent-level amounts.
DEFAULT_TOLERANCE = 2e-3

#: Relative tolerance for extreme-value tail statistics, which track a
#: single sample and are therefore the most schedule-sensitive.
TAIL_TOLERANCE = 1e-2

_TAIL_SUFFIXES = (".max", ".p99", ".p999")

DEFAULT_SEEDS: Tuple[int, ...] = (1, 2, 3, 4, 5)
DEFAULT_HASH_SEEDS: Tuple[int, ...] = (0, 12345)

#: Experiments whose runner takes a tie seed.  An observed cell's
#: record carries the blame the drift report ranks; an unobserved fig5
#: cell's report names the throughput deltas only.
_SANITIZABLE = ("fig5", "chaos")

#: ``(cell key, tie seed or None for FIFO, hash seed)`` -> record.
_Runs = Dict[Tuple[str, Optional[int], int], dict]


def spec_cells(spec: dict) -> List[dict]:
    """The normalized cells of a campaign spec, checked before anything runs.

    Raises ``ValueError`` on a bad cell, an empty spec, or a ``fig3`` /
    ``fig4`` cell (their runners take no tie seed).
    """
    from repro.bench.campaign import cell_key, expand_spec

    configs = expand_spec(spec)
    if not configs:
        raise ValueError("campaign spec has no cells to sanitize")
    for config in configs:
        if config["experiment"] not in _SANITIZABLE:
            raise ValueError(
                f"cannot sanitize {cell_key(config)}: a "
                f"{config['experiment']} cell takes no tie seed; "
                f"expected one of {_SANITIZABLE}")
    return configs


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


def _run_all(configs: Sequence[dict], seeds: Sequence[int],
             hash_seeds: Sequence[int]) -> _Runs:
    """Every run of every cell, one spawned-worker pool per hash seed.

    The FIFO reference runs once, under the first hash seed.
    """
    from repro.bench.campaign import _pool_map, cell_key

    runs: _Runs = {}
    jobs = os.cpu_count() or 1
    for h in hash_seeds:
        ties: List[Optional[int]] = list(seeds)
        if h == hash_seeds[0]:
            ties.insert(0, None)
        items = [((cell_key(c), s), c, s) for c in configs for s in ties]

        def collect(res: tuple) -> None:
            (key, tie_seed), status, payload, _ = res
            if status != "ok":
                raise RuntimeError(
                    f"sanitizer run failed ({key} tie_seed={tie_seed} "
                    f"hash_seed={h}): {payload['error']}")
            runs[key, tie_seed, h] = payload

        _pool_map(items, min(jobs, len(items)), collect, hash_seed=h)
    return runs


def _verdict(key: str, config: dict, runs: _Runs, seeds: Sequence[int],
             hash_seeds: Sequence[int]) -> dict:
    """One cell's entry of the report."""
    from repro.bench.ledger import canonical_json, strip_volatile

    ref = runs[key, None, hash_seeds[0]]
    hash_mismatches: List[dict] = []
    drifts: List[dict] = []
    blame: List[dict] = []
    envelope_use, envelope_metric = 0.0, ""
    for s in seeds:
        # Hash axis: full stripped record must be byte-identical.
        texts = [canonical_json(strip_volatile(runs[key, s, h]))
                 for h in hash_seeds]
        for h, text in zip(hash_seeds[1:], texts[1:]):
            if text != texts[0]:
                hash_mismatches.append({
                    "tie_seed": s, "hash_seeds": [hash_seeds[0], h],
                    "why": "stripped record differs across "
                           "PYTHONHASHSEED — hash-order dependence"})
        # Tie axis: metrics section within the quantization envelope.
        for h in hash_seeds:
            var = runs[key, s, h]
            use, use_key = _envelope_use(ref, var)
            if use > envelope_use:
                envelope_use, envelope_metric = use, use_key
            rows = compare_metrics(ref, var)
            if rows:
                for row in rows:
                    drifts.append({"tie_seed": s, "hash_seed": h, **row})
                blame = _blame_drift(ref, var, f"{key} tie_seed={s}")

    return {
        "key": key, "config": config, "reference_run_id": ref["run_id"],
        "seeds": list(seeds), "hash_seeds": list(hash_seeds),
        "n_runs": 1 + len(seeds) * len(hash_seeds),
        "reference_iops": float(
            ref.get("metrics", {}).get("result.iops", 0.0)),
        "envelope_use": envelope_use,
        "envelope_metric": envelope_metric,
        "hash_mismatches": hash_mismatches,
        "drifted_metrics": drifts,
        "blame": blame,
        "ok": not hash_mismatches and not drifts,
    }


def run_sanitizer(configs: Sequence[dict], seeds: Sequence[int],
                  hash_seeds: Sequence[int]) -> dict:
    """Sanitize the cells (:func:`spec_cells`); the ``repro-sanitize-v2``
    document.  Each cell runs 1 + ``len(seeds) * len(hash_seeds)`` times.
    """
    from repro.bench.campaign import cell_key

    runs = _run_all(configs, seeds, hash_seeds)
    cells = [_verdict(cell_key(c), c, runs, seeds, hash_seeds)
             for c in configs]
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
            f"{cell['key']}: {status} — {cell['n_runs']} runs, "
            f"worst envelope use {cell['envelope_use'] * 100:.0f}% "
            f"({cell['envelope_metric'] or 'n/a'}) "
            f"against {cell['reference_run_id']}")
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
