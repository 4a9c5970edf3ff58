"""The differential doctor: explain *why* run B beats (or loses to) run A.

:mod:`repro.sim.doctor` diagnoses one run; this module diagnoses the
*difference* between two ledger records (:mod:`repro.bench.ledger`).
Every headline claim in the paper is a comparison — DPU-offloaded DFS
vs host client, RDMA vs TCP — and the interesting question is never
"what is the bottleneck" but "where did the milliseconds go".

The decomposition works on per-request means over the sampled spans.
With :math:`m = \\text{total root time}/\\text{traces}` and the wait
tracer's per-resource blame :math:`B(r)` normalised the same way, each
run satisfies :math:`m = \\sum_r B(r) + u` where :math:`u` is the
unattributed remainder (time in stages that touched no traced
resource).  Subtracting the two runs gives the exact identity

.. math:: \\Delta m = \\sum_r \\Delta B(r) + \\Delta u

so the per-resource attributed deltas — each further split into a
*wait* (queueing) part and a *service* (occupancy + access latency)
part — sum to the observed end-to-end delta **by construction**, and
the ``checks.attribution`` cross-check fails only on a non-finite
input such as a NaN latency total.  Contributors are
ranked by ``(|delta| desc, name asc)`` — the same deterministic
tie-break the single-run doctor uses — so reports are byte-stable.

Output is the ``repro-diff-v1`` JSON document plus a rendered verdict,
e.g.::

    rdma vs tcp: mean sampled latency -0.65 ms/req (-51%);
    top contributor: dpu.arm_rx -1.07 ms/req (wait)
"""

from __future__ import annotations

import json
from math import fsum

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["UNATTRIBUTED", "DiffDiagnosis", "diff_runs", "diff_flames"]

#: Pseudo-resource for the per-request time no traced resource explains.
UNATTRIBUTED = "(unattributed)"

#: Relative tolerance for the attribution identity check.
TOLERANCE = 0.01

#: Latency-delta floor (seconds): below this the two runs are considered
#: equal and the relative attribution error is measured against the floor
#: instead of dividing by ~0.
_DELTA_FLOOR = 1e-12


def _sampled_mean(record: dict) -> float:
    """Mean latency of the record's sampled requests (0 without any)."""
    traces = record.get("traces", {})
    n = max(1, int(traces.get("count", 0)))
    return float(traces.get("total_root_time", 0.0)) / n


def _per_request_blame(record: dict) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-request blame components and the unattributed remainder."""
    n = max(1, int(record.get("traces", {}).get("count", 0)))
    mean = _sampled_mean(record)
    rows: Dict[str, Dict[str, float]] = {}
    attributed = 0.0
    for name, comp in record.get("blame", {}).items():
        total = float(comp.get("total", 0.0)) / n
        wait = float(comp.get("wait", 0.0)) / n
        service = (float(comp.get("service", 0.0))
                   + float(comp.get("latency", 0.0))) / n
        rows[name] = {"total": total, "wait": wait, "service": service}
        attributed += total
    return rows, mean - attributed


def _observed_metric(record: dict, key: str) -> Optional[float]:
    value = record.get("metrics", {}).get(key)
    return float(value) if value is not None else None


def _metric_delta(base: dict, cur: dict, key: str) -> Optional[dict]:
    a, b = _observed_metric(base, key), _observed_metric(cur, key)
    if a is None or b is None:
        return None
    rel = (b - a) / abs(a) if a else 0.0
    return {"base": a, "current": b, "delta": b - a, "rel": rel}


@dataclass(slots=True)
class DiffDiagnosis:
    """The differential doctor's full output (``repro-diff-v1``)."""

    label: str
    base: dict
    current: dict
    config_delta: Dict[str, list]
    observed: dict
    contributors: List[dict]
    checks: dict
    verdict: str = ""
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Instrumentation health gate: every cross-check must pass."""
        return all(bool(c.get("ok", True)) for c in self.checks.values())

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> dict:
        return {
            "format": "repro-diff-v1",
            "label": self.label,
            "verdict": self.verdict,
            "ok": self.ok,
            "base": self.base,
            "current": self.current,
            "config_delta": self.config_delta,
            "observed": self.observed,
            "contributors": self.contributors,
            "checks": self.checks,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """The human-readable differential report."""
        from repro.bench.report import Table

        out: List[str] = [f"diff-doctor: {self.label}",
                          f"verdict: {self.verdict}"]
        for key, (a, b) in sorted(self.config_delta.items()):
            out.append(f"config {key}: {a!r} -> {b!r}")
        lat = self.observed.get("latency", {})
        if lat:
            out.append(
                f"sampled mean latency: {lat['base'] * 1e6:.1f} us -> "
                f"{lat['current'] * 1e6:.1f} us "
                f"({lat['delta'] * 1e6:+.1f} us, {lat['rel'] * 100:+.1f}%)")
        iops = self.observed.get("iops")
        if iops:
            out.append(f"iops: {_throughput_move(iops, 'iops')}")
        t = Table("Attributed latency delta (per request)",
                  ["base us", "cur us", "delta us", "wait", "service",
                   "share"], row_header="resource")
        for row in self.contributors[:12]:
            t.add_row(row["resource"], [
                f"{row['base'] * 1e6:10.3f}",
                f"{row['current'] * 1e6:10.3f}",
                f"{row['delta'] * 1e6:+10.3f}",
                f"{row['delta_wait'] * 1e6:+10.3f}",
                f"{row['delta_service'] * 1e6:+10.3f}",
                f"{row['share'] * 100:+7.1f}%",
            ])
        out.append(t.render())
        att = self.checks.get("attribution", {})
        if att:
            status = "ok" if att.get("ok") else "FAILED"
            out.append(
                f"attribution check {status}: attributed "
                f"{att['sum_attributed'] * 1e6:+.3f} us of observed "
                f"{att['observed_delta'] * 1e6:+.3f} us "
                f"(rel err {att['rel_err'] * 100:.3f}%, "
                f"tolerance {att['tolerance'] * 100:.0f}%)")
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)


def diff_runs(
    base: dict,
    current: dict,
    label: str = "",
) -> DiffDiagnosis:
    """Decompose the end-to-end delta between two ledger records.

    ``base`` and ``current`` are ``repro-run-v1`` dicts (see
    :mod:`repro.bench.ledger`); the delta reads as "what changed going
    *from base to current*".
    """
    tolerance = TOLERANCE
    base_rows, base_unattr = _per_request_blame(base)
    cur_rows, cur_unattr = _per_request_blame(current)

    ma, mb = _sampled_mean(base), _sampled_mean(current)
    observed_delta = mb - ma

    contributors: List[dict] = []
    for name in base_rows.keys() | cur_rows.keys():
        a = base_rows.get(name, {"total": 0.0, "wait": 0.0, "service": 0.0})
        b = cur_rows.get(name, {"total": 0.0, "wait": 0.0, "service": 0.0})
        contributors.append({
            "resource": name,
            "base": a["total"],
            "current": b["total"],
            "delta": b["total"] - a["total"],
            "delta_wait": b["wait"] - a["wait"],
            "delta_service": b["service"] - a["service"],
        })
    delta_unattr = cur_unattr - base_unattr
    contributors.append({
        "resource": UNATTRIBUTED,
        "base": base_unattr,
        "current": cur_unattr,
        "delta": delta_unattr,
        "delta_wait": 0.0,
        "delta_service": delta_unattr,
    })
    scale = max(abs(observed_delta), _DELTA_FLOOR)
    for row in contributors:
        row["share"] = row["delta"] / scale if observed_delta else 0.0
    contributors.sort(key=lambda r: (-abs(r["delta"]), r["resource"]))

    sum_attributed = fsum(r["delta"] for r in contributors)
    abs_err = abs(sum_attributed - observed_delta)
    # The error scale must reflect what was summed: each delta is a
    # difference of per-record totals, and the unattributed remainder is
    # the mean minus every blamed total, so the identity's float roundoff
    # is proportional to those totals, not to the near-zero delta —
    # without this, two equal runs over big blame totals (even the same
    # blame listed in another order) can "fail" on ~1e-14 of noise.
    magnitude = fsum(abs(r["base"]) + abs(r["current"]) for r in contributors)
    rel_err = abs_err / max(scale, 1e-9 * magnitude)
    checks = {
        "attribution": {
            "sum_attributed": sum_attributed,
            "observed_delta": observed_delta,
            "abs_err": abs_err,
            "rel_err": rel_err,
            "tolerance": tolerance,
            "ok": rel_err <= tolerance,
        },
    }

    config_a = base.get("config", {})
    config_b = current.get("config", {})
    config_delta = {
        k: [config_a.get(k), config_b.get(k)]
        for k in sorted(set(config_a) | set(config_b))
        if config_a.get(k) != config_b.get(k)
    }

    untraced = [side for side, record in (("base", base),
                                          ("current", current))
                if "traces" not in record]
    observed = {} if untraced else {
        "latency": {"base": ma, "current": mb, "delta": observed_delta,
                    "rel": observed_delta / ma if ma else 0.0},
    }
    for key, short in (("result.iops", "iops"),
                       ("result.bandwidth", "bandwidth"),
                       ("result.latency.p50", "p50"),
                       ("result.latency.p99", "p99")):
        d = _metric_delta(base, current, key)
        if d is not None:
            observed[short] = d

    notes: List[str] = []
    if base_unattr < 0 or cur_unattr < 0:
        notes.append("negative (unattributed): summed blame exceeds root "
                     "wall-clock because sub-operations overlap (pipelined "
                     "fan-out); the delta identity still holds exactly")
    if not base_rows and not cur_rows:
        notes.append("neither run carries blame data; delta is all "
                     "unattributed")
    if config_a.get("sample_every") != config_b.get("sample_every"):
        notes.append("runs used different span sampling rates; per-request "
                     "means still comparable, absolute blame totals are not")

    top = next((r for r in contributors if r["resource"] != UNATTRIBUTED),
               None)
    # Name each side by the identity knobs that actually differ, so the
    # verdict reads "rdma vs tcp" for a transport sweep but "dpu vs host"
    # for a client sweep on the same transport.
    id_keys = [k for k in ("transport", "client", "rw", "bs", "numjobs")
               if k in config_delta]
    if id_keys:
        name_a = "/".join(str(config_a.get(k)) for k in id_keys)
        name_b = "/".join(str(config_b.get(k)) for k in id_keys)
    else:
        name_a = base.get("run_id", "A")
        name_b = current.get("run_id", "B")
    moved = "; ".join(f"{short} {_throughput_move(observed[short], short)}"
                      for short in ("iops", "bandwidth")
                      if short in observed and observed[short]["delta"])
    if untraced:
        verdict = (f"{name_b} vs {name_a}: no sampled latency attributed "
                   f"(no traces in {' or '.join(untraced)}); "
                   + (moved or "iops and bandwidth unchanged"))
    elif abs(observed_delta) <= _DELTA_FLOOR:
        verdict = f"{name_b} vs {name_a}: " + (
            f"mean sampled latency unchanged; {moved}" if moved
            else "runs are equivalent (no delta)")
    elif top is None:
        verdict = (f"{name_b} vs {name_a}: "
                   f"{observed_delta * 1e6:+.1f} us/req, unattributed")
    else:
        kind = ("wait" if abs(top["delta_wait"]) >= abs(top["delta_service"])
                else "service")
        verdict = (
            f"{name_b} vs {name_a}: mean sampled latency "
            f"{observed_delta * 1e6:+.1f} us/req "
            f"({observed['latency']['rel'] * 100:+.0f}%); "
            f"top contributor: {top['resource']} "
            f"{top['delta'] * 1e6:+.1f} us/req ({kind})")
    if not all(c["ok"] for c in checks.values()):
        verdict += " [attribution check FAILED]"

    return DiffDiagnosis(
        label=label or f"{current.get('run_id', 'B')} vs "
                       f"{base.get('run_id', 'A')}",
        base={"run_id": base.get("run_id"), "label": base.get("label"),
              "config": config_a},
        current={"run_id": current.get("run_id"),
                 "label": current.get("label"), "config": config_b},
        config_delta=config_delta,
        observed=observed,
        contributors=contributors,
        checks=checks,
        verdict=verdict,
        notes=notes,
    )


def _throughput_move(d: dict, short: str) -> str:
    """``86,800 -> 625,000 (+620.0%)``; bandwidth in GiB/s."""
    if short == "bandwidth":
        text = f"{d['base'] / 2 ** 30:.2f} -> {d['current'] / 2 ** 30:.2f} GiB/s"
    else:
        text = f"{d['base']:,.0f} -> {d['current']:,.0f}"
    return f"{text} ({d['rel'] * 100:+.1f}%)"


def write_overlay_trace(path: str, base_series: list, current_series: list,
                        tracks: Tuple[str, str], run_ids: Tuple[str, str],
                        label: str = "overlay") -> dict:
    """One Chrome trace with *both* runs' wait counter tracks.

    ``base_series``/``current_series`` are each run's live
    :meth:`~repro.sim.waits.WaitTracer.wait_series`.  A copy of each
    lands on its run's process track, named by ``tracks`` (e.g.
    ``("A:tcp", "B:rdma")``), so Perfetto shows the two runs' counters
    side by side on a shared time axis; ``otherData`` names the two
    ``run_ids`` the tracks came from.
    """
    from repro.sim.chrometrace import build_chrome_trace

    series = [_on_track(s, node)
              for node, run in zip(tracks, (base_series, current_series))
              for s in run]
    doc = build_chrome_trace(extra_series=series, label=label)
    doc["otherData"].update(base_run_id=run_ids[0],
                            current_run_id=run_ids[1])
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


def _on_track(series, node: str):
    """A copy of a live series owned by ``node``: same capacity, which
    its points never reach, so the copy keeps every point."""
    from repro.sim.timeseries import TimeSeries

    out = TimeSeries(series.name, capacity=series.capacity,
                     unit=series.unit, kind=series.kind, node=node)
    for point in series.points():
        out.append(*point)
    return out


def diff_flames(base: dict, current: dict) -> Dict[str, Dict[str, tuple]]:
    """Differential folded stacks between two ledger records.

    Returns ``{"spans": diff, "waits": diff}`` — each a
    :func:`repro.sim.flame.diff_folded` result over the records' stored
    collapsed stacks, ready for :func:`~repro.sim.flame.write_diff_collapsed`.
    """
    from repro.sim.flame import diff_folded

    out: Dict[str, Dict[str, tuple]] = {}
    for view in ("spans", "waits"):
        a = base.get("flame", {}).get(view, {})
        b = current.get("flame", {}).get(view, {})
        out[view] = diff_folded(a, b)
    return out
