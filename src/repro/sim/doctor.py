"""The bottleneck doctor: automated queueing-theory diagnosis of a run.

PRs 1-2 built the instruments (spans, latency breakdown, time-series);
the wait tracer added causes.  This module turns all of it into the
machine-generated answer a human used to read off the tables:

* **Blame ranking** — resources ordered by their share of sampled
  request time (:meth:`~repro.sim.waits.WaitTracer.blame`), ties broken
  by name so reports are byte-stable across runs.
* **Station table** — every registered station's utilization
  ``busy_time / (elapsed * capacity)`` and operation count, read from
  the stations' own counters.
* **p99 critical path** — the chain of spans that determined the p99
  request's latency, with each hop's blamed resources.
* **SLO gates** — ``p99<=500us``-style rules evaluated against the run's
  measured metrics; violations flip the exit code for CI.

The output is the ``repro-doctor-v1`` JSON document plus a rendered
human verdict, e.g.::

    bottleneck: dpu.arm_rx, 88% of 4KiB randread p99, next: nvme.ssd0 at 6%
"""

from __future__ import annotations

import re
from math import fsum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.spans import SpanCollector, SpanRow, critical_path
from repro.sim.waits import WaitTracer

__all__ = [
    "SloRule",
    "parse_slo",
    "Station",
    "Diagnosis",
    "diagnose",
    "blame_ranking",
]


# ---------------------------------------------------------------------------
# SLO rules
# ---------------------------------------------------------------------------

#: Metrics an SLO rule may target.  Latency metrics read from
#: ``result.latency`` (seconds); throughput metrics from the result itself.
_LATENCY_METRICS = ("p50", "p95", "p99", "p999", "mean", "max")
_THROUGHPUT_METRICS = ("iops", "kiops", "bandwidth", "bandwidth_gib")

_SLO_RE = re.compile(
    r"^\s*(?P<metric>[a-z_0-9]+)\s*(?P<op><=|>=|<|>)\s*"
    r"(?P<value>[0-9.eE+-]+)\s*(?P<unit>us|ms|s)?\s*$"
)

_UNIT_SCALE = {None: 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6}


@dataclass(frozen=True, slots=True)
class SloRule:
    """One parsed SLO gate, e.g. ``p99 <= 500us``."""

    metric: str
    op: str
    threshold: float  # latency thresholds normalized to seconds
    raw: str

    def check(self, value: float) -> bool:
        if self.op == "<=":
            return value <= self.threshold
        if self.op == "<":
            return value < self.threshold
        if self.op == ">=":
            return value >= self.threshold
        return value > self.threshold


def parse_slo(text: str) -> SloRule:
    """Parse ``metric(<=|<|>=|>)value[unit]`` (unit only for latency)."""
    m = _SLO_RE.match(text)
    if not m:
        raise ValueError(
            f"bad SLO {text!r}; expected e.g. 'p99<=500us' or 'iops>=100000'")
    metric, op, unit = m.group("metric"), m.group("op"), m.group("unit")
    value = float(m.group("value"))
    if metric in _LATENCY_METRICS:
        value *= _UNIT_SCALE[unit]
    elif metric in _THROUGHPUT_METRICS:
        if unit:
            raise ValueError(f"unit {unit!r} is invalid for {metric} in {text!r}")
    else:
        known = ", ".join(sorted(_LATENCY_METRICS + _THROUGHPUT_METRICS))
        raise ValueError(f"unknown SLO metric {metric!r} (known: {known})")
    return SloRule(metric=metric, op=op, threshold=value, raw=text.strip())


# ---------------------------------------------------------------------------
# Stations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Station:
    """One service station's own counters.

    ``busy_time`` and ``ops`` come from the server's own accounting;
    ``capacity`` is its number of parallel servers.
    """

    name: str
    busy_time: float
    ops: int
    capacity: int = 1


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------

def blame_ranking(tracer: WaitTracer, total_root_time: float) -> List[dict]:
    """``[{resource, seconds, share}]`` sorted by ``(share desc, name asc)``.

    The deterministic tie-break keeps reports byte-stable across runs
    even when two resources end up with identical blame.
    """
    total = total_root_time or 1.0
    rows = [
        {"resource": name, "seconds": secs, "share": secs / total}
        for name, secs in tracer.blame().items()
    ]
    rows.sort(key=lambda r: (-r["share"], r["resource"]))
    return rows


def _human_bs(bs: int) -> str:
    if bs >= 1 << 20 and bs % (1 << 20) == 0:
        return f"{bs >> 20}MiB"
    if bs >= 1 << 10 and bs % (1 << 10) == 0:
        return f"{bs >> 10}KiB"
    return f"{bs}B"


def _p99_root(roots: List[SpanRow]) -> Optional[SpanRow]:
    """The root span at the p99 boundary of the sampled latency order."""
    roots = sorted(roots, key=lambda s: s.duration)
    if not roots:
        return None
    idx = min(len(roots) - 1, max(0, int(0.99 * len(roots) + 0.5) - 1))
    return roots[idx]


@dataclass(slots=True)
class Diagnosis:
    """The doctor's full output; ``to_dict`` is the repro-doctor-v1 record."""

    label: str
    workload: dict
    throughput: dict
    latency: dict
    blame: List[dict]
    p99: dict
    stations: List[dict]
    slo: dict
    wait_records: dict
    verdict: str = ""
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The SLO verdict."""
        return bool(self.slo.get("ok", True))

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> dict:
        return {
            "format": "repro-doctor-v1",
            "label": self.label,
            "verdict": self.verdict,
            "ok": self.ok,
            "workload": self.workload,
            "throughput": self.throughput,
            "latency": self.latency,
            "blame": self.blame,
            "p99": self.p99,
            "stations": self.stations,
            "slo": self.slo,
            "wait_records": self.wait_records,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """The human-readable doctor report."""
        from repro.bench.report import Table

        out: List[str] = [f"doctor: {self.label}", f"verdict: {self.verdict}"]
        t = Table("Blame (share of sampled request time)",
                  ["seconds", "share"], row_header="resource")
        for row in self.blame[:10]:
            t.add_row(row["resource"],
                      [f"{row['seconds']:.6f}", f"{row['share'] * 100:6.2f}%"])
        out.append(t.render())
        if self.p99.get("critical_path"):
            hops = " -> ".join(self.p99["critical_path"])
            out.append(f"p99 critical path ({self.p99['latency'] * 1e6:.1f} us): {hops}")
        for rule in self.slo.get("rules", []):
            status = "PASS" if rule["ok"] else "FAIL"
            out.append(f"slo {status}: {rule['raw']} (measured {rule['measured']:.6g})")
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)


def diagnose(
    result,
    collector: SpanCollector,
    tracer: WaitTracer,
    stations: Sequence[Station] = (),
    slos: Iterable[str] = (),
    label: str = "",
) -> Diagnosis:
    """Rank a finished run's bottlenecks and read its stations and SLOs.

    ``result`` is a :class:`~repro.workload.fio.FioResult`; ``stations``
    carry each server's own ``busy_time`` and ``ops``.  A station's
    utilization covers the simulated time since the tracer was
    installed, which the station counters span (the tracer is installed
    before anything runs).
    """
    spec = result.spec
    roots = collector.roots()
    total_root = fsum(s.duration for s in roots)

    # -- blame ranking ------------------------------------------------------
    blame = blame_ranking(tracer, total_root)
    top = blame[0] if blame else None
    nxt = blame[1] if len(blame) > 1 else None

    # -- p99 critical path --------------------------------------------------
    p99_root = _p99_root(roots)
    p99: dict = {}
    if p99_root is not None:
        trace_spans = [s for s in collector.spans
                       if s.trace_id == p99_root.trace_id]
        path = critical_path(trace_spans)
        span_waits = tracer.span_waits({s.span_id for s in path})
        hop_blame: Dict[str, float] = {}
        for s in path:
            for res, secs in span_waits.get(s.span_id, {}).items():
                hop_blame[res] = hop_blame.get(res, 0.0) + secs
        p99 = {
            "latency": p99_root.duration,
            "trace_id": p99_root.trace_id,
            "critical_path": [s.stage for s in path],
            "blame": [
                {"resource": k, "seconds": v}
                for k, v in sorted(hop_blame.items(),
                                   key=lambda kv: (-kv[1], kv[0]))
            ],
        }

    # -- stations -----------------------------------------------------------
    elapsed = tracer.env.now - (tracer.t_installed or 0.0)
    station_rows: List[dict] = []
    for st in stations:
        denom = elapsed * max(1, st.capacity)
        station_rows.append({
            "station": st.name,
            "capacity": st.capacity,
            "utilization": st.busy_time / denom if denom > 0 else 0.0,
            "ops": st.ops,
        })
    station_rows.sort(key=lambda r: (-r["utilization"], r["station"]))

    # -- SLO gates ----------------------------------------------------------
    rules = [parse_slo(s) if isinstance(s, str) else s for s in slos]
    slo_rows: List[dict] = []
    notes: List[str] = []
    for rule in rules:
        if rule.metric in _LATENCY_METRICS:
            measured = result.latency.get(rule.metric)
            if measured is None:
                notes.append(f"SLO {rule.raw!r}: no latency data recorded")
                slo_rows.append({"raw": rule.raw, "metric": rule.metric,
                                 "measured": float("nan"), "ok": False})
                continue
        else:
            measured = getattr(result, rule.metric)
        slo_rows.append({
            "raw": rule.raw,
            "metric": rule.metric,
            "measured": float(measured),
            "threshold": rule.threshold,
            "op": rule.op,
            "ok": rule.check(measured),
        })
    slo = {"rules": slo_rows, "ok": all(r["ok"] for r in slo_rows)}

    # -- verdict ------------------------------------------------------------
    bs_h = _human_bs(spec.bs)
    if top is not None:
        verdict = (f"bottleneck: {top['resource']}, "
                   f"{top['share'] * 100:.0f}% of {bs_h} {spec.rw} p99")
        if nxt is not None:
            verdict += f", next: {nxt['resource']} at {nxt['share'] * 100:.0f}%"
    else:
        verdict = "no sampled wait records; nothing to blame"

    if tracer.records_dropped:
        notes.append(f"{tracer.records_dropped} wait records dropped "
                     f"(max_records={tracer.MAX_RECORDS}); blame shares "
                     "cover the recorded prefix only")

    return Diagnosis(
        label=label or f"{spec.rw} bs={spec.bs} jobs={spec.numjobs}",
        workload={
            "rw": spec.rw, "bs": spec.bs, "numjobs": spec.numjobs,
            "iodepth": spec.iodepth, "runtime": spec.runtime,
        },
        throughput={"iops": result.iops, "bandwidth": result.bandwidth,
                    "total_ios": result.total_ios},
        latency=dict(result.latency),
        blame=blame,
        p99=p99,
        stations=station_rows,
        slo=slo,
        wait_records={
            "count": len(tracer.records),
            "dropped": tracer.records_dropped,
            "traces": len(roots),
            "total_root_time": total_root,
        },
        verdict=verdict,
        notes=notes,
    )
