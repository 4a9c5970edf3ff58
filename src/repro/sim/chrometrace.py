"""Chrome trace-event (Perfetto-loadable) export.

Turns PR 1's request spans and this PR's time series into one JSON
document in the Trace Event Format, the lingua franca of ``chrome://
tracing`` and https://ui.perfetto.dev:

* every finished span (:class:`~repro.sim.spans.SpanRow`) becomes a
  complete (``"ph": "X"``) duration event on a per-node process track,
  one thread track per sampled request (children nest inside parents
  visually);
* every :class:`~repro.sim.timeseries.TimeSeries` becomes a counter
  (``"ph": "C"``) track on its owning node's process, so CPU-busy, NVMe
  queue depth, NIC occupancy, Arm-core load and in-flight RPC curves sit
  time-aligned under the request spans that caused them.

Timestamps are simulated seconds scaled to microseconds (the format's
unit).  Everything here is pure post-processing — build the document
after the run, or write it straight to disk with
:func:`write_chrome_trace`.  :func:`validate_chrome_trace` is the schema
checker the tests (and doubting users) can run on any produced file.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, List, Optional, Union

from repro.sim.spans import SpanRow
from repro.sim.timeseries import Sampler, TimeSeries

__all__ = [
    "span_events",
    "counter_events",
    "build_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]

#: Seconds -> trace-event microseconds.
US = 1e6

#: pid used for spans/series not attributable to a single node.
CLUSTER = "cluster"


def _pid_map(names: Iterable[Optional[str]]) -> Dict[str, int]:
    """Stable node-name -> pid assignment (sorted, 1-based; cluster first)."""
    uniq = sorted({n if n else CLUSTER for n in names})
    if CLUSTER in uniq:  # keep the catch-all track at the top
        uniq.remove(CLUSTER)
        uniq.insert(0, CLUSTER)
    return {name: i + 1 for i, name in enumerate(uniq)}


def _process_metadata(pids: Dict[str, int]) -> List[dict]:
    return [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": name}}
        for name, pid in sorted(pids.items(), key=lambda kv: kv[1])
    ]


def span_events(spans: Iterable[SpanRow],
                pids: Optional[Dict[str, int]] = None) -> List[dict]:
    """Complete (``X``) events for finished spans, plus thread metadata.

    Tracks: ``pid`` = the span's node, ``tid`` = its trace id, so one
    sampled request reads as one swim-lane per node it touched, children
    nested inside parents.  Open spans are skipped.
    """
    spans = [s for s in spans if s.t_end is not None]
    if pids is None:
        pids = _pid_map(s.node for s in spans)
    events: List[dict] = []
    named_threads = set()
    for s in spans:
        pid = pids[s.node if s.node else CLUSTER]
        tid = s.trace_id
        if (pid, tid) not in named_threads:
            named_threads.add((pid, tid))
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": f"trace {tid}"},
            })
        ev = {
            "name": s.name,
            "cat": "span",
            "ph": "X",
            "ts": s.t_start * US,
            "dur": s.duration * US,
            "pid": pid,
            "tid": tid,
            "args": {
                "trace_id": s.trace_id,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "nbytes": s.nbytes,
            },
        }
        if s.attrs:
            ev["args"].update({k: v for k, v in s.attrs.items()
                               if isinstance(v, (int, float, str, bool))})
        events.append(ev)
    return events


def counter_events(series: Iterable[TimeSeries],
                   pids: Optional[Dict[str, int]] = None) -> List[dict]:
    """Counter (``C``) events — one track per series, one event per window.

    The event timestamp is the window *start* (counters step forward in
    Perfetto), and the value rides under the series name so each counter
    renders as its own labelled track.
    """
    series = list(series)
    if pids is None:
        pids = _pid_map(s.node for s in series)
    events: List[dict] = []
    for s in series:
        pid = pids[s.node if s.node else CLUSTER]
        for t_end, dt, value in s.points():
            events.append({
                "name": s.name,
                "cat": "timeseries",
                "ph": "C",
                # max() absorbs ~1e-9 us float-rounding negatives at t=0.
                "ts": max(0.0, (t_end - dt) * US),
                "pid": pid,
                "args": {s.name: value},
            })
        if s.points():
            # Terminal event so the last window renders with its width.
            events.append({
                "name": s.name,
                "cat": "timeseries",
                "ph": "C",
                "ts": s.t_last * US,
                "pid": pid,
                "args": {s.name: s.values()[-1]},
            })
    return events


def build_chrome_trace(
    spans: Iterable[SpanRow] = (),
    sampler: Optional[Sampler] = None,
    label: str = "repro",
    extra_series: Iterable[TimeSeries] = (),
) -> dict:
    """Assemble the full trace document (JSON-serialisable dict).

    ``extra_series`` adds counter tracks beyond the sampler's probes —
    e.g. :meth:`repro.sim.waits.WaitTracer.wait_series`, one cumulative
    blamed-wait counter per resource.
    """
    spans = [s for s in spans if s.t_end is not None]
    series = list(sampler.series.values()) if sampler is not None else []
    series.extend(extra_series)
    # Counter tracks sort by (node, name), never by probe registration
    # order — two runs exported separately must produce tracks in the
    # same order for a side-by-side overlay to line up.
    series.sort(key=lambda s: (s.node if s.node else CLUSTER, s.name))
    pids = _pid_map([s.node for s in spans] + [s.node for s in series])
    events: List[dict] = []
    events.extend(_process_metadata(pids))
    events.extend(span_events(spans, pids))
    events.extend(counter_events(series, pids))
    events.sort(key=lambda e: (e.get("ts", -1.0), e.get("pid", 0),
                               e.get("name", "")))
    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "format": "repro-chrometrace-v1",
            "label": label,
            "n_spans": len(spans),
            "n_counter_tracks": len(series),
        },
        "traceEvents": events,
    }


def write_chrome_trace(
    path_or_file: Union[str, IO[str]],
    spans: Iterable[SpanRow] = (),
    sampler: Optional[Sampler] = None,
    label: str = "repro",
    extra_series: Iterable[TimeSeries] = (),
) -> dict:
    """Build and write the trace; returns the document that was written."""
    doc = build_chrome_trace(spans, sampler, label=label,
                             extra_series=extra_series)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file)
    else:
        with open(path_or_file, "w") as fh:
            json.dump(doc, fh)
    return doc


# ---------------------------------------------------------------------------
# Validation (used by the tests; handy for any produced file)
# ---------------------------------------------------------------------------

_PHASES_REQUIRING_DUR = {"X"}
_KNOWN_PHASES = {"X", "B", "E", "C", "M", "I", "i"}


def validate_chrome_trace(doc: dict) -> List[str]:
    """Check trace-event schema invariants; returns a list of problems.

    Verified: the ``traceEvents`` envelope, per-event required keys,
    non-negative numeric timestamps/durations, matched ``B``/``E`` pairs
    per ``(pid, tid)``, counter events carrying numeric ``args``, and
    globally monotonic (sorted) timestamps — the order Perfetto's JSON
    importer is fastest on and the tests assert.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    open_stacks: Dict[tuple, int] = {}
    last_ts: Optional[float] = None
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph == "M":
            if "name" not in ev or "args" not in ev:
                problems.append(f"event {i}: metadata without name/args")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(f"event {i}: ts {ts} < previous {last_ts} "
                            "(events must be time-sorted)")
        last_ts = ts
        if "pid" not in ev:
            problems.append(f"event {i}: missing pid")
        if ph in _PHASES_REQUIRING_DUR:
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: X event with bad dur {dur!r}")
        if ph == "B":
            key = (ev.get("pid"), ev.get("tid"))
            open_stacks[key] = open_stacks.get(key, 0) + 1
        elif ph == "E":
            key = (ev.get("pid"), ev.get("tid"))
            depth = open_stacks.get(key, 0)
            if depth <= 0:
                problems.append(f"event {i}: E without matching B on {key}")
            else:
                open_stacks[key] = depth - 1
        elif ph == "C":
            args = ev.get("args")
            if (not isinstance(args, dict) or not args
                    or not all(isinstance(v, (int, float))
                               for v in args.values())):
                problems.append(f"event {i}: counter without numeric args")
    for key, depth in open_stacks.items():
        if depth:
            problems.append(f"{depth} unclosed B event(s) on track {key}")
    return problems
