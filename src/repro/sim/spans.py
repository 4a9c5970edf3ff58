"""Request-scoped distributed tracing for the simulator.

Real DAOS carries an HLC timestamp and trace metadata in every CaRT RPC
capsule; the reproduction does the analog.  A :class:`Span` is created at
the workload layer for a sampled request, and the request's span rides on
the process doing its work (:attr:`Process.span
<repro.sim.core.Process.span>`).  Every stage from client through
transport, engine and VOS to media opens a child of its process's span
around its own work; the child is the process's span until it finishes.
Across an RPC hop the span rides in the capsule (``Message.meta
["trace"]``) and the server's handler process adopts it.  Because the
simulator is one process, the "wire format" is simply the live span
object.

Design rules that keep tracing honest and cheap:

* **Zero kernel coupling** — spans never schedule events or touch the event
  loop.  A span opens and closes at ``env.now`` unless its opener passes
  the instant: a hop that merged the reference's chained sleeps into one
  event opens and closes its spans, after it wakes, at the instants the
  chained sleeps would have reached (``start=``/``end=``/``finish(at=)``).
  A traced run therefore dispatches the same events as an untraced one
  and produces *bit-identical* simulated results.
* **Zero cost when off** — a stage reads its process's span and opens a
  child only ``if span is not None``; with no collector attached no
  process has a span and nothing is allocated.
* **Sampling** — :meth:`SpanCollector.trace` returns ``None`` for
  ``sample_every - 1`` out of every ``sample_every`` requests, bounding both
  host memory and host CPU for long runs.

* **A row per finished span** — a :class:`Span` object lives only while
  it is open (as its process's span, in a capsule, a parked request or a
  pipe transfer).  Finishing it appends one row to the collector's
  ``array`` columns (~58 B with the columns' slack, against ~176 B for
  the object, its boxed numbers and its list slot), and nothing keeps
  the object.  Readers see each row through a :class:`SpanRow`, a named
  tuple with the span's attribute names, built when read.

On top of the raw spans sit two analyses:

* :class:`LatencyBreakdown` — per-stage *self time* (span duration minus its
  children's durations) aggregated across traces; renders the paper-style
  attribution table behind Figs. 4-5 ("DPU-TCP 4 KiB randread: most of the
  time is the Arm RX path").
* :func:`critical_path` — the chain of spans that determined one request's
  end-to-end latency.
"""

from __future__ import annotations

import itertools
from array import array
from itertools import islice
from math import fsum
from typing import (TYPE_CHECKING, Collection, Dict, Iterable, Iterator,
                    List, NamedTuple, Optional, Tuple)

from repro.sim.rows import Rows
from repro.sim.waits import SLEEP, SLEEP_RESOURCE

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

__all__ = [
    "Span",
    "SpanRow",
    "Trace",
    "SpanCollector",
    "LatencyBreakdown",
    "critical_path",
]

_span_ids = itertools.count(1)
_trace_ids = itertools.count(1)


def _stage(name: str, node: Optional[str]) -> str:
    """A span's aggregation key: ``node.name`` when the node is known."""
    return f"{node}.{name}" if node else name


class Span:
    """One timed stage of one request.

    ``t_end`` is ``None`` until :meth:`finish` is called.  Spans form a tree
    via ``parent_id``; the root span covers the whole request.  An open span
    is the span of the process that opened it (the wait tracer books that
    process's waits on it) until it finishes, which puts back the span
    that was current when it opened.  ``start`` opens the span at an
    earlier instant than now; ``end`` also closes it there at once.  Such
    a closed-form span never becomes a process's span: nothing waits
    while it is open.  A span refers to its collector, never to its
    :class:`Trace`, so a finished root is freed with no cycle to collect.
    """

    __slots__ = ("collector", "trace_id", "span_id", "parent_id", "name",
                 "node", "t_start", "t_end", "nbytes", "attrs", "_proc",
                 "_opener")

    def __init__(
        self,
        collector: "SpanCollector",
        trace_id: int,
        name: str,
        parent_id: Optional[int],
        node: Optional[str] = None,
        nbytes: int = 0,
        start: Optional[float] = None,
        end: Optional[float] = None,
        **attrs: object,
    ) -> None:
        self.collector = collector
        self.trace_id = trace_id
        self.span_id = next(_span_ids)
        self.parent_id = parent_id
        self.name = name
        self.node = node
        env = collector.env
        self.t_start = env.now if start is None else start
        self.t_end: Optional[float] = end
        self.nbytes = nbytes
        self.attrs = attrs or None
        if end is not None:
            collector._record(self)
            return
        proc = self._proc = env._active
        if proc is not None:
            self._opener = proc.span
            proc.span = self

    # -- lifecycle ---------------------------------------------------------

    def child(self, name: str, node: Optional[str] = None,
              nbytes: int = 0, start: Optional[float] = None,
              end: Optional[float] = None, **attrs: object) -> "Span":
        """Open a child span starting now (or at ``start``, up to ``end``)."""
        return Span(self.collector, self.trace_id, name, self.span_id,
                    node=node, nbytes=nbytes, start=start, end=end, **attrs)

    def finish(self, at: Optional[float] = None) -> "Span":
        """Close the span now (or at the earlier instant ``at``) and record it."""
        if self.t_end is None:
            self.t_end = self.collector.env.now if at is None else at
            proc = self._proc
            if proc is not None:
                # Back to the opener's span; a child this span left open
                # (a media read a fault cut short) is dropped with it.
                proc.span = self._opener
                self._proc = None
            self.collector._record(self)
        return self

    def slept(self, t: float, delay: float) -> None:
        """Book the ``(sleep)`` a ``timeout(delay)`` made at ``t`` would have
        booked on this span, for a sleep merged into another event."""
        wt = self.collector.env._wait_tracer
        if wt is not None:
            wt.book(SLEEP_RESOURCE, 0.0, 0.0, delay, self, t, SLEEP)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.finish()

    # -- queries -----------------------------------------------------------

    @property
    def duration(self) -> float:
        """Elapsed simulated seconds (0.0 while still open)."""
        return 0.0 if self.t_end is None else self.t_end - self.t_start

    @property
    def stage(self) -> str:
        return _stage(self.name, self.node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.t_end is None else f"{self.duration * 1e6:.2f}us"
        return f"<Span {self.stage} trace={self.trace_id} {state}>"


class SpanRow(NamedTuple):
    """A finished span, read back from its collector row.

    It has the attributes of the :class:`Span` it was, so a reader takes
    either; ``parent_id`` is ``None`` for a root.
    """

    span_id: int
    parent_id: Optional[int]
    trace_id: int
    name: str
    node: Optional[str]
    t_start: float
    t_end: float
    nbytes: int
    attrs: Optional[dict]

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def stage(self) -> str:
        return _stage(self.name, self.node)


class Trace:
    """One sampled request: a trace id plus the root span."""

    __slots__ = ("trace_id", "root")

    def __init__(self, collector: "SpanCollector", name: str,
                 nbytes: int = 0) -> None:
        self.trace_id = next(_trace_ids)
        self.root = Span(collector, self.trace_id, name, None, nbytes=nbytes)

    def finish(self) -> Span:
        """Close the root span."""
        return self.root.finish()


_new = tuple.__new__

#: Ints per span row: span, parent and trace ids, ``nbytes``, stage code.
SPAN_INTS = 5


class SpanCollector:
    """Collects finished spans for one environment, one row each.

    Span ``i`` is ``t_start``, ``t_end`` at ``_times[2 * i:2 * i + 2]``
    and ``span_id``, ``parent_id`` (0 for a root), ``trace_id``,
    ``nbytes`` and its stage code (an index into the interned ``(name,
    node)`` pairs) at ``_ints[SPAN_INTS * i:SPAN_INTS * (i + 1)]``, plus
    its ``attrs`` in a side table when it has any: 56 B of columns per
    span.

    Parameters
    ----------
    sample_every:
        Keep 1 in N requests (``trace()`` returns ``None`` for the rest).
    """

    #: Stop sampling new traces past this many (spans of already-started
    #: traces are still recorded so no trace is left half-captured).  A
    #: doctored TCP 4 KiB request finishes ~24 spans, ~1.4 KB of rows:
    #: 100 k traces is ~140 MB, against ~420 MB as span objects.
    MAX_TRACES = 100_000

    def __init__(self, env: "Environment", sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.env = env
        self.sample_every = int(sample_every)
        self.requests_seen = 0
        self.traces_started = 0
        self._times = array("d")
        self._ints = array("q")
        self._attrs: Dict[int, dict] = {}
        #: Interned ``(name, node)`` stages -> code, in first-seen order.
        self._stages: Dict[Tuple[str, Optional[str]], int] = {}

    # -- sampling ----------------------------------------------------------

    def trace(self, name: str, nbytes: int = 0) -> Optional[Trace]:
        """Maybe start a trace for a new request (honours sampling)."""
        self.requests_seen += 1
        if (self.requests_seen - 1) % self.sample_every != 0:
            return None
        if self.traces_started >= self.MAX_TRACES:
            return None
        self.traces_started += 1
        return Trace(self, name, nbytes=nbytes)

    def _record(self, span: Span) -> None:
        stages = self._stages
        code = stages.setdefault((span.name, span.node), len(stages))
        if span.attrs:
            self._attrs[len(self._times) >> 1] = span.attrs
        self._times.extend((span.t_start, span.t_end))
        self._ints.extend((span.span_id, span.parent_id or 0,
                           span.trace_id, span.nbytes, code))

    def _rows(self, lo: int, hi: int) -> Iterator[SpanRow]:
        ints = zip(*[islice(self._ints, SPAN_INTS * lo, SPAN_INTS * hi)]
                   * SPAN_INTS)
        times = zip(*[islice(self._times, 2 * lo, 2 * hi)] * 2)
        stages, attrs = list(self._stages), self._attrs
        for i, (span_id, parent_id, trace_id, nbytes, stage), (t0, t1) \
                in zip(range(lo, hi), ints, times):
            name, node = stages[stage]
            yield _new(SpanRow, (span_id, parent_id or None, trace_id, name,
                                 node, t0, t1, nbytes, attrs.get(i)))

    # -- views -------------------------------------------------------------

    @property
    def spans(self) -> Rows:
        """Every finished span so far, in completion order."""
        return Rows(self._rows, len(self._times) >> 1)

    def roots(self) -> List[SpanRow]:
        """All finished root spans, in completion order."""
        return [s for s in self.spans if s.parent_id is None]

    def clear(self) -> None:
        del self._times[:], self._ints[:]
        self._attrs.clear()


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

class LatencyBreakdown:
    """Per-stage attribution of end-to-end latency across traces.

    Each span contributes its **self time** — duration minus the summed
    durations of its direct children — to its stage bucket, so overlapping
    parent/child intervals are not double counted and (for sequential
    request shapes) the buckets sum exactly to the root durations.

    ``stage_waits`` (from :meth:`repro.sim.waits.WaitTracer.stage_waits`)
    optionally adds a per-resource blame column: for each stage, the
    resource that accounts for the most attributed wait time.
    """

    def __init__(self, spans: Collection[SpanRow],
                 stage_waits: Optional[Dict[str, Dict[str, float]]] = None) -> None:
        self.stage_waits = stage_waits
        child_time: Dict[int, float] = {}
        for s in spans:
            if s.parent_id is not None:
                child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration

        self.stage_totals: Dict[str, float] = {}
        self.stage_counts: Dict[str, int] = {}
        self.total_root_time = 0.0
        self.n_traces = 0
        for s in spans:
            self_time = s.duration - child_time.get(s.span_id, 0.0)
            if self_time < 0.0:  # overlapping children (parallel fan-out)
                self_time = 0.0
            key = s.stage
            self.stage_totals[key] = self.stage_totals.get(key, 0.0) + self_time
            self.stage_counts[key] = self.stage_counts.get(key, 0) + 1
            if s.parent_id is None:
                self.total_root_time += s.duration
                self.n_traces += 1

    @property
    def attributed_time(self) -> float:
        """Total self time across all stages."""
        return sum(self.stage_totals.values())

    def coverage(self) -> float:
        """Fraction of end-to-end time the stages account for (0..1)."""
        if self.total_root_time <= 0.0:
            return 0.0
        return min(self.attributed_time / self.total_root_time, 1.0)

    def shares(self) -> List[tuple]:
        """``(stage, total_self_time, share_of_root)`` sorted descending."""
        root = self.total_root_time or 1.0
        rows = [(k, v, v / root) for k, v in self.stage_totals.items()]
        rows.sort(key=lambda r: r[1], reverse=True)
        return rows

    def top_wait_cause(self, stage: str) -> Optional[tuple]:
        """``(resource, seconds, fraction_of_stage_waits)`` for a stage.

        Requires ``stage_waits``; ties broken by resource name so the
        report is byte-stable across runs.
        """
        if not self.stage_waits:
            return None
        waits = self.stage_waits.get(stage)
        if not waits:
            return None
        total = fsum(waits.values())
        if total <= 0.0:
            return None
        res, secs = min(waits.items(), key=lambda kv: (-kv[1], kv[0]))
        return res, secs, secs / total

    def table(self, title: str = "Latency breakdown") -> str:
        """Render the paper-style attribution table."""
        from repro.bench.report import Table

        n = max(self.n_traces, 1)
        cols = ["self us/op", "share", "spans"]
        blame = self.stage_waits is not None
        if blame:
            cols.append("waiting on")
        t = Table(title, cols, row_header="stage")
        for stage, total, share in self.shares():
            row = [
                f"{total / n * 1e6:9.3f}",
                f"{share * 100:5.1f}%",
                str(self.stage_counts[stage]),
            ]
            if blame:
                top = self.top_wait_cause(stage)
                row.append(f"{top[0]} ({top[2] * 100:.0f}%)" if top else "-")
            t.add_row(stage, row)
        tail = [
            f"{self.total_root_time / n * 1e6:9.3f}",
            f"{self.coverage() * 100:5.1f}% attributed",
            str(self.n_traces),
        ]
        if blame:
            tail.append("-")
        t.add_row("(end-to-end)", tail)
        return t.render()

    def to_dict(self) -> dict:
        n = max(self.n_traces, 1)
        stages = {}
        for stage, total, share in self.shares():
            row = {
                "self_sec_total": total,
                "self_sec_per_op": total / n,
                "share": share,
                "spans": self.stage_counts[stage],
            }
            if self.stage_waits is not None:
                row["waits"] = dict(sorted(
                    (self.stage_waits.get(stage) or {}).items()))
            stages[stage] = row
        return {
            "n_traces": self.n_traces,
            "end_to_end_sec_per_op": self.total_root_time / n,
            "coverage": self.coverage(),
            "stages": stages,
        }


def critical_path(spans: Iterable[SpanRow]) -> List[SpanRow]:
    """The chain of spans that determined one request's completion time.

    At each level the children that gate the parent's completion are
    reconstructed back-to-front: start from the child finishing last, then
    repeatedly hop to the latest-ending child that finished before the
    current one started (the stage the current one waited behind).  Each
    chain element is expanded recursively, so for sequential shapes the
    result is the full stage sequence, and for parallel fan-out
    (multi-chunk DFS I/O, multi-QP) each level follows the straggler.
    Parents precede their children in the returned list.  ``spans`` must
    belong to a single trace.
    """

    spans = list(spans)
    if not spans:
        return []
    tids = {s.trace_id for s in spans}
    if len(tids) > 1:
        raise ValueError(f"spans from {len(tids)} traces; pass exactly one")
    children: Dict[int, List[SpanRow]] = {}
    root = None
    for s in spans:
        if s.parent_id is None:
            root = s
        else:
            children.setdefault(s.parent_id, []).append(s)
    if root is None:
        # No root captured (e.g. trace truncated); start from earliest span.
        root = min(spans, key=lambda s: s.t_start)

    def expand(parent: SpanRow) -> List[SpanRow]:
        kids = [k for k in children.get(parent.span_id, ())
                if k.t_end is not None]
        out = [parent]
        if not kids:
            return out
        cur = max(kids, key=lambda s: s.t_end)
        seq = [cur]
        chosen = {id(cur)}
        while True:
            prev = [k for k in kids
                    if id(k) not in chosen and k.t_end <= cur.t_start]
            if not prev:
                break
            cur = max(prev, key=lambda s: s.t_end)
            seq.append(cur)
            chosen.add(id(cur))
        for s in reversed(seq):
            out.extend(expand(s))
        return out

    return expand(root)
