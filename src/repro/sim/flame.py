"""Sim-time flamegraphs: fold span stacks into collapsed-stack output.

The collapsed ("folded") stack format is one line per unique stack::

    root;child;grandchild 4212

with an integer weight — here **nanoseconds of simulated time** — which
both Brendan Gregg's ``flamegraph.pl`` and https://speedscope.app consume
directly.  Two views are produced:

* :func:`fold_spans` — frames are span *stages* (``node.name``), weights
  are each span's **self time** (duration minus direct children), so the
  flame shows where end-to-end latency is spent across the request tree.
* :func:`fold_waits` — same stacks, but each wait event recorded by a
  :class:`~repro.sim.waits.WaitTracer` appends a ``wait:<resource>`` leaf
  frame weighted by the event's **queueing wait** — the flame shows which
  resource each stage queued behind, not just where time was spent.

Weights are rounded to integer nanoseconds (sub-nanosecond stacks drop
out) and lines are emitted sorted, so output is byte-stable for identical
runs — the property the golden-file test pins.

For *comparing* two runs, :func:`diff_folded` produces Brendan Gregg's
differential ("red/blue") folded format — ``stack before after`` per
line, only for stacks whose weight changed — which ``difffolded.pl`` /
``flamegraph.pl --negate`` render with growth in red and shrinkage in
blue.  ``diff_folded(x, x)`` is empty by construction.
"""

from __future__ import annotations

from typing import IO, Dict, Iterable, Optional, Tuple, Union

from repro.sim.spans import SpanRow
from repro.sim.waits import WaitRow

__all__ = ["fold_spans", "fold_waits", "render_collapsed", "write_collapsed",
           "diff_folded", "render_diff_collapsed", "write_diff_collapsed"]

#: Seconds -> integer nanoseconds (collapsed-stack weights).
NS = 1e9


def _stack_paths(spans: Iterable[SpanRow]) -> Dict[int, str]:
    """span_id -> ``;``-joined stage path from its root down to it.

    Orphan spans (parent not captured, e.g. trace truncated by sampling
    caps) root their own partial stack.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    paths: Dict[int, str] = {}

    def path(s: SpanRow) -> str:
        got = paths.get(s.span_id)
        if got is not None:
            return got
        parent = by_id.get(s.parent_id) if s.parent_id is not None else None
        p = s.stage if parent is None else f"{path(parent)};{s.stage}"
        paths[s.span_id] = p
        return p

    for s in spans:
        path(s)
    return paths


def fold_spans(spans: Iterable[SpanRow]) -> Dict[str, int]:
    """Fold finished spans into ``{stack: self_time_ns}``.

    Each span contributes its self time (duration minus direct children,
    clamped at zero for overlapping fan-out) at its own stack path, so
    column widths read as "simulated time spent *in* this stage".
    """
    spans = [s for s in spans if s.t_end is not None]
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration
    paths = _stack_paths(spans)
    folded: Dict[str, int] = {}
    for s in spans:
        self_time = s.duration - child_time.get(s.span_id, 0.0)
        if self_time <= 0.0:
            continue
        ns = round(self_time * NS)
        if ns <= 0:
            continue
        key = paths[s.span_id]
        folded[key] = folded.get(key, 0) + ns
    return folded


def fold_waits(spans: Iterable[SpanRow],
               records: Iterable[WaitRow]) -> Dict[str, int]:
    """Fold wait events into ``{stack;wait:resource: wait_ns}``.

    Every record's queueing wait (``wait`` for reserves and blocks —
    service/latency are occupancy, not queueing) lands under the stack of
    the span it was attributed to, with a ``wait:<resource>`` leaf frame;
    a record on a span that never finished folds under its own stage.
    Spans with no queueing drop out entirely, so the flame is exactly the
    "time lost to contention, by resource" picture.
    """
    paths = _stack_paths(s for s in spans if s.t_end is not None)
    folded: Dict[str, int] = {}
    for r in records:
        ns = round(r.wait * NS)
        if ns <= 0:
            continue
        base = paths.get(r.span_id, r.stage)
        key = f"{base};wait:{r.resource}"
        folded[key] = folded.get(key, 0) + ns
    return folded


def render_collapsed(folded: Dict[str, int]) -> str:
    """Render folded stacks as sorted collapsed-stack lines."""
    return "".join(f"{stack} {weight}\n"
                   for stack, weight in sorted(folded.items()))


def write_collapsed(path_or_file: Union[str, IO[str]],
                    folded: Dict[str, int]) -> Optional[str]:
    """Write collapsed stacks for flamegraph.pl / speedscope."""
    text = render_collapsed(folded)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return None
    with open(path_or_file, "w") as fh:
        fh.write(text)
    return path_or_file


def diff_folded(base: Dict[str, int],
                cur: Dict[str, int]) -> Dict[str, Tuple[int, int]]:
    """Differential fold: ``{stack: (base_ns, cur_ns)}`` for changed stacks.

    Stacks present in only one run carry a zero on the other side; stacks
    with identical weights drop out entirely, so the diff of a run with
    itself is empty and the output size tracks how much actually moved.
    """
    diff: Dict[str, Tuple[int, int]] = {}
    for stack in base.keys() | cur.keys():
        a = base.get(stack, 0)
        b = cur.get(stack, 0)
        if a != b:
            diff[stack] = (a, b)
    return diff


def render_diff_collapsed(diff: Dict[str, Tuple[int, int]]) -> str:
    """Sorted ``stack before after`` lines (difffolded.pl's output format).

    ``flamegraph.pl`` colours each frame by ``after - before`` when fed
    two-count lines: red for growth, blue for shrinkage.
    """
    return "".join(f"{stack} {a} {b}\n"
                   for stack, (a, b) in sorted(diff.items()))


def write_diff_collapsed(path_or_file: Union[str, IO[str]],
                         diff: Dict[str, Tuple[int, int]]) -> Optional[str]:
    """Write a differential folded-stack file for flamegraph.pl --negate."""
    text = render_diff_collapsed(diff)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return None
    with open(path_or_file, "w") as fh:
        fh.write(text)
    return path_or_file
