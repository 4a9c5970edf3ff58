"""Unit tests for the Chrome trace-event (Perfetto) exporter."""

import itertools
import json
import os

import pytest

from repro.sim import Environment, Sampler
from repro.sim.chrometrace import (
    build_chrome_trace,
    counter_events,
    span_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.spans import SpanCollector
from repro.sim.timeseries import GAUGE, UTILIZATION

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "chrometrace_golden.json")


def tiny_run(monkeypatch):
    """A fully deterministic miniature run: 2 traces, 2 counter tracks.

    Span/trace ids come from module-global counters, so they are pinned
    for golden-file stability.
    """
    import repro.sim.spans as spans_mod

    monkeypatch.setattr(spans_mod, "_span_ids", itertools.count(1))
    monkeypatch.setattr(spans_mod, "_trace_ids", itertools.count(1))

    env = Environment()
    collector = SpanCollector(env, sample_every=1)
    sampler = Sampler(env, interval=0.001)
    state = {"busy": 0.0, "depth": 0.0}
    sampler.add_probe("dpu.cpu.busy", lambda: state["busy"],
                      kind=UTILIZATION, node="dpu")
    sampler.add_probe("nvme0.qdepth", lambda: state["depth"],
                      kind=GAUGE, unit="ops", node="storage")
    sampler.start()

    def request(env, nbytes):
        trace = collector.trace("io.read", nbytes=nbytes)
        trace.root.node = "host"
        state["depth"] += 1.0
        with trace.root.child("rpc", node="dpu", nbytes=nbytes):
            state["busy"] += 0.0005
            yield env.timeout(0.001)
            with trace.root.child("nvme", node="storage", nbytes=nbytes):
                yield env.timeout(0.002)
        state["depth"] -= 1.0
        trace.finish()

    def driver(env):
        yield env.process(request(env, 4096))
        yield env.process(request(env, 8192))

    env.process(driver(env))
    env.run(until=0.0065)
    sampler.stop()
    return env, collector, sampler


def test_roundtrip_valid_and_json_serialisable(monkeypatch):
    _, collector, sampler = tiny_run(monkeypatch)
    doc = build_chrome_trace(collector.spans, sampler, label="tiny")
    assert validate_chrome_trace(doc) == []
    # Round-trips through JSON without loss.
    again = json.loads(json.dumps(doc))
    assert validate_chrome_trace(again) == []
    assert again == doc


def test_span_events_shape(monkeypatch):
    _, collector, sampler = tiny_run(monkeypatch)
    events = span_events(collector.spans)
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == len(collector.spans) == 6  # 2 traces x 3 spans
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in xs)
    assert all(e["args"]["trace_id"] == e["tid"] for e in xs)
    # One thread_name metadata per (node, trace) swim-lane.
    assert {m["args"]["name"] for m in metas} == {"trace 1", "trace 2"}


def test_counter_events_shape(monkeypatch):
    _, collector, sampler = tiny_run(monkeypatch)
    events = counter_events(sampler.series.values())
    assert events, "sampling produced no counter events"
    names = {e["name"] for e in events}
    assert names == {"dpu.cpu.busy", "nvme0.qdepth"}
    for e in events:
        assert e["ph"] == "C"
        assert e["ts"] >= 0
        assert isinstance(e["args"][e["name"]], float)
    # One event per window plus the terminal repeat per series.
    per = {n: sum(1 for e in events if e["name"] == n) for n in names}
    for name, count in per.items():
        assert count == len(sampler.series[name]) + 1


def test_open_spans_are_skipped(monkeypatch):
    import repro.sim.spans as spans_mod

    monkeypatch.setattr(spans_mod, "_span_ids", itertools.count(1))
    monkeypatch.setattr(spans_mod, "_trace_ids", itertools.count(1))
    env = Environment()
    collector = SpanCollector(env, sample_every=1)
    trace = collector.trace("open")
    trace.root.node = "host"
    child = trace.root.child("done", node="host")
    child.finish()
    # Root never finished: only the child exports.
    doc = build_chrome_trace([trace.root, child])
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in xs] == ["done"]
    assert validate_chrome_trace(doc) == []


def test_write_chrome_trace_to_path(tmp_path, monkeypatch):
    _, collector, sampler = tiny_run(monkeypatch)
    out = tmp_path / "trace.json"
    doc = write_chrome_trace(str(out), spans=collector.spans,
                             sampler=sampler, label="tiny")
    on_disk = json.loads(out.read_text())
    assert on_disk == json.loads(json.dumps(doc))
    assert on_disk["otherData"]["format"] == "repro-chrometrace-v1"
    assert on_disk["otherData"]["n_spans"] == 6
    assert on_disk["otherData"]["n_counter_tracks"] == 2


def test_validator_catches_broken_traces():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    bad = {"traceEvents": [
        {"ph": "Z", "ts": 0, "pid": 1},                      # unknown phase
        {"ph": "X", "ts": -1.0, "pid": 1, "dur": 1.0},       # negative ts
        {"ph": "X", "ts": 5.0, "pid": 1},                    # missing dur
        {"ph": "X", "ts": 1.0, "pid": 1, "dur": 1.0},        # ts regression
        {"ph": "E", "ts": 2.0, "pid": 1, "tid": 7},          # E without B
        {"ph": "C", "ts": 3.0, "pid": 1, "args": {"v": "x"}},  # non-numeric
        {"ph": "B", "ts": 4.0, "pid": 1, "tid": 9},          # never closed
    ]}
    problems = validate_chrome_trace(bad)
    assert len(problems) == 7
    assert any("unclosed B" in p for p in problems)


def test_golden_file(monkeypatch):
    """The tiny run's export is pinned byte-for-byte (update deliberately)."""
    _, collector, sampler = tiny_run(monkeypatch)
    doc = build_chrome_trace(collector.spans, sampler, label="golden")
    produced = json.loads(json.dumps(doc))  # normalise number types
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert produced == golden, (
        "Perfetto export changed; if intentional, regenerate "
        "tests/data/chrometrace_golden.json")


def test_counter_track_order_is_insertion_independent(monkeypatch):
    """Counter tracks sort by (node, name): shuffled inputs, same bytes."""
    from repro.sim.timeseries import GAUGE, TimeSeries

    def series(name, node):
        ts = TimeSeries(name, capacity=4, unit="ops", kind=GAUGE, node=node)
        ts.append(0.001, 0.001, 1.0)
        return ts

    tracks = [series("b.q", "dpu"), series("a.q", "dpu"),
              series("z.q", "host"), series("a.q", "storage")]
    fwd = build_chrome_trace((), None, extra_series=tracks)
    rev = build_chrome_trace((), None, extra_series=list(reversed(tracks)))
    assert json.dumps(fwd, sort_keys=True) == json.dumps(rev, sort_keys=True)
    # pid metadata is emitted in sorted (node, name) track order.
    names = [e["args"]["name"] for e in fwd["traceEvents"]
             if e.get("name") == "process_name"]
    assert names == sorted(names)


@pytest.mark.parametrize("pieces", ["spans", "sampler"])
def test_partial_documents_validate(monkeypatch, pieces):
    _, collector, sampler = tiny_run(monkeypatch)
    if pieces == "spans":
        doc = build_chrome_trace(collector.spans, None)
        assert doc["otherData"]["n_counter_tracks"] == 0
    else:
        doc = build_chrome_trace((), sampler)
        assert doc["otherData"]["n_spans"] == 0
    assert validate_chrome_trace(doc) == []
