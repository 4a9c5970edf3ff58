"""Tests of the perf benchmark itself: ``python -m pytest benchmarks/perf``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cell  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_writes_exactly_the_declared_metrics(tmp_path, trace, key):
    t0 = time.perf_counter()
    proc = _run(RUN, "--smoke", "--trace", str(trace), "--out", str(tmp_path))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
    with open(tmp_path / "results.json") as fh:
        runs = json.load(fh)["runs"]
    assert set(runs) == set(cell.WORKLOADS)
    for reps in runs.values():
        got = {k: v["unit"] for k, v in reps[0]["metrics"].items()}
        assert got == declared
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] > 0 and last["failed"] == 0
    if trace:
        for name, reps in runs.items():
            assert (tmp_path / f"trace-{name}.json").is_file()
            layered = sum(v["value"] for k, v in reps[0]["metrics"].items()
                          if k.startswith("self_us_per_io."))
            assert layered == pytest.approx(
                reps[0]["traced_host_us_per_io"], rel=0.01)
    else:
        print(f"smoke pass took {elapsed:.1f} s")


def test_benchmark_json_names_the_workloads():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(cell.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(cell.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(
        cell.per_layer_units(layers))


def test_traced_cell_reproduces_the_untraced_one():
    from repro.sim.chrometrace import validate_chrome_trace

    w = cell.WORKLOADS["rdma-randread-4k"]
    scale = 0.005 / w.runtime
    plain, clock = cell.timed_cell(w, 7, scale)
    assert sum(clock.events.values()) == plain.env.events_processed

    timer = layers.SelfTimer(sample_every=10)

    def on_measured(phase_clock, start):
        timer.env = phase_clock.env
        timer.sampling = start

    with timer:
        traced, traced_clock = cell.timed_cell(w, 7, scale,
                                               on_measured=on_measured)
    assert cell.digest(traced.result) == cell.digest(plain.result)
    assert traced.env.events_processed == plain.env.events_processed
    assert traced_clock.events == clock.events
    total_self = sum(b.self_s for b in timer.boundaries.values())
    assert total_self == pytest.approx(timer.top_s, rel=1e-9)
    assert timer.trees
    doc = layers.trace_document(timer, "t", {})
    assert validate_chrome_trace(doc) == []


# -- a synthetic nested generator chain --------------------------------------

def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Leaf:
    def tick(self):
        _spin(0.001)
        return "tick"


class Inner:
    def run(self, n):
        for _ in range(n):
            _spin(0.003)
            got = yield "inner"
            assert got == "sent"
        return Leaf().tick()


class Outer:
    def run(self, n):
        _spin(0.002)
        value = yield from Inner().run(n)
        _spin(0.002)
        try:
            yield "outer"
        except KeyError as exc:
            return f"{value}:{exc.args[0]}"


SYNTHETIC = (
    ("a", __name__, "Outer", ("run",)),
    ("b", __name__, "Inner", ("run",)),
    ("c", __name__, "Leaf", ("tick",)),
)


def test_self_times_sum_to_the_root_inclusive_time():
    timer = layers.SelfTimer(boundaries=SYNTHETIC)
    with timer:
        gen = Outer().run(3)
        t0 = time.perf_counter()
        assert next(gen) == "inner"
        for _ in range(2):
            assert gen.send("sent") == "inner"
        assert gen.send("sent") == "outer"
        with pytest.raises(StopIteration) as stop:
            gen.throw(KeyError("k"))
        outside = time.perf_counter() - t0
    assert stop.value.value == "tick:k"
    b = timer.boundaries
    assert (b["Outer.run"].calls, b["Inner.run"].calls,
            b["Leaf.tick"].calls) == (1, 1, 1)
    total = b["Outer.run"].self_s + b["Inner.run"].self_s + b["Leaf.tick"].self_s
    assert total == pytest.approx(timer.top_s, rel=1e-9)
    assert timer.top_s <= outside
    assert b["Inner.run"].self_s >= 0.009
    assert b["Outer.run"].self_s >= 0.004
    assert 0.001 <= b["Leaf.tick"].self_s < 0.004
    # Patches are undone on exit.
    assert Outer.run.__qualname__ == "Outer.run"


# -- input validation ----------------------------------------------------------

@pytest.mark.parametrize("args", [
    ["--workload", "no-such-workload"],
    ["--seed", "seven"],
    ["--out", os.path.join(RUN, "sub")],
])
def test_bad_input_exits_2_before_simulating(tmp_path, args):
    if "--out" not in args:
        args = args + ["--out", str(tmp_path)]
    t0 = time.perf_counter()
    proc = _run(RUN, *args, timeout=30)
    assert proc.returncode == 2
    assert "error" in proc.stderr
    assert time.perf_counter() - t0 < 10
    assert not (tmp_path / "results.json").exists()


def test_worker_timeout_outlasts_seconds(monkeypatch, tmp_path):
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(kwargs["timeout"])
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    args = run.parse_args(["--seconds", "170", "--out", str(tmp_path)])
    report = run.spawn_worker("rdma-randread-4k", args, 1.0, args.seconds)
    assert seen[0] > 170
    assert not report["correct"]


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(os.path.join("benchmarks", "perf", "run.py"),
                "--workload", "rdma-randread-4k", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the paired comparison rule ------------------------------------------------

@pytest.mark.parametrize("a,b,lower,want", [
    ([1.0, 1.01, 0.99, 1.0, 1.02], [1.0, 1.01, 0.99, 1.0, 1.02], True,
     "unchanged"),
    ([1.0, 1.01, 0.99, 1.0, 1.02], [1.5, 1.52, 1.49, 1.5, 1.51], True,
     "worse"),
    ([1.0, 1.01, 0.99, 1.0, 1.02], [0.7, 0.71, 0.69, 0.7, 0.72], True,
     "better"),
    ([1.0, 1.01, 0.99, 1.0, 1.02], [0.7, 0.71, 0.69, 0.7, 0.72], False,
     "worse"),
    ([1.0, 2.0, 0.5, 1.5, 0.7], [1.0, 1.01, 0.99, 1.0, 1.02], True,
     "unresolved"),
    ([400.0] * 5, [400.0] * 5, False, "unchanged"),
])
def test_compare_verdicts(a, b, lower, want):
    assert compare.verdict(a, b, 0.1, lower)["verdict"] == want
