"""Host work per simulated IO: a deterministic guard.

Host time drifts by up to 15 % between sets of runs, so a per-IO
regression in the model's Python can hide inside it.  The number of
Python calls an IO costs does not drift.  This test counts
``sys.setprofile`` ``call`` events (every function call and every resume
of a generator) in the measured window of the plain 4 KiB random-read
cell (DPU client, 2 jobs, seed 7, a 4 ms window: about 400 IOs, under a
second each) and bounds them per measured IO.

The 4 KiB path cost 267.0 calls per IO on RDMA and 328.9 on TCP before
its layers were flattened (DESIGN.md §9, "Host cost per IO"), 144.0 and
191.6 after, and 140.0 and 187.6 once the DRAM pool kept its own
watermark and the data plane's one-line forwards went.  The doctored
twin of the cell (``run_fig5_doctored``: the wait tracer and 1-in-20
request spans on, no sampler) cost 192.7 and 270.1 while each station
reservation also called the tracer's ``on_timeout``; it cost 179.7 and
249.2 with that call gone, and 178.7 and 248.2 before a sampled span
rode on its process.  With the span on the process (no ``trace``
argument, no span stacks in the wait tracer) it cost 177.1 and 245.8.
Now a station calls the tracer only for a sampled request, and the
tracer keeps no all-request aggregates: it costs 147.8
and 199.2, within 7 % of the plain cell, which stays at 139.0 and
186.6.  The plain 1 MiB RDMA write cell (4 SSDs, 8 jobs, a 50 ms window: 570 IOs) cost 256.2 calls
per IO while each written extent was an ``Extent`` object, and 255.4 as
a row of ints.  The bounds are those counts plus 5 %.  The counts are
CPython 3.11's: 3.12 inlines comprehensions, so it can only count
fewer, and 3.10 runs the same Python functions (its count is
unmeasured).
"""

import sys

import pytest

from repro.bench import runner
from repro.sim.core import Environment

#: Calls per measured IO: (count when the bound was set, bound).
BUDGET = {"rdma": (140.0, 140.0 * 1.05), "tcp": (187.6, 187.6 * 1.05)}
#: The same for the doctored cell (wait tracer and 1-in-20 spans on, no
#: sampler).
DOCTORED_BUDGET = {"rdma": (147.8, 147.8 * 1.05), "tcp": (199.2, 199.2 * 1.05)}
#: The same for the plain RDMA 1 MiB write cell.
WRITE_BUDGET = (255.4, 255.4 * 1.05)


def _calls_per_io(monkeypatch, cell, provider):
    """Profile ``call`` events over the cell's measured window, per IO."""
    calls = [0]
    runs = [0]
    orig_run = Environment.run
    orig_run_fio = runner.run_fio

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    def run(env, until=None):
        # Inside run_fio the first run is the ramp, the second the window.
        runs[0] += 1
        if runs[0] != 2:
            return orig_run(env, until)
        sys.setprofile(count)
        try:
            return orig_run(env, until)
        finally:
            sys.setprofile(None)

    def run_fio(*args, **kwargs):
        monkeypatch.setattr(Environment, "run", run)
        try:
            return orig_run_fio(*args, **kwargs)
        finally:
            monkeypatch.setattr(Environment, "run", orig_run)

    monkeypatch.setattr(runner, "run_fio", run_fio)
    result = cell(provider)
    assert runs[0] == 2 and result.total_ios > 300
    return calls[0] / result.total_ios


def _plain(provider):
    return runner.run_ros2_fio(*runner._build_fig5(
        provider, "dpu", "randread", 4096, 2, runtime=0.004, seed=7))


def _write(provider):
    return runner.run_ros2_fio(*runner._build_fig5(
        provider, "dpu", "write", 1 << 20, 8, n_ssds=4, runtime=0.05, seed=7))


def _doctored(provider):
    return runner.run_fig5_doctored(provider, "dpu", "randread", 4096, 2,
                                    runtime=0.004, seed=7,
                                    observe_sampler=False).result


@pytest.mark.parametrize("provider", sorted(BUDGET))
def test_calls_per_io_stay_within_budget(monkeypatch, provider):
    measured, bound = BUDGET[provider]
    per_io = _calls_per_io(monkeypatch, _plain, provider)
    assert per_io <= bound, (
        f"{provider} 4 KiB read costs {per_io:.1f} Python calls per IO, "
        f"over the budget {bound:.1f} (set at {measured})")


@pytest.mark.parametrize("provider", sorted(DOCTORED_BUDGET))
def test_doctored_calls_per_io_stay_within_budget(monkeypatch, provider):
    measured, bound = DOCTORED_BUDGET[provider]
    per_io = _calls_per_io(monkeypatch, _doctored, provider)
    assert per_io <= bound, (
        f"doctored {provider} 4 KiB read costs {per_io:.1f} Python calls "
        f"per IO, over the budget {bound:.1f} (set at {measured})")


def test_write_calls_per_io_stay_within_budget(monkeypatch):
    measured, bound = WRITE_BUDGET
    per_io = _calls_per_io(monkeypatch, _write, "rdma")
    assert per_io <= bound, (
        f"rdma 1 MiB write costs {per_io:.1f} Python calls per IO, over the "
        f"budget {bound:.1f} (set at {measured})")
