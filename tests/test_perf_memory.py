"""Memory per cell follows the requests in flight, not those completed.

``Environment.run`` pauses the cycle collector, so anything a finished
request leaves in a reference cycle stays in memory until the run
returns; a cell's footprint would then grow with its window.  This test
runs each cell at a window W and at 4W, keeping the cell's environment
alive, and counts the unreachable objects ``gc.collect()`` finds after
it.  The two counts must be equal: what a cell leaves for the collector
may depend on its sessions and its faults, never on how many requests it
completed.  A first run at W warms the process's one-time caches.

Before each finished process dropped its resume callback and its last
awaited event (``Process._resume``), every RPC handler, NVMe-oF target
handler and FIO lane stayed behind, with its generator and last Timeout:
the Fig. 4 cell's count grew 4x with its window.

A write leaves its extent in the VOS for good (every version stays
readable at its epoch), so a write cell's memory does grow with its
window, and the second test bounds by how much: the bytes a written
extent keeps under ``repro/daos/``.
"""

import gc
import tracemalloc

import pytest

from repro.bench import runner
from repro.bench.chaos import default_qp_break_plan
from repro.daos.object import ROW, ExtentStore


def _fig5(window):
    system, spec = runner._build_fig5(
        "rdma", "dpu", "randread", 4096, 2, runtime=window, seed=7)
    result = runner.run_ros2_fio(system, spec)
    system.env.run()
    return result


def _doctored(window):
    run = runner.run_fig5_doctored(
        "tcp", "dpu", "randread", 4096, 2, runtime=window, seed=7,
        observe_sampler=False)
    run.system.env.run()
    return run.result


def _chaos(window):
    ch = runner.run_fig5_chaos(
        "rdma", "dpu", "randread", 4096, 4,
        default_qp_break_plan("dpu", window), runtime=window, seed=7)
    assert ch.stats.retries > 0 and ch.stats.reconnects > 0
    return ch.run.result


def _fig4(window):
    return runner.run_fig4_cell("rdma", "randread", 4096, 4, 4,
                                runtime=window, seed=7)


#: name -> (cell, W in simulated seconds).
CELLS = {
    "fig5-rdma-4k": (_fig5, 0.002),
    "fig5-tcp-4k-doctored": (_doctored, 0.002),
    "chaos-qp-break": (_chaos, 0.002),
    "fig4-rdma-4k": (_fig4, 0.002),
}


def _unreachable_after(cell, window):
    """``(objects gc.collect() finds after the cell, IOs it completed)``."""
    envs = []
    run_fio = runner.run_fio

    def keep_env(env, *args, **kwargs):
        envs.append(env)
        return run_fio(env, *args, **kwargs)

    # A collection can free what only an earlier one finalized: collect
    # until nothing is left, so the count below is this cell's alone.
    while gc.collect():
        pass
    runner.run_fio = keep_env
    gc.disable()
    try:
        result = cell(window)
        found = gc.collect()
    finally:
        gc.enable()
        runner.run_fio = run_fio
    assert len(envs) == 1
    return found, result.total_ios


@pytest.mark.parametrize("name", sorted(CELLS))
def test_unreachable_objects_do_not_grow_with_the_window(name):
    cell, window = CELLS[name]
    _unreachable_after(cell, window)
    short, short_ios = _unreachable_after(cell, window)
    long, long_ios = _unreachable_after(cell, 4 * window)
    assert long_ios >= 3 * short_ios > 0
    assert long == short, (
        f"{name}: {short} unreachable objects after {short_ios} IOs, "
        f"{long} after {long_ios}")


def _daos_bytes_and_extents(window):
    """``(bytes allocated under repro/daos/ and held after the cell,
    extent stores, extents they hold)`` for the 1 MiB RDMA write cell."""
    tracemalloc.start()
    try:
        system, spec = runner._build_fig5(
            "rdma", "dpu", "write", 1 << 20, 8, n_ssds=4, runtime=window,
            seed=7)
        runner.run_ros2_fio(system, spec)
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snap.filter_traces(
        [tracemalloc.Filter(True, "*/repro/daos/*")]).statistics("filename")
    stores = [store for target in system.engine.targets
              for obj in target.vos.objects.values()
              for akeys in obj._dkeys.values()
              for store in akeys.values() if isinstance(store, ExtentStore)]
    return (sum(stat.size for stat in held), len(stores),
            sum(len(store.rows) // ROW for store in stores))


def test_a_written_extent_keeps_no_object():
    """Each extent is one row of five ints, about 40 B plus its array's
    growth slack.  While it was an ``Extent`` object with a media tuple and
    five boxed ints it kept about 311 B.

    Both windows write every extent store of the file (its 1 MiB chunks
    wrap), so the difference between them is the extents' own cost, free
    of the stores, keys and engine state a cell sets up once."""
    short_bytes, short_stores, short_extents = _daos_bytes_and_extents(0.05)
    long_bytes, long_stores, long_extents = _daos_bytes_and_extents(0.15)
    assert long_stores == short_stores
    extents = long_extents - short_extents
    assert extents > 1000
    per_extent = (long_bytes - short_bytes) / extents
    assert per_extent <= 64, (
        f"{per_extent:.0f} B held under repro/daos/ per written extent "
        f"({extents} extents)")
