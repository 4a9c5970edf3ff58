"""Dedicated tests for the GPU device model (GPUDirect substrate)."""

import pytest

from repro.hw.gpu import PCIE_GEN5_X16, GpuDevice
from repro.hw.specs import GIB, GPU_BY_NAME, GPU_GENERATIONS, MIB
from repro.sim import Environment


def make(name="H100"):
    env = Environment()
    return env, GpuDevice(env, GPU_BY_NAME[name])


def test_hbm_capacity_from_spec():
    env, gpu = make("B200")
    assert gpu.spec.memory_gb * 10**9 == 186 * 10**9


def test_hbm_write_rate_is_quarter_of_bandwidth():
    env, gpu = make("H100")
    n = 64

    def feed(env):
        for _ in range(n):
            yield from gpu.hbm_write(MIB)

    # Four feeders hide the per-transfer latency and saturate the pipe.
    for _ in range(4):
        env.process(feed(env))
    env.run()
    achieved = 4 * n * MIB / env.now
    expected = GPU_BY_NAME["H100"].mem_bw_bytes * 0.25
    assert achieved == pytest.approx(expected, rel=0.05)


def test_staged_path_bounded_by_pcie():
    env, gpu = make("B200")  # HBM ingest far faster than PCIe
    n = 64

    def feed(env):
        for _ in range(n):
            yield from gpu.staged_copy_in(MIB)

    env.process(feed(env))
    env.process(feed(env))
    env.run()
    achieved = 2 * n * MIB / env.now
    assert achieved <= PCIE_GEN5_X16 * 1.01
    assert achieved > 0.5 * PCIE_GEN5_X16


def test_ingest_meter_counts_both_paths():
    env, gpu = make()

    def feed(env):
        yield from gpu.hbm_write(1000)
        yield from gpu.staged_copy_in(2000)

    p = env.process(feed(env))
    env.run(until=p)
    assert gpu.ingest.ops == 2
    assert gpu.ingest.bytes == 3000


def test_generation_ordering_of_hbm_bandwidth():
    bws = [g.mem_bw_bytes for g in GPU_GENERATIONS]
    assert bws == sorted(bws)
    assert GPU_BY_NAME["P100"].nvlink_gbs < GPU_BY_NAME["B200"].nvlink_gbs
