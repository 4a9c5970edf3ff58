"""Unit tests for BlockDevice, job threads, io_uring and local SPDK engines,
and the PMDK tier."""

import pytest

from repro.hw import NvmeArray, make_paper_testbed
from repro.hw.specs import IOURING_PATH, KIB, MIB, NVME_SSD, US
from repro.sim import Environment, FifoServer
from repro.storage import (
    BlockDevice,
    IoUringEngine,
    PmemPool,
    SpdkLocalEngine,
)


def make_local(n_ssds=1, data_mode=False):
    env = Environment()
    top = make_paper_testbed(env, client="host", n_ssds=n_ssds)
    device = BlockDevice(top.server.nvme, data_mode=data_mode)
    return env, top, device


# ---------------------------------------------------------------------------
# BlockDevice
# ---------------------------------------------------------------------------

def test_block_device_bounds():
    env, top, dev = make_local()

    def proc(env):
        yield from dev.read(dev.capacity_bytes - 100, 200)

    env.process(proc(env))
    with pytest.raises(ValueError):
        env.run()


def test_block_device_data_roundtrip():
    env, top, dev = make_local(data_mode=True)
    got = []

    def proc(env):
        yield from dev.write(4096, data=b"block-data")
        data = yield from dev.read(4096, 10)
        got.append(data)

    env.process(proc(env))
    env.run()
    assert got == [b"block-data"]


def test_block_device_perf_mode_returns_none():
    env, top, dev = make_local(data_mode=False)
    got = []

    def proc(env):
        data = yield from dev.read(0, 4096)
        got.append(data)

    env.process(proc(env))
    env.run()
    assert got == [None]


def test_block_device_write_arg_validation():
    env, top, dev = make_local()
    with pytest.raises(ValueError):
        list(dev.write(0))
    with pytest.raises(ValueError):
        list(dev.write(0, nbytes=5, data=b"abcdef"))


# ---------------------------------------------------------------------------
# Job threads
# ---------------------------------------------------------------------------

def test_job_thread_serializes_with_factor():
    env = Environment()
    t = FifoServer(env, "t", factor=2.0)
    done = []

    def work(env):
        yield t.enter(10 * US)
        done.append(env.now)

    env.process(work(env))
    env.process(work(env))
    env.run()
    assert done == [pytest.approx(20 * US), pytest.approx(40 * US)]


# ---------------------------------------------------------------------------
# IoUringEngine — the Fig. 3 calibration anchors
# ---------------------------------------------------------------------------

def run_engine_jobs(engine, n_jobs, iodepth, block, is_write, duration=0.05):
    """Drive an engine like FIO does: n_jobs threads, iodepth in-flight."""
    env = engine.env
    completed = [0]

    def lane(env, ctx, lane_idx):
        offset = (lane_idx * 7919 * block) % (engine.device.capacity_bytes - block)
        while True:
            yield from engine.submit(ctx, offset, block, is_write)
            completed[0] += 1
            offset = (offset + block) % (engine.device.capacity_bytes - block)

    for j in range(n_jobs):
        ctx = engine.new_context()
        for lane_idx in range(iodepth):
            env.process(lane(env, ctx, j * iodepth + lane_idx))
    env.run(until=duration)
    return completed[0] / duration


def test_iouring_one_job_4k_iops_near_80k():
    env, top, dev = make_local()
    engine = IoUringEngine(top.server, dev)
    iops = run_engine_jobs(engine, n_jobs=1, iodepth=16, block=4 * KIB, is_write=False)
    # Calibration anchor: ~87K IOPS per job (11.5us submission+completion).
    assert iops == pytest.approx(1 / 11.5e-6, rel=0.1)


def test_iouring_16_jobs_hit_media_cap():
    env, top, dev = make_local()
    engine = IoUringEngine(top.server, dev)
    iops = run_engine_jobs(engine, n_jobs=16, iodepth=16, block=4 * KIB, is_write=False)
    assert iops == pytest.approx(NVME_SSD.read_iops_cap, rel=0.1)


def test_iouring_large_block_read_bandwidth_plateau():
    env, top, dev = make_local()
    engine = IoUringEngine(top.server, dev)
    rate = run_engine_jobs(engine, n_jobs=1, iodepth=8, block=MIB, is_write=False)
    bw = rate * MIB
    expected = NVME_SSD.read_bw * IOURING_PATH.read_bw_efficiency
    assert bw == pytest.approx(expected, rel=0.05)
    # The paper's "5-5.6 GiB/s" band.
    assert 5.0 * 2**30 < bw < 5.8 * 2**30


def test_iouring_more_jobs_no_gain_at_1mib():
    env, top, dev = make_local()
    engine = IoUringEngine(top.server, dev)
    r1 = run_engine_jobs(engine, n_jobs=1, iodepth=8, block=MIB, is_write=False)

    env2, top2, dev2 = make_local()
    engine2 = IoUringEngine(top2.server, dev2)
    r8 = run_engine_jobs(engine2, n_jobs=8, iodepth=8, block=MIB, is_write=False)
    assert r8 == pytest.approx(r1, rel=0.05)


def test_iouring_4ssd_read_bandwidth_scales():
    env, top, dev = make_local(n_ssds=4)
    engine = IoUringEngine(top.server, dev)
    rate = run_engine_jobs(engine, n_jobs=8, iodepth=8, block=MIB, is_write=False)
    bw = rate * MIB
    # Paper: ~20-22 GiB/s with 4 SSDs.
    assert 19 * 2**30 < bw < 23 * 2**30


def test_iouring_write_bandwidth_band():
    env, top, dev = make_local()
    engine = IoUringEngine(top.server, dev)
    rate = run_engine_jobs(engine, n_jobs=2, iodepth=8, block=MIB, is_write=True)
    bw = rate * MIB
    # Paper: ~2.7 GiB/s single-SSD writes.
    assert 2.5 * 2**30 < bw < 2.9 * 2**30


def test_iouring_data_mode_roundtrip():
    env, top, dev = make_local(data_mode=True)
    engine = IoUringEngine(top.server, dev)
    ctx = engine.new_context()
    got = []

    def proc(env):
        yield from engine.submit(ctx, 0, 11, True, data=b"io_uring ok")
        data = yield from engine.submit(ctx, 0, 11, False)
        got.append(data)

    env.process(proc(env))
    env.run()
    assert got == [b"io_uring ok"]


# ---------------------------------------------------------------------------
# SpdkLocalEngine
# ---------------------------------------------------------------------------

def test_spdk_local_faster_than_iouring_per_op():
    """User-space polling beats the kernel path on per-op latency."""

    def one_op(engine_cls):
        env, top, dev = make_local()
        engine = engine_cls(top.server, dev)
        ctx = engine.new_context()
        done = []

        def proc(env):
            yield from engine.submit(ctx, 0, 4 * KIB, False)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        return done[0]

    assert one_op(SpdkLocalEngine) < one_op(IoUringEngine)


def test_spdk_local_extracts_raw_bandwidth():
    env, top, dev = make_local()
    engine = SpdkLocalEngine(top.server, dev)
    rate = run_engine_jobs(engine, n_jobs=2, iodepth=8, block=MIB, is_write=False)
    assert rate * MIB == pytest.approx(NVME_SSD.read_bw, rel=0.05)


# ---------------------------------------------------------------------------
# PmemPool
# ---------------------------------------------------------------------------

def test_pmem_persist_load_roundtrip():
    env = Environment()
    pool = PmemPool(env, 1 * MIB, data_mode=True)
    got = []

    def proc(env):
        yield from pool.persist(64, data=b"scm-bytes")
        data = yield from pool.load(64, 9)
        got.append(data)

    env.process(proc(env))
    env.run()
    assert got == [b"scm-bytes"]


def test_pmem_latency_well_below_nvme():
    env = Environment()
    pool = PmemPool(env, MIB)
    done = []

    def proc(env):
        yield from pool.load(0, 64)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done[0] < 1e-6  # sub-microsecond vs ~80us NVMe


def test_pmem_reserve_and_exhaustion():
    env = Environment()
    pool = PmemPool(env, 1000)
    assert pool.reserve(600) == 0
    assert pool.reserve(400) == 600
    with pytest.raises(MemoryError):
        pool.reserve(1)


def test_pmem_bounds():
    env = Environment()
    pool = PmemPool(env, 1000)
    with pytest.raises(ValueError):
        list(pool.load(990, 20))
    with pytest.raises(ValueError):
        list(pool.persist(0))
    with pytest.raises(ValueError):
        pool.reserve(0)
