"""Unit tests for CPU pools, links, DRAM, GPU, and testbed assembly."""

import pytest

from repro.hw import (
    BLUEFIELD3,
    EPYC_HOST,
    GIB,
    GPU_GENERATIONS,
    CpuPool,
    DramPool,
    DuplexLink,
    GpuDevice,
    Switch,
    make_paper_testbed,
)
from repro.hw.specs import GPU_BY_NAME, MIB, PAPER_LINK, US
from repro.sim import Environment


# ---------------------------------------------------------------------------
# CpuPool / serialized sections
# ---------------------------------------------------------------------------

def test_cpu_pool_scales_cost_by_cycle_factor():
    env = Environment()
    pool = CpuPool(env, BLUEFIELD3, n_cores=1)
    done = []

    def work(env):
        yield pool.execute(10 * US)
        done.append(env.now)

    env.process(work(env))
    env.run()
    assert done[0] == pytest.approx(10 * US * BLUEFIELD3.cycle_factor)


def test_cpu_pool_parallelism_limited_by_cores():
    env = Environment()
    pool = CpuPool(env, EPYC_HOST, n_cores=2)

    def work(env):
        yield pool.execute(1.0)

    for _ in range(4):
        env.process(work(env))
    env.run()
    assert env.now == pytest.approx(2.0)


def test_cpu_pool_invalid_cores():
    env = Environment()
    with pytest.raises(ValueError):
        CpuPool(env, EPYC_HOST, n_cores=0)


def test_serialized_section_uses_lock_factor():
    env = Environment()
    top = make_paper_testbed(env, client="dpu")
    sec = top.client.lock("eq_progress")
    done = []

    def work(env):
        yield sec.enter(1 * US)
        done.append(env.now)

    env.process(work(env))
    env.run()
    assert done[0] == pytest.approx(1 * US * BLUEFIELD3.lock_factor)


def test_lock_registry_caches():
    env = Environment()
    top = make_paper_testbed(env)
    assert top.client.lock("x") is top.client.lock("x")
    assert top.client.lock("x") is not top.client.lock("y")


# ---------------------------------------------------------------------------
# Switch / links
# ---------------------------------------------------------------------------

def test_switch_transfer_time():
    env = Environment()
    sw = Switch(env, PAPER_LINK)
    sw.attach("a")
    sw.attach("b")
    done = []

    def xfer(env):
        yield from sw.transmit("a", "b", 100 * MIB)
        done.append(env.now)

    env.process(xfer(env))
    env.run()
    # Crosses TX then RX pipe: ~2x serialization + propagation.
    expected = PAPER_LINK.propagation + 2 * (100 * MIB / PAPER_LINK.rate_bytes)
    assert done[0] == pytest.approx(expected, rel=0.01)


def test_switch_loopback_is_free():
    env = Environment()
    sw = Switch(env, PAPER_LINK)
    sw.attach("a")
    done = []

    def xfer(env):
        yield from sw.transmit("a", "a", GIB)
        done.append(env.now)

    env.process(xfer(env))
    env.run()
    assert done[0] == 0.0


def test_switch_unknown_port_raises():
    env = Environment()
    sw = Switch(env, PAPER_LINK)
    with pytest.raises(KeyError):
        sw.port("ghost")


def test_switch_port_counters():
    env = Environment()
    sw = Switch(env, PAPER_LINK)
    sw.attach("a")
    sw.attach("b")

    def xfer(env):
        yield from sw.transmit("a", "b", 1000)

    env.process(xfer(env))
    env.run()
    assert sw.port("a").bytes_sent() == 1000
    assert sw.port("b").bytes_received() == 1000


def test_duplex_link_directions_independent():
    env = Environment()
    link = DuplexLink(env, "x", "y", rate_bytes=1e9)
    done = {}

    def xfer(env, src, dst, tag):
        yield from link.transfer(src, dst, int(1e9))
        done[tag] = env.now

    env.process(xfer(env, "x", "y", "fwd"))
    env.process(xfer(env, "y", "x", "rev"))
    env.run()
    # Full duplex: both directions complete in ~1s, not 2s.
    assert done["fwd"] == pytest.approx(1.0, rel=0.02)
    assert done["rev"] == pytest.approx(1.0, rel=0.02)


def test_duplex_link_bad_pair():
    env = Environment()
    link = DuplexLink(env, "x", "y", rate_bytes=1e9)
    with pytest.raises(KeyError):
        link.pipe("x", "z")


# ---------------------------------------------------------------------------
# DramPool
# ---------------------------------------------------------------------------

def test_dram_alloc_free_cycle():
    env = Environment()
    pool = DramPool(env, 1000)
    held = []

    def proc(env):
        alloc = yield from pool.alloc(600)
        held.append(pool.used_bytes)
        alloc.free()
        held.append(pool.used_bytes)

    env.process(proc(env))
    env.run()
    assert held == [600, 0]


def test_dram_alloc_blocks_until_free():
    env = Environment()
    pool = DramPool(env, 1000)
    times = []

    def hog(env):
        alloc = yield from pool.alloc(900)
        yield env.timeout(5)
        alloc.free()

    def waiter(env):
        yield env.timeout(1)
        alloc = yield from pool.alloc(500)
        times.append(env.now)
        alloc.free()

    env.process(hog(env))
    env.process(waiter(env))
    env.run()
    assert times == [5]


def test_dram_oversize_alloc_raises():
    env = Environment()
    pool = DramPool(env, 1000)

    def proc(env):
        yield from pool.alloc(2000)

    env.process(proc(env))
    with pytest.raises(MemoryError):
        env.run()


def test_dram_double_free_idempotent():
    env = Environment()
    pool = DramPool(env, 1000)

    def proc(env):
        a = yield from pool.alloc(500)
        a.free()
        a.free()

    env.process(proc(env))
    env.run()
    assert pool.used_bytes == 0


def test_dram_context_manager():
    env = Environment()
    pool = DramPool(env, 1000)
    used = []

    def proc(env):
        with (yield from pool.alloc(400)):
            used.append(pool.used_bytes)
        used.append(pool.used_bytes)

    env.process(proc(env))
    env.run()
    assert used == [400, 0]


def test_dram_peak_bytes_watermark():
    env = Environment()
    pool = DramPool(env, 1000)
    seen = []

    def first(env):
        alloc = yield from pool.alloc(600)
        yield env.timeout(1)
        alloc.free()  # serves the waiting 700: more in use than before
        seen.append((pool.used_bytes, pool.peak_bytes))

    def second(env):
        alloc = yield from pool.alloc(700)
        yield env.timeout(1)
        alloc.free()

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert seen == [(700, 700)]
    assert pool.used_bytes == 0 and pool.peak_bytes == 700


# ---------------------------------------------------------------------------
# GPU
# ---------------------------------------------------------------------------

def test_gpu_table_matches_paper():
    names = [g.name for g in GPU_GENERATIONS]
    assert names == ["P100", "V100", "A100", "H100", "H200", "B200"]
    b200 = GPU_BY_NAME["B200"]
    assert b200.mem_bw_gbs == 8000
    assert b200.fp4_tflops == 20000
    assert GPU_BY_NAME["P100"].fp8_tflops is None


def test_gpu_direct_faster_than_staged():
    spec = GPU_BY_NAME["H100"]

    def run(direct):
        env = Environment()
        gpu = GpuDevice(env, spec)

        def feed(env):
            for _ in range(64):
                if direct:
                    yield from gpu.hbm_write(MIB)
                else:
                    yield from gpu.staged_copy_in(MIB)

        env.process(feed(env))
        env.run()
        return env.now

    assert run(direct=True) < run(direct=False)


# ---------------------------------------------------------------------------
# Testbed assembly
# ---------------------------------------------------------------------------

def test_testbed_host_mode():
    env = Environment()
    top = make_paper_testbed(env, client="host", n_ssds=1)
    assert top.client.spec.name != BLUEFIELD3.name
    assert top.launcher is top.client
    assert len(top.server.nvme) == 1
    assert top.client.spec.cores == 48


def test_testbed_dpu_mode():
    env = Environment()
    top = make_paper_testbed(env, client="dpu", n_ssds=4)
    assert top.client.spec.name == BLUEFIELD3.name
    assert top.launcher is not top.client
    assert top.client.spec.cores == 16
    assert top.client.dram.capacity_bytes == 30 * GIB


def test_testbed_invalid_args():
    env = Environment()
    with pytest.raises(ValueError):
        make_paper_testbed(env, n_ssds=8)
    with pytest.raises(ValueError):
        make_paper_testbed(env, client="gpu")  # type: ignore[arg-type]


def test_testbed_ports_attached():
    env = Environment()
    top = make_paper_testbed(env, client="dpu")
    assert top.switch.port("dpu") is top.client.port
    assert top.switch.port("storage") is top.server.port
    assert top.switch.port("host") is top.launcher.port


def test_dpu_tcp_rx_pool_is_restricted():
    env = Environment()
    top = make_paper_testbed(env, client="dpu")
    assert top.client.tcp_rx_cpu.n_cores == BLUEFIELD3.tcp_rx_cores
    # The RX pool factor is the platform's total per-byte RX penalty.
    assert top.client.tcp_rx_cpu.factor == pytest.approx(BLUEFIELD3.tcp_rx_byte_factor)
