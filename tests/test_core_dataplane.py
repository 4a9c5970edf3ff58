"""Unit tests for the data plane's staging pool and accounting."""

import pytest

from repro.core.data_plane import DataPlane
from repro.hw import make_paper_testbed
from repro.hw.specs import GIB, MIB
from repro.sim import Environment


def make_dp(budget=None, client="dpu", provider="rdma"):
    env = Environment()
    top = make_paper_testbed(env, client=client)
    return env, top, DataPlane(top.client, provider, staging_budget_bytes=budget)


def test_provider_binding():
    env, top, dp = make_dp(provider="rdma")
    assert dp.provider.family == "rdma"
    env2, top2, dp2 = make_dp(provider="ucx+tcp")
    assert dp2.provider.family != "rdma"


def test_budget_defaults_to_node_dram():
    env, top, dp = make_dp()
    assert dp.budget == top.client.dram.capacity_bytes  # 30 GiB on the DPU


def test_budget_cannot_exceed_dram():
    env = Environment()
    top = make_paper_testbed(env, client="dpu")
    with pytest.raises(ValueError, match="exceeds node DRAM"):
        DataPlane(top.client, "rdma", staging_budget_bytes=64 * GIB)


def test_stage_release_cycle():
    env, top, dp = make_dp(budget=8 * MIB)

    def go(env):
        alloc = yield from dp.stage(4 * MIB)
        peak = dp.staged.used_bytes
        alloc.free()
        return peak, dp.staged.used_bytes

    p = env.process(go(env))
    env.run(until=p)
    peak, after = p.value
    assert peak == 4 * MIB
    assert after == 0
    assert dp.staged.peak_bytes == 4 * MIB


def test_stage_blocks_on_budget():
    env, top, dp = make_dp(budget=4 * MIB)
    times = []

    def hog(env):
        alloc = yield from dp.stage(3 * MIB)
        yield env.timeout(1.0)
        alloc.free()

    def waiter(env):
        yield env.timeout(0.1)
        alloc = yield from dp.stage(2 * MIB)
        times.append(env.now)
        alloc.free()

    env.process(hog(env))
    env.process(waiter(env))
    env.run()
    assert times == [pytest.approx(1.0)]


def test_oversized_payload_rejected():
    env, top, dp = make_dp(budget=MIB)

    def go(env):
        yield from dp.stage(2 * MIB)

    p = env.process(go(env))
    with pytest.raises(MemoryError, match="exceeds staging budget"):
        env.run(until=p)


def test_invalid_stage_size():
    env, top, dp = make_dp()
    with pytest.raises(ValueError):
        list(dp.stage(0))


def test_accounting_meters():
    env, top, dp = make_dp()
    dp.reads.record(1000)
    dp.writes.record(2000)
    dp.writes.record(3000)
    assert dp.reads.bytes == 1000 and dp.reads.ops == 1
    assert dp.writes.bytes == 5000 and dp.writes.ops == 2
