"""Unit tests for the mdtest metadata workload."""

import pytest

from repro.daos import DaosClient, DaosEngine, DfsNamespace
from repro.hw import make_paper_testbed
from repro.net import Fabric
from repro.sim import Environment
from repro.workload.mdtest import MdtestResult, MdtestSpec, run_mdtest


def setup():
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    engine = DaosEngine(top.server, data_mode=True)
    pool = engine.create_pool()
    ch = fab.connect(top.client, top.server, "ucx+rc")
    engine.serve(ch)
    daos = DaosClient(top.client, ch, data_mode=True)
    ctx = daos.new_context()

    def go(env):
        ph = yield from daos.connect_pool(ctx, pool)
        cont = yield from ph.create_container(ctx)
        ns = DfsNamespace(daos, cont)
        yield from ns.format(ctx)
        return ns

    p = env.process(go(env))
    env.run(until=p)
    return env, daos, p.value


def test_spec_validation():
    with pytest.raises(ValueError):
        MdtestSpec(ranks=0)
    with pytest.raises(ValueError):
        MdtestSpec(files_per_rank=0)
    with pytest.raises(ValueError):
        MdtestSpec(payload_bytes=-1)
    assert MdtestSpec(ranks=3, files_per_rank=5).total_files == 15


def test_mdtest_runs_and_cleans_up():
    env, daos, ns = setup()
    spec = MdtestSpec(ranks=2, files_per_rank=6)

    def go(env):
        result = yield from run_mdtest(env, ns, daos.new_context, spec)
        leftover = yield from ns.readdir(daos.new_context(), "/mdtest/rank0")
        return result, leftover

    p = env.process(go(env))
    env.run(until=p)
    result, leftover = p.value
    assert isinstance(result, MdtestResult)
    assert result.create_per_sec > 0
    assert result.stat_per_sec > 0
    assert result.unlink_per_sec > 0
    assert leftover == []  # all files unlinked
    assert "create" in str(result)


def test_mdtest_with_payload_writes_data():
    env, daos, ns = setup()
    spec = MdtestSpec(ranks=1, files_per_rank=3, payload_bytes=512)

    def go(env):
        result = yield from run_mdtest(env, ns, daos.new_context, spec)
        return result

    p = env.process(go(env))
    env.run(until=p)
    assert p.value.create_per_sec > 0


def test_mdtest_rank_scaling():
    """More ranks -> higher aggregate create rate (until serialization)."""

    def rate(ranks):
        env, daos, ns = setup()
        spec = MdtestSpec(ranks=ranks, files_per_rank=8)

        def go(env):
            return (yield from run_mdtest(env, ns, daos.new_context, spec))

        p = env.process(go(env))
        env.run(until=p)
        return p.value.create_per_sec

    assert rate(4) > 1.5 * rate(1)
