"""Unit + shape tests for the NVMe-oF target/initiator (Fig. 4 machinery)."""

import dataclasses

import pytest

from repro.hw import make_paper_testbed
from repro.hw.platform import make_paper_testbed as _mpt
from repro.hw.specs import EPYC_HOST, KIB, MIB, NVME_SSD, STORAGE_SERVER
from repro.net import Fabric
from repro.sim import Environment
from repro.storage import BlockDevice, NvmfInitiator, NvmfTarget


def make_remote(provider, client_cores=None, server_cores=None, n_ssds=1):
    """Build client<->target over one channel, optionally limiting cores."""
    env = Environment()
    top = make_paper_testbed(env, client="host", n_ssds=n_ssds)
    for node, cores in ((top.client, client_cores), (top.server, server_cores)):
        if cores is not None:
            cpu = node.cpu
            cpu.n = cpu.n_cores = cores
            cpu._free = [0.0] * cores
    fab = Fabric(env)
    ch = fab.connect(top.client, top.server, provider)
    device = BlockDevice(top.server.nvme)
    target = NvmfTarget(top.server, device)
    target.serve(ch)
    init = NvmfInitiator(top.client, ch).start()
    return env, top, target, init


def drive(init, n_reactors, iodepth, block, is_write, duration=0.04):
    env = init.env
    completed = [0]
    span = 1024 * MIB

    def lane(env, ctx, idx):
        offset = (idx * 7919 * block) % span
        while True:
            yield from init.submit(ctx, offset, block, is_write)
            completed[0] += 1
            offset = (offset + block) % span

    for r in range(n_reactors):
        ctx = init.new_context()
        for k in range(iodepth):
            env.process(lane(env, ctx, r * iodepth + k))
    env.run(until=duration)
    return completed[0] / duration


def media_ops(top):
    """NVMe commands the target executed on the storage node's media."""
    return sum(d.reads.ops + d.writes.ops for d in top.server.nvme.devices)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

def test_submit_before_start_raises():
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    ch = fab.connect(top.client, top.server, "ucx+rc")
    init = NvmfInitiator(top.client, ch)
    ctx = init.new_context()
    with pytest.raises(RuntimeError, match="not started"):
        list(init.submit(ctx, 0, 4096, False))


def test_unknown_op_fails_target():
    env, top, target, init = make_remote("ucx+rc")
    from repro.net.message import Message

    def proc(env):
        yield from init.channel.send(Message(
            src="host", dst="storage", kind="nvmf.cmd", tag=999,
            payload={"op": "trim", "offset": 0, "nbytes": 4096, "region": None},
            nbytes=96,
        ))

    env.process(proc(env))
    with pytest.raises(ValueError, match="unknown NVMe-oF op"):
        env.run(until=1.0)


def test_shutdown_stops_target_loop():
    """A command after the shutdown is not executed and never completes."""
    env, top, target, init = make_remote("ucx+rc")
    ctx = init.new_context()
    done = []

    def proc(env):
        yield from init.shutdown()
        yield from init.submit(ctx, 0, 4096, False)
        done.append(env.now)

    env.process(proc(env))
    env.run(until=1.0)
    assert done == [] and media_ops(top) == 0


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc"])
def test_stray_kinds_and_unknown_cids_dropped(provider):
    from repro.net.message import Message

    env, top, target, init = make_remote(provider)

    def proc(env):
        yield from init.channel.send(Message(
            src="host", dst="storage", kind="garbage", nbytes=8))
        yield from init.channel.send(Message(
            src="storage", dst="host", kind="nvmf.cpl", tag=424242, nbytes=8))

    p = env.process(proc(env))
    env.run(until=p)  # neither side crashes
    assert media_ops(top) == 0 and init._pending == {}


def test_second_listener_rejected():
    env, top, target, init = make_remote("ucx+rc")
    with pytest.raises(RuntimeError, match="already has a listener"):
        target.serve(init.channel)
    with pytest.raises(RuntimeError, match="already has a listener"):
        NvmfInitiator(top.client, init.channel).start()


# ---------------------------------------------------------------------------
# Fig. 4 shape anchors
# ---------------------------------------------------------------------------

def test_large_block_tcp_and_rdma_both_near_media():
    """Fig. 4a/4b: at 1 MiB with enough cores, transport barely matters."""
    rates = {}
    for provider in ["ucx+tcp", "ucx+rc"]:
        env, top, target, init = make_remote(provider)
        rates[provider] = drive(init, n_reactors=4, iodepth=8, block=MIB,
                                is_write=False) * MIB
    media = NVME_SSD.read_bw
    assert rates["ucx+rc"] == pytest.approx(media, rel=0.1)
    assert rates["ucx+tcp"] > 0.7 * media


def test_small_block_rdma_beats_tcp():
    """Fig. 4c/4d: 4 KiB IOPS, RDMA substantially higher than TCP."""
    iops = {}
    for provider in ["ucx+tcp", "ucx+rc"]:
        env, top, target, init = make_remote(provider)
        iops[provider] = drive(init, n_reactors=4, iodepth=16, block=4 * KIB,
                               is_write=False)
    assert iops["ucx+rc"] > 1.5 * iops["ucx+tcp"]


def test_small_block_rdma_scales_with_cores_tcp_plateaus():
    def iops_at(provider, reactors):
        env, top, target, init = make_remote(provider)
        return drive(init, n_reactors=reactors, iodepth=16, block=4 * KIB,
                     is_write=False)

    rdma_1, rdma_8 = iops_at("ucx+rc", 1), iops_at("ucx+rc", 8)
    tcp_1, tcp_8 = iops_at("ucx+tcp", 1), iops_at("ucx+tcp", 8)
    # RDMA gains strongly with reactors; TCP gains much less (stack lock).
    assert rdma_8 > 2.0 * rdma_1
    assert rdma_8 > 1.4 * tcp_8
    assert tcp_8 < 600_000  # the paper-band host TCP ceiling (~0.5 M)


def test_rdma_4k_reaches_media_cap_with_many_reactors():
    env, top, target, init = make_remote("ucx+rc")
    iops = drive(init, n_reactors=8, iodepth=16, block=4 * KIB, is_write=False)
    assert iops == pytest.approx(NVME_SSD.read_iops_cap, rel=0.12)
