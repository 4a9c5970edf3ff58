"""Unit tests for the fabric provider registry and unified channels."""

import pytest

from repro.hw import make_paper_testbed
from repro.hw.specs import KIB, MIB
from repro.net import Fabric, Message
from repro.net.fabric import RemoteRegion, list_providers, resolve_provider
from repro.sim import Environment


def setup(provider, client="host"):
    env = Environment()
    top = make_paper_testbed(env, client=client)
    fab = Fabric(env)
    ch = fab.connect(top.client, top.server, provider)
    return env, top, ch


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_all_paper_providers_registered():
    provs = list_providers()
    for name in ["ofi+tcp;ofi_rxm", "ucx+tcp", "ucx+rc", "ucx+dc_x", "ofi+verbs;ofi_rxm"]:
        assert name in provs


def test_aliases_resolve():
    assert resolve_provider("tcp").family == "tcp"
    assert resolve_provider("rdma").family == "rdma"
    assert resolve_provider("verbs").name == "ofi+verbs;ofi_rxm"


def test_unknown_provider_raises():
    with pytest.raises(ValueError, match="unknown fabric provider"):
        resolve_provider("smoke-signals")


def test_provider_mismatch_rejected():
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    ea = fab.endpoint(top.client, "ucx+tcp")
    eb = fab.endpoint(top.server, "ucx+rc")
    with pytest.raises(ValueError, match="provider mismatch"):
        ea.connect(eb)


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc"])
def test_same_node_channel_rejected(provider):
    """A data channel joins two nodes; one within a node is bad input."""
    env = Environment()
    top = make_paper_testbed(env)
    with pytest.raises(ValueError, match="two nodes"):
        Fabric(env).connect(top.client, top.client, provider)


def test_same_node_qp_pair_and_tcp_connection_rejected():
    from repro.net.rdma import RdmaDevice
    from repro.net.tcp import TcpStack

    env = Environment()
    top = make_paper_testbed(env)
    dev = RdmaDevice(top.client)
    qa, qb = dev.create_qp(dev.alloc_pd()), dev.create_qp(dev.alloc_pd())
    with pytest.raises(ValueError, match="two nodes"):
        qa.connect(qb)
    assert qa.remote is None and qb.remote is None
    with pytest.raises(ValueError, match="two nodes"):
        TcpStack(top.client).connect(TcpStack(top.client))


# ---------------------------------------------------------------------------
# Channel behaviour, parametrized over families
# ---------------------------------------------------------------------------

PROVIDERS = ["ucx+tcp", "ucx+rc", "ofi+verbs;ofi_rxm"]


@pytest.mark.parametrize("provider", PROVIDERS)
def test_send_recv_roundtrip(provider):
    env, top, ch = setup(provider)
    got = []
    done = []
    ch.listen("storage", lambda msg: got.append((msg.kind, msg.tag, env.now)))

    def client(env):
        yield from ch.send(Message(src="host", dst="storage", kind="req", tag=9, nbytes=256))
        done.append(env.now)

    env.process(client(env))
    env.run()
    # Delivered once, at the instant the send completes.
    assert got == [("req", 9, done[0])]


@pytest.mark.parametrize("provider", PROVIDERS)
def test_send_without_listener_raises(provider):
    env, top, ch = setup(provider)
    ch.listen("host", lambda msg: None)  # the sender's end does not count

    def client(env):
        yield from ch.send(Message(src="host", dst="storage", kind="req", nbytes=64))

    env.process(client(env))
    with pytest.raises(RuntimeError, match="no listener on endpoint 'storage'"):
        env.run()


@pytest.mark.parametrize("provider", PROVIDERS)
def test_second_listener_rejected(provider):
    env, top, ch = setup(provider)
    ch.listen("storage", lambda msg: None)
    with pytest.raises(RuntimeError, match="already has a listener"):
        ch.listen("storage", lambda msg: None)
    with pytest.raises(KeyError):
        ch.listen("nowhere", lambda msg: None)


def test_rdma_cell_leaves_no_completions_behind(monkeypatch):
    """Neither messages nor bulk transfers leak CQ entries nobody polls."""
    from repro.bench.runner import _build_fig5, run_ros2_fio
    from repro.net.fabric import Fabric as FabricCls

    channels = []
    make = FabricCls._make_channel

    def recording(self, *args):
        channels.append(make(self, *args))
        return channels[-1]

    monkeypatch.setattr(FabricCls, "_make_channel", recording)
    system, spec = _build_fig5("rdma", "dpu", "write", MIB, 2, n_ssds=1,
                               runtime=0.004)
    result = run_ros2_fio(system, spec)
    system.env.run()
    assert result.total_ios > 0
    qps = [qp for ch in channels for qp in ch.qps.values()]
    assert qps
    assert [(len(qp.send_cq), len(qp.recv_cq)) for qp in qps] == \
        [(0, 0)] * len(qps)


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc"])
def test_register_returns_descriptor(provider):
    env, top, ch = setup(provider)
    region = ch.register("storage", 1 * MIB)
    assert isinstance(region, RemoteRegion)
    assert region.node == "storage"
    assert region.length == MIB
    assert region.rkey > 0


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc"])
def test_rma_write_then_read_roundtrip(provider):
    env, top, ch = setup(provider)
    buf = bytearray(4 * KIB)
    region = ch.register("storage", 4 * KIB, buffer=buf)
    got = []

    def client(env):
        yield from ch.rma_write("host", region, payload=b"\x55" * 64)
        data = yield from ch.rma_read("host", region, 64)
        got.append(data)

    env.process(client(env))
    env.run()
    assert got == [b"\x55" * 64]
    assert buf[:64] == b"\x55" * 64 and buf[64:] == bytes(4 * KIB - 64)


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc"])
def test_deregistered_region_rejected(provider):
    env, top, ch = setup(provider)
    region = ch.register("storage", 4 * KIB)
    ch.deregister(region)

    def client(env):
        yield from ch.rma_read("host", region, 64)

    env.process(client(env))
    with pytest.raises(Exception):  # AccessViolation or PermissionError
        env.run()


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc"])
def test_rma_out_of_bounds_rejected(provider):
    env, top, ch = setup(provider)
    region = ch.register("storage", 4 * KIB)

    def client(env):
        yield from ch.rma_read("host", region, 8 * KIB)

    env.process(client(env))
    with pytest.raises(Exception):
        env.run()


def test_register_on_non_endpoint_rejected():
    env, top, ch = setup("ucx+rc")
    with pytest.raises(KeyError):
        ch.register("nowhere", 4 * KIB)


def test_scoped_registration_expires_rdma():
    env, top, ch = setup("ucx+rc")
    region = ch.register("storage", 4 * KIB, valid_until=0.5)

    def client(env):
        yield env.timeout(1.0)
        yield from ch.rma_read("host", region, 64)

    env.process(client(env))
    with pytest.raises(Exception, match="expired"):
        env.run()


def test_scoped_registration_expires_tcp():
    env, top, ch = setup("ucx+tcp")
    region = ch.register("storage", 4 * KIB, valid_until=0.5)

    def client(env):
        yield env.timeout(1.0)
        yield from ch.rma_read("host", region, 64)

    env.process(client(env))
    with pytest.raises(PermissionError, match="expired"):
        env.run()


# ---------------------------------------------------------------------------
# The central performance contrast
# ---------------------------------------------------------------------------

def bulk_read_rate(provider, client, n=24, size=MIB):
    env, top, ch = setup(provider, client=client)
    region = ch.register("storage", size)
    cname = top.client.name

    def reader(env):
        for _ in range(n):
            yield from ch.rma_read(cname, region, size)

    env.process(reader(env))
    env.run()
    return n * size / env.now


def test_rdma_rma_charges_no_server_cpu_tcp_does():
    env, top, ch = setup("ucx+rc")
    region = ch.register("storage", MIB)

    def reader(env):
        yield from ch.rma_read("host", region, MIB)

    env.process(reader(env))
    env.run()
    rdma_server_cpu = top.server.cpu.busy_time

    env2, top2, ch2 = setup("ucx+tcp")
    region2 = ch2.register("storage", MIB)

    def reader2(env2):
        yield from ch2.rma_read("host", region2, MIB)

    env2.process(reader2(env2))
    env2.run()
    tcp_server_cpu = top2.server.cpu.busy_time

    assert rdma_server_cpu == 0.0
    assert tcp_server_cpu > 0.0


def test_dpu_rdma_read_matches_host_but_tcp_does_not():
    host_tcp = bulk_read_rate("ucx+tcp", "host")
    dpu_tcp = bulk_read_rate("ucx+tcp", "dpu")
    host_rdma = bulk_read_rate("ucx+rc", "host")
    dpu_rdma = bulk_read_rate("ucx+rc", "dpu")
    # RDMA: DPU within ~10% of host. TCP: DPU way behind host.
    assert dpu_rdma > 0.9 * host_rdma
    assert dpu_tcp < 0.6 * host_tcp
    assert dpu_rdma > 2.0 * dpu_tcp
