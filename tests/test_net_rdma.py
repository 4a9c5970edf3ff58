"""Unit tests for RDMA verbs: PDs, MRs, rkeys, QPs, one/two-sided ops."""

from unittest import mock

import pytest

from repro.hw import make_paper_testbed, platform
from repro.hw.specs import KIB, MIB
from repro.net.rdma import (
    AccessFlags,
    AccessViolation,
    RdmaDevice,
    RdmaError,
)
from repro.sim import Environment


def make_pair(client="host"):
    env = Environment()
    top = make_paper_testbed(env, client=client)
    dev_c = RdmaDevice(top.client)
    dev_s = RdmaDevice(top.server)
    return env, top, dev_c, dev_s


def connect_qps(dev_c, dev_s, pd_c=None, pd_s=None):
    pd_c = pd_c or dev_c.alloc_pd()
    pd_s = pd_s or dev_s.alloc_pd()
    qc = dev_c.create_qp(pd_c)
    qs = dev_s.create_qp(pd_s)
    qc.connect(qs)
    return qc, qs


# ---------------------------------------------------------------------------
# MR registration and key semantics
# ---------------------------------------------------------------------------

def test_register_mr_mints_distinct_keys():
    env, top, dev_c, dev_s = make_pair()
    pd = dev_s.alloc_pd()
    mr1 = pd.register_mr(4 * KIB, AccessFlags.remote_rw())
    mr2 = pd.register_mr(4 * KIB, AccessFlags.remote_rw())
    assert mr1.rkey != mr2.rkey
    assert mr1.lkey != mr1.rkey
    assert mr1.addr != mr2.addr


def test_mr_requires_big_enough_buffer():
    env, top, dev_c, dev_s = make_pair()
    pd = dev_s.alloc_pd()
    with pytest.raises(ValueError):
        pd.register_mr(100, AccessFlags.local_only(), buffer=bytearray(50))
    with pytest.raises(ValueError):
        pd.register_mr(0, AccessFlags.local_only())


def test_deregister_revokes_key():
    env, top, dev_c, dev_s = make_pair()
    pd = dev_s.alloc_pd()
    mr = pd.register_mr(4 * KIB, AccessFlags.remote_rw())
    assert pd.lookup(mr.rkey) is mr
    pd.deregister_mr(mr)
    assert pd.lookup(mr.rkey) is None
    assert mr.revoked


def test_mr_contains_bounds():
    env, top, dev_c, dev_s = make_pair()
    pd = dev_s.alloc_pd()
    mr = pd.register_mr(4096, AccessFlags.remote_rw())
    assert mr.contains(mr.addr, 4096)
    assert mr.contains(mr.addr + 100, 100)
    assert not mr.contains(mr.addr + 100, 4096)
    assert not mr.contains(mr.addr - 1, 10)


# ---------------------------------------------------------------------------
# QP lifecycle
# ---------------------------------------------------------------------------

def test_qp_requires_connection():
    env, top, dev_c, dev_s = make_pair()
    qp = dev_c.create_qp(dev_c.alloc_pd())

    def proc(env):
        yield from qp.post_send(nbytes=100)

    env.process(proc(env))
    with pytest.raises(RdmaError):
        env.run()


def test_qp_double_connect_rejected():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    q2 = dev_c.create_qp(dev_c.alloc_pd())
    with pytest.raises(RdmaError):
        q2.connect(qs)


def test_qp_pd_must_match_device():
    env, top, dev_c, dev_s = make_pair()
    pd_other = dev_s.alloc_pd()
    with pytest.raises(RdmaError):
        dev_c.create_qp(pd_other)


# ---------------------------------------------------------------------------
# Two-sided SEND/RECV
# ---------------------------------------------------------------------------

def test_send_recv_roundtrip_with_payload():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    got = []

    def sender(env):
        qs.post_recv(wr_id=7)
        yield from qc.post_send(payload=b"data!", wr_id=1)

    def receiver(env):
        comp = yield qs.recv_cq.poll()
        got.append((comp.wr_id, comp.payload, comp.status))

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert got == [(7, b"data!", "ok")]


def test_send_blocks_until_recv_posted():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    done = []

    def sender(env):
        yield from qc.post_send(nbytes=64)
        done.append(env.now)

    def poster(env):
        yield env.timeout(1.0)
        qs.post_recv(wr_id=0)

    env.process(sender(env))
    env.process(poster(env))
    env.run()
    assert done[0] >= 1.0


def test_a_flushed_rnr_wait_books_its_block():
    """A sampled sender parked for a RECV that a QP error flushes books
    the park as a BLOCK record up to the flush, and leaves nothing parked
    in the wait tracer."""
    from repro.sim import SpanCollector, WaitTracer
    from repro.sim.waits import BLOCK

    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    tracer = WaitTracer(env).install()
    col = SpanCollector(env)
    failed = []

    def sender(env):
        tr = col.trace("send")
        try:
            yield from qc.post_send(nbytes=64)
        except RdmaError:
            failed.append(env.now)
        tr.finish()

    def flusher(env):
        yield env.timeout(1.0)
        qs.transition_to_error("reset")

    env.process(sender(env))
    env.process(flusher(env))
    env.run()
    assert failed == [1.0]
    blocks = [r for r in tracer.records if r.kind == BLOCK]
    assert len(blocks) == 1 and blocks[0].wait == pytest.approx(1.0, rel=1e-3)
    assert tracer.blocked == {}


def test_send_completion_lands_in_send_cq():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    qs.post_recv(wr_id=0)

    def sender(env):
        comp = yield from qc.post_send(nbytes=128, wr_id=42)
        assert comp.wr_id == 42 and comp.opcode == "send"

    env.process(sender(env))
    env.run()
    assert len(qc.send_cq) == 1


def test_one_sided_ops_leave_send_cq_empty():
    """Bulk READ/WRITE post unsignaled: the caller gets the completion."""
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    mr = qs.pd.register_mr(4096, AccessFlags.remote_rw())
    comps = []

    def proc(env):
        comps.append((yield from qc.rdma_write(mr.addr, mr.rkey, nbytes=64)))
        comps.append((yield from qc.rdma_read(mr.addr, mr.rkey, 64)))

    env.process(proc(env))
    env.run()
    assert [c.opcode for c in comps] == ["write", "read"]
    assert len(qc.send_cq) == 0 and len(qs.recv_cq) == 0


def _one_op(op, observed, propagation=None):
    """Run one verb from a rounded clock value.

    ``observed`` installs a wait tracer and samples the request (its
    ``io`` root span is open in the initiator while the verb runs).
    Returns the finish instant, the events dispatched, the link, the
    initiator's device and, when observed, the collector and tracer.
    """
    from dataclasses import replace

    from repro.hw.specs import PAPER_LINK
    from repro.sim.spans import SpanCollector
    from repro.sim.waits import WaitTracer

    link = PAPER_LINK if propagation is None else replace(
        PAPER_LINK, propagation=propagation)
    env = Environment()
    with mock.patch.object(platform, "PAPER_LINK", link):
        top = make_paper_testbed(env)
    tracer = WaitTracer(env).install() if observed else None
    collector = SpanCollector(env)
    dev_c = RdmaDevice(top.client)
    dev_s = RdmaDevice(top.server)
    qc, qs = connect_qps(dev_c, dev_s)
    mr = qs.pd.register_mr(4 * MIB, AccessFlags.remote_rw())
    kind, nbytes = op

    def initiator(env):
        yield env.timeout(1e-3 / 3)
        root = collector.trace("io").root if observed else None
        if kind == "write":
            yield from qc.rdma_write(mr.addr, mr.rkey, nbytes=nbytes)
        elif kind == "read":
            yield from qc.rdma_read(mr.addr, mr.rkey, nbytes)
        else:
            yield from qc.transmit(nbytes)
        if root is not None:
            root.finish()

    env.process(initiator(env))
    env.run()
    return env.now, env.events_processed, link, dev_c, collector, tracer


def _assert_chained_bookings(op, link, dev, collector, tracer):
    """A sampled verb's spans and records sit at the chained path's instants.

    The post CPU's span closes at ``t0 + (done - t0)``.  A rendezvous
    message then sleeps the stack latency on the open ``io`` span and the
    round-trip in an ``rdma.rendezvous`` span.  The stage span opens next
    with the sleep ``Switch.transmit`` books (``when - t`` after a stack
    latency, else the propagation), and its first port crossing is
    requested at ``when``.  A READ's data span opens where its request's
    RX crossing ends, with the target's stack latency and propagation.
    """
    from repro.sim.waits import RESERVE, SLEEP

    kind, nbytes = op
    costs = dev.costs
    pre = costs.rtt_overhead / 2.0
    prop = link.propagation
    node = dev.node.name
    spans = {}
    for s in sorted(collector.spans, key=lambda s: (s.t_start, s.span_id)):
        spans.setdefault(s.name, []).append(s)

    def sleeps(span):
        return [(r.t, r.latency) for r in tracer.records
                if r.span_id == span.span_id and r.kind == SLEEP]

    def reserves(span):
        return [r for r in tracer.records
                if r.span_id == span.span_id and r.kind == RESERVE]

    def closed(span):
        """Where a span around one idle reservation closes."""
        (rec,) = reserves(span)
        assert (rec.wait, rec.t) == (0.0, span.t_start)
        t0 = span.t_start
        return t0 + ((t0 + rec.service) - t0)

    (root,) = spans["io"]
    (post,) = spans["rdma.post"]
    t = closed(post)
    assert post.t_end == t
    stage = "rdma.eager" if kind == "send" else "rdma.dma"
    if kind != "read" and nbytes > costs.rendezvous_threshold:
        rtt = 2 * (prop + pre)
        assert sleeps(root) == [(t, pre)]
        (rendezvous,) = spans["rdma.rendezvous"]
        t = t + pre
        assert (rendezvous.t_start, rendezvous.t_end) == (t, t + rtt)
        assert sleeps(rendezvous) == [(t, rtt)]
        t = t + rtt
        when = t + prop
        slept = [(t, prop)] if prop else []
    else:
        assert sleeps(root) == []
        when = (t + pre) + prop
        slept = [(t, when - t)]
    wire = spans[stage][0]
    assert wire.t_start == t
    assert sleeps(wire) == slept
    crossing = reserves(wire)
    assert crossing[0].t == when
    assert crossing[0].resource == f"net.{node}.tx"
    if kind == "read":
        (rx,) = [r for r in crossing if r.resource.endswith(".rx")]
        t = rx.t + ((rx.t + rx.service) - rx.t)
        assert rx.wait == 0.0 and wire.t_end == t
        data = spans[stage][1]
        assert data.t_start == t
        when = (t + pre) + prop
        assert sleeps(data) == [(t, when - t)]
        assert reserves(data)[0].t == when


@pytest.mark.parametrize("propagation", [None, 0.0])
def test_untraced_send_merges_post_and_wire_into_one_event(propagation):
    """Post CPU, stack latency and propagation are one event, sampled or
    not, and the sampled send books its spans at the chained instants."""
    op = ("send", 4 * KIB)
    plain = _one_op(op, False, propagation)
    observed = _one_op(op, True, propagation)
    assert plain[:2] == observed[:2]
    _assert_chained_bookings(op, *observed[2:])


#: Verbs whose fixed delays merge into an earlier event: the post's stack
#: latency, rendezvous round-trip and propagation ride on its CPU
#: reservation; a READ request's RX crossing carries the reply's stack
#: latency and propagation.
_MERGED_HOPS = [
    ("write", 4 * KIB),
    ("write", MIB),          # above the rendezvous threshold
    ("send", 32 * KIB),
    ("read", 4 * KIB),
    ("read", MIB),
]


@pytest.mark.parametrize("op", _MERGED_HOPS, ids=str)
@pytest.mark.parametrize("propagation", [None, 0.0])
def test_untraced_verbs_merge_fixed_delays_at_the_chained_instant(op, propagation):
    """A sampled verb dispatches the events an unsampled one does, finishes
    at the same instant, and books its spans and sleeps where the chained
    sleeps put them."""
    plain = _one_op(op, False, propagation)
    observed = _one_op(op, True, propagation)
    assert plain[:2] == observed[:2]
    _assert_chained_bookings(op, *observed[2:])


# ---------------------------------------------------------------------------
# One-sided READ/WRITE with enforcement
# ---------------------------------------------------------------------------

def test_rdma_write_moves_real_bytes():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    buf = bytearray(4096)
    mr = qs.pd.register_mr(4096, AccessFlags.remote_rw(), buffer=buf)

    def writer(env):
        yield from qc.rdma_write(mr.addr + 8, mr.rkey, payload=b"\xab" * 16)

    env.process(writer(env))
    env.run()
    assert buf[8:24] == b"\xab" * 16
    assert buf[0:8] == bytes(8)


def test_rdma_read_returns_bytes():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    buf = bytearray(b"0123456789abcdef")
    mr = qs.pd.register_mr(16, AccessFlags.remote_rw(), buffer=buf)
    got = []

    def reader(env):
        comp = yield from qc.rdma_read(mr.addr + 4, mr.rkey, 8)
        got.append(comp.payload)

    env.process(reader(env))
    env.run()
    assert got == [b"456789ab"]


def test_one_sided_bad_rkey_rejected():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    mr = qs.pd.register_mr(4096, AccessFlags.remote_rw())

    def writer(env):
        yield from qc.rdma_write(mr.addr, mr.rkey + 999, nbytes=64)

    env.process(writer(env))
    with pytest.raises(AccessViolation, match="not valid"):
        env.run()


def test_one_sided_out_of_bounds_rejected():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    mr = qs.pd.register_mr(4096, AccessFlags.remote_rw())

    def writer(env):
        yield from qc.rdma_write(mr.addr + 4000, mr.rkey, nbytes=200)

    env.process(writer(env))
    with pytest.raises(AccessViolation, match="outside MR"):
        env.run()


def test_one_sided_missing_permission_rejected():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    ro = qs.pd.register_mr(
        4096, AccessFlags.LOCAL_READ | AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_READ
    )

    def writer(env):
        yield from qc.rdma_write(ro.addr, ro.rkey, nbytes=64)

    env.process(writer(env))
    with pytest.raises(AccessViolation, match="permission"):
        env.run()


def test_cross_pd_rkey_rejected():
    """A valid rkey from tenant A's PD must not work through tenant B's QP."""
    env, top, dev_c, dev_s = make_pair()
    pd_a = dev_s.alloc_pd()
    pd_b = dev_s.alloc_pd()
    mr_a = pd_a.register_mr(4096, AccessFlags.remote_rw())
    # QP pair lands in pd_b on the server side.
    qc, qs = connect_qps(dev_c, dev_s, pd_s=pd_b)

    def attacker(env):
        yield from qc.rdma_read(mr_a.addr, mr_a.rkey, 64)

    env.process(attacker(env))
    with pytest.raises(AccessViolation):
        env.run()


def test_scoped_rkey_expires():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    mr = qs.pd.register_mr(4096, AccessFlags.remote_rw(), valid_until=1.0)

    def late_writer(env):
        yield env.timeout(2.0)
        yield from qc.rdma_write(mr.addr, mr.rkey, nbytes=64)

    env.process(late_writer(env))
    with pytest.raises(AccessViolation, match="expired"):
        env.run()


def test_revoked_rkey_rejected():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    mr = qs.pd.register_mr(4096, AccessFlags.remote_rw())
    qs.pd.deregister_mr(mr)

    def writer(env):
        yield from qc.rdma_write(mr.addr, mr.rkey, nbytes=64)

    env.process(writer(env))
    with pytest.raises(AccessViolation):
        env.run()


def test_zero_size_one_sided_rejected():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    mr = qs.pd.register_mr(4096, AccessFlags.remote_rw())

    def writer(env):
        yield from qc.rdma_write(mr.addr, mr.rkey, nbytes=0)

    env.process(writer(env))
    with pytest.raises(ValueError):
        env.run()


# ---------------------------------------------------------------------------
# Performance-shape checks
# ---------------------------------------------------------------------------

def test_one_sided_write_charges_no_target_cpu():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    mr = qs.pd.register_mr(64 * MIB, AccessFlags.remote_rw())
    before = top.server.cpu.busy_time

    def writer(env):
        for _ in range(16):
            yield from qc.rdma_write(mr.addr, mr.rkey, nbytes=MIB)

    env.process(writer(env))
    env.run()
    assert top.server.cpu.busy_time == before  # zero remote CPU


def test_rendezvous_adds_latency_above_threshold():
    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    mr = qs.pd.register_mr(64 * MIB, AccessFlags.remote_rw())
    times = {}

    def writer(env):
        t0 = env.now
        yield from qc.rdma_write(mr.addr, mr.rkey, nbytes=4 * KIB)
        times["small"] = env.now - t0
        t0 = env.now
        yield from qc.rdma_write(mr.addr, mr.rkey, nbytes=32 * KIB)
        times["large"] = env.now - t0

    env.process(writer(env))
    env.run()
    wire_delta = (32 - 4) * KIB / (top.switch.spec.rate_bytes) * 2
    # The large transfer pays rendezvous RTT on top of extra wire time.
    assert times["large"] - times["small"] > wire_delta


def test_rdma_faster_than_tcp_for_small_messages():
    from repro.net.tcp import TcpStack
    from repro.net.message import Message

    env, top, dev_c, dev_s = make_pair()
    qc, qs = connect_qps(dev_c, dev_s)
    a, b = TcpStack(top.client), TcpStack(top.server)
    conn = a.connect(b)
    conn.listen("storage", lambda msg: None)
    t = {}

    def rdma_small(env):
        qs.post_recv(0)
        t0 = env.now
        yield from qc.post_send(nbytes=4 * KIB)
        t["rdma"] = env.now - t0

    def tcp_small(env):
        yield env.timeout(1.0)  # keep runs disjoint in time
        t0 = env.now
        yield from conn.send(Message(src="host", dst="storage", nbytes=4 * KIB))
        t["tcp"] = env.now - t0

    env.process(rdma_small(env))
    env.process(tcp_small(env))
    env.run()
    assert t["rdma"] < t["tcp"] / 2
