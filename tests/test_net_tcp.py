"""Unit tests for the TCP transport model."""

from unittest import mock

import pytest

from repro.hw import make_paper_testbed, platform
from repro.hw.specs import GIB, KIB, MIB, TCP_COSTS
from repro.net.message import HEADER_BYTES, Message
from repro.net.tcp import TcpStack
from repro.sim import Environment


def make_pair(client="host"):
    env = Environment()
    top = make_paper_testbed(env, client=client)
    a = TcpStack(top.client)
    b = TcpStack(top.server)
    return env, top, a, b


def connect(a, b):
    """A connection whose two endpoints listen and discard."""
    conn = a.connect(b)
    for stack in (a, b):
        conn.listen(stack.node.name, lambda msg: None)
    return conn


def test_connect_and_send_delivers_message():
    env, top, a, b = make_pair()
    conn = a.connect(b)
    got = []
    conn.listen("storage", lambda msg: got.append(msg.payload))

    def sender(env):
        yield from conn.send(Message(src="host", dst="storage", payload=b"hello"))

    env.process(sender(env))
    env.run()
    assert got == [b"hello"]


def test_send_from_non_endpoint_raises():
    env, top, a, b = make_pair()
    conn = a.connect(b)

    def sender(env):
        yield from conn.send(Message(src="ghost", dst="storage", nbytes=10))

    env.process(sender(env))
    with pytest.raises(KeyError):
        env.run()


def test_closed_connection_rejects_send():
    env, top, a, b = make_pair()
    conn = a.connect(b)
    conn.close()

    def sender(env):
        yield from conn.send(Message(src="host", dst="storage", nbytes=10))

    env.process(sender(env))
    with pytest.raises(ConnectionError):
        env.run()


def test_messages_arrive_in_order():
    env, top, a, b = make_pair()
    conn = a.connect(b)
    got = []
    conn.listen("storage", lambda msg: got.append(msg.tag))

    def sender(env):
        for i in range(5):
            yield from conn.send(
                Message(src="host", dst="storage", tag=i, nbytes=4 * KIB)
            )

    env.process(sender(env))
    env.run()
    assert got == [0, 1, 2, 3, 4]


def test_single_stream_bandwidth_ceiling():
    """One connection cannot exceed the per-conn byte-processing rate."""
    env, top, a, b = make_pair()
    conn = connect(a, b)
    n = 64

    def one(env):
        yield from conn.send(Message(src="host", dst="storage", nbytes=MIB))

    # Pipelined sends (as real socket writers are): the per-connection
    # stream-processing stage becomes the binding constraint.
    for _ in range(n):
        env.process(one(env))
    env.run()
    achieved = n * MIB / env.now
    ceiling = 1.0 / TCP_COSTS.per_conn_byte_cost
    assert achieved < ceiling
    assert achieved > 0.6 * ceiling


def test_parallel_connections_scale_throughput():
    def run(n_conns):
        env, top, a, b = make_pair()
        conns = [connect(a, b) for _ in range(n_conns)]
        per_conn = 32

        def sender(env, conn):
            for _ in range(per_conn):
                yield from conn.send(Message(src="host", dst="storage", nbytes=MIB))

        for c in conns:
            env.process(sender(env, c))
        env.run()
        return n_conns * per_conn * MIB / env.now

    assert run(4) > 2.0 * run(1)


def test_internal_messages_skip_the_listener():
    env, top, a, b = make_pair()
    conn = a.connect(b)
    got = []
    conn.listen("storage", lambda msg: got.append(msg.kind))

    def sender(env):
        yield from conn.send(Message(src="host", dst="storage", kind="_rxm_x", nbytes=8))
        yield from conn.send(Message(src="host", dst="storage", kind="app", nbytes=8))

    env.process(sender(env))
    env.run()
    assert got == ["app"]  # the RxM emulation's own message is not delivered
    # ...but it crossed the wire like the other one.
    frame = int((8 + HEADER_BYTES) / TCP_COSTS.goodput_efficiency)
    assert top.switch.port("storage").bytes_received() == 2 * frame


def test_dpu_rx_path_slower_than_host_for_reads():
    """Receiving bulk data on the DPU is much slower than on the host."""

    def run(client):
        env, top, a, b = make_pair(client=client)
        conn = connect(a, b)
        client_name = top.client.name

        def one(env):
            yield from conn.send(Message(src="storage", dst=client_name, nbytes=MIB))

        # Pipelined pushes so the RX stage is the binding constraint.
        for _ in range(32):
            env.process(one(env))
        env.run()
        return 32 * MIB / env.now

    host_bw = run("host")
    dpu_bw = run("dpu")
    # The BlueField TCP receive path should deliver well under half the
    # host's receive bandwidth (paper Fig. 5a bottom).
    assert dpu_bw < 0.5 * host_bw


def test_dpu_tx_path_comparable_to_host():
    """Sending (TX) from the DPU does not hit the RX bottleneck."""

    def run(client):
        env, top, a, b = make_pair(client=client)
        conn = connect(a, b)
        client_name = top.client.name

        def client_push(env):
            for _ in range(32):
                yield from conn.send(
                    Message(src=client_name, dst="storage", nbytes=MIB)
                )

        env.process(client_push(env))
        env.run()
        return 32 * MIB / env.now

    host_bw = run("host")
    dpu_bw = run("dpu")
    assert dpu_bw > 0.6 * host_bw


def test_meters_count_bytes():
    """The switch ports meter what a connection moves (telemetry's bytes)."""
    env, top, a, b = make_pair()
    conn = connect(a, b)

    def sender(env):
        yield from conn.send(Message(src="host", dst="storage", nbytes=1000))

    env.process(sender(env))
    env.run()
    frame = int((1000 + HEADER_BYTES) / TCP_COSTS.goodput_efficiency)
    assert top.switch.port("host").bytes_sent() == frame
    assert top.switch.port("storage").bytes_received() == frame


@pytest.mark.parametrize("propagation", [None, 0.0])
def test_untraced_message_merges_stream_and_wire_latency(propagation):
    """The stream reservation, stack latency and propagation are one event,
    sampled or not.  The message reaches the wire at the instant the chained
    sleeps reach, and a sampled one books its spans and sleep there."""
    from dataclasses import replace

    from repro.hw.specs import PAPER_LINK
    from repro.sim.spans import SpanCollector
    from repro.sim.waits import RESERVE, SLEEP, WaitTracer

    link = PAPER_LINK if propagation is None else replace(
        PAPER_LINK, propagation=propagation)
    runs = {}
    for observed in (False, True):
        env = Environment()
        with mock.patch.object(platform, "PAPER_LINK", link):
            top = make_paper_testbed(env)
        tracer = WaitTracer(env).install() if observed else None
        collector = SpanCollector(env)
        client = TcpStack(top.client)
        conn = connect(client, TcpStack(top.server))
        arrived = []

        def sender(env):
            yield env.timeout(1e-3 / 3)  # a clock value with rounding
            if observed:
                collector.trace("io")  # the sender's span from here on
            for nbytes in (4 * KIB, 3 * MIB):
                yield from conn.send(Message(src=top.client.name,
                                             dst=top.server.name, kind="io",
                                             nbytes=nbytes))
                arrived.append(env.now)

        env.process(sender(env))
        env.run()
        runs[observed] = (arrived, env.events_processed)
    assert runs[False] == runs[True]

    # The chained path: the stream span closes at t0 + (done - t0), the
    # wire span opens there with a sleep of when - t1, and the crossing
    # starts at when = (t1 + rtt/2) + propagation.
    pre = client.costs.rtt_overhead / 2.0
    streams = [s for s in collector.spans if s.name == "tcp.stream"]
    wires = [s for s in collector.spans if s.name == "net.wire"]
    assert len(streams) == len(wires) == 2
    for stream, wire in zip(streams, wires):
        (rec,) = [r for r in tracer.records if r.span_id == stream.span_id]
        assert (rec.kind, rec.wait, rec.t) == (RESERVE, 0.0, stream.t_start)
        t0 = stream.t_start
        t1 = t0 + ((t0 + rec.service) - t0)
        when = (t1 + pre) + link.propagation
        assert stream.t_end == t1
        assert wire.t_start == t1
        sleep, *crossing = [r for r in tracer.records if r.span_id == wire.span_id]
        assert (sleep.kind, sleep.t, sleep.latency) == (SLEEP, t1, when - t1)
        tx = [r for r in crossing if r.resource == f"net.{top.client.name}.tx"]
        assert tx[0].t == when
        assert all(r.kind == RESERVE for r in crossing)
