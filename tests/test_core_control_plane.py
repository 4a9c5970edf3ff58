"""Unit tests for the gRPC-style control plane."""

import pytest

from repro.core.control_plane import GrpcChannel, GrpcError, GrpcServer, StatusCode
from repro.hw import make_paper_testbed
from repro.net.message import Message
from repro.sim import Environment


def setup(client="dpu"):
    """Distinct launcher/client nodes so calls traverse the real TCP path."""
    env = Environment()
    top = make_paper_testbed(env, client=client)
    server = GrpcServer(top.client)  # control service lives on the client node
    channel = GrpcChannel(top.launcher, top.client).start()
    channel.bind(server)
    return env, top, server, channel


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


def test_unary_roundtrip():
    env, top, server, channel = setup()

    def hello(request, metadata):
        yield env.timeout(0)
        return {"greeting": f"hello {request['who']}"}

    server.add_method("svc", "Hello", hello)

    def main(env):
        return (yield from channel.unary("svc", "Hello", {"who": "world"}))

    assert run(env, main(env)) == {"greeting": "hello world"}


def test_unimplemented_method():
    env, top, server, channel = setup()

    def main(env):
        yield from channel.unary("svc", "Nope", {})

    p = env.process(main(env))
    with pytest.raises(GrpcError) as exc_info:
        env.run(until=p)
    assert exc_info.value.code is StatusCode.UNIMPLEMENTED


def test_handler_error_maps_to_status():
    env, top, server, channel = setup()

    def denied(request, metadata):
        yield env.timeout(0)
        raise GrpcError(StatusCode.PERMISSION_DENIED, "no")

    server.add_method("svc", "Denied", denied)

    def main(env):
        yield from channel.unary("svc", "Denied", {})

    p = env.process(main(env))
    with pytest.raises(GrpcError) as exc_info:
        env.run(until=p)
    assert exc_info.value.code is StatusCode.PERMISSION_DENIED


def test_default_metadata_attached():
    env, top, server, channel = setup()
    channel.default_metadata["authorization"] = "bearer-x"
    seen = []

    def handler(request, metadata):
        yield env.timeout(0)
        seen.append(metadata.get("authorization"))
        return {}

    server.add_method("svc", "M", handler)

    def main(env):
        yield from channel.unary("svc", "M", {})

    run(env, main(env))
    assert seen == ["bearer-x"]


def test_duplicate_method_rejected():
    env, top, server, channel = setup()
    server.add_method("s", "m", lambda r, m: iter(()))
    with pytest.raises(ValueError, match="duplicate"):
        server.add_method("s", "m", lambda r, m: iter(()))


def test_unary_before_start_raises():
    env = Environment()
    top = make_paper_testbed(env, client="dpu")
    channel = GrpcChannel(top.launcher, top.client)
    with pytest.raises(RuntimeError, match="not started"):
        list(channel.unary("s", "m", {}))


def test_loopback_channel_same_node():
    """Host-mode deployments use a loopback path (no switch traversal)."""
    env = Environment()
    top = make_paper_testbed(env, client="host")
    assert top.launcher is top.client
    server = GrpcServer(top.client)
    channel = GrpcChannel(top.launcher, top.client).start().bind(server)
    assert channel.local and channel.conn is None

    def ping(request, metadata):
        yield env.timeout(0)
        return "pong"

    server.add_method("svc", "Ping", ping)

    def main(env):
        return (yield from channel.unary("svc", "Ping", {}))

    assert run(env, main(env)) == "pong"


def test_loopback_unbound_raises():
    env = Environment()
    top = make_paper_testbed(env, client="host")
    channel = GrpcChannel(top.launcher, top.client).start()

    def main(env):
        yield from channel.unary("svc", "M", {})

    p = env.process(main(env))
    with pytest.raises(RuntimeError, match="no bound server"):
        env.run(until=p)


def test_loopback_errors_propagate():
    env = Environment()
    top = make_paper_testbed(env, client="host")
    server = GrpcServer(top.client)
    channel = GrpcChannel(top.launcher, top.client).start().bind(server)

    def main(env):
        yield from channel.unary("svc", "Missing", {})

    p = env.process(main(env))
    with pytest.raises(GrpcError) as exc_info:
        env.run(until=p)
    assert exc_info.value.code is StatusCode.UNIMPLEMENTED


def test_shutdown_stops_loop():
    """A call after the shutdown runs no handler and gets no response."""
    env, top, server, channel = setup()
    ran, got = [], []

    def ping(request, metadata):
        ran.append(env.now)
        yield env.timeout(0)
        return "pong"

    server.add_method("svc", "Ping", ping)

    def main(env):
        yield from channel.conn.send(Message(
            src=top.launcher.name, dst=channel.server_name,
            kind="grpc.shutdown", nbytes=16))
        got.append((yield from channel.unary("svc", "Ping", {})))

    env.process(main(env))
    env.run(until=0.5)
    assert ran == [] and got == []


def test_stray_kinds_and_unknown_tags_dropped():
    from repro.net.message import Message

    env, top, server, channel = setup()

    def main(env):
        yield from channel.conn.send(Message(
            src=top.launcher.name, dst=top.client.name, kind="garbage", nbytes=8))
        yield from channel.conn.send(Message(
            src=top.client.name, dst=top.launcher.name, kind="grpc.rep",
            tag=424242, nbytes=8))

    p = env.process(main(env))
    env.run(until=p)  # neither side crashes
    assert channel._pending == {}


def test_second_listener_rejected():
    env, top, server, channel = setup()
    with pytest.raises(RuntimeError, match="already has a listener"):
        server.serve(channel.conn)
    channel.start()  # idempotent: does not listen twice


def test_concurrent_calls_demux():
    env, top, server, channel = setup()

    def echo(request, metadata):
        yield env.timeout(request["delay"])
        return request["x"]

    server.add_method("svc", "Echo", echo)
    got = {}

    def one(env, x, delay):
        got[x] = (yield from channel.unary("svc", "Echo", {"x": x, "delay": delay}))

    env.process(one(env, 1, 0.2))
    env.process(one(env, 2, 0.01))
    env.run(until=1.0)
    assert got == {1: 1, 2: 2}


def test_control_plane_works_between_host_and_dpu():
    """In offload mode the launcher (host) reaches the DPU over gRPC."""
    env, top, server, channel = setup(client="dpu")

    def ping(request, metadata):
        yield env.timeout(0)
        return "pong"

    server.add_method("svc", "Ping", ping)

    def main(env):
        return (yield from channel.unary("svc", "Ping", {}))

    assert run(env, main(env)) == "pong"
