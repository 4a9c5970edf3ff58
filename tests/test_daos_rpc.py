"""Unit tests for the CaRT-like RPC framework."""

import pytest

from repro.daos.rpc import RpcClient, RpcError, RpcServer, RpcTimeout
from repro.daos.types import DaosError
from repro.hw import make_paper_testbed
from repro.net import Fabric
from repro.sim import Environment


def setup(provider="ucx+rc"):
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    ch = fab.connect(top.client, top.server, provider)
    server = RpcServer(top.server)
    client = RpcClient(top.client, ch).start()
    return env, top, ch, server, client


def test_call_roundtrip():
    env, top, ch, server, client = setup()

    def echo(args, src, channel):
        yield env.timeout(0)
        return {"echo": args["x"] * 2}

    server.register("echo", echo)
    server.serve(ch)
    got = []

    def main(env):
        r = yield from client.call("echo", {"x": 21})
        got.append(r)

    p = env.process(main(env))
    env.run(until=p)
    assert got == [{"echo": 42}]
    assert server.requests_served == 1


def test_unknown_opcode_raises_client_side():
    env, top, ch, server, client = setup()
    server.serve(ch)

    def main(env):
        yield from client.call("nope", {})

    p = env.process(main(env))
    with pytest.raises(RpcError, match="unknown opcode"):
        env.run(until=p)


def test_handler_daos_error_propagates():
    env, top, ch, server, client = setup()

    def failing(args, src, channel):
        yield env.timeout(0)
        raise DaosError("backend exploded")

    server.register("boom", failing)
    server.serve(ch)

    def main(env):
        yield from client.call("boom", {})

    p = env.process(main(env))
    with pytest.raises(RpcError, match="backend exploded"):
        env.run(until=p)


def test_duplicate_opcode_rejected():
    env, top, ch, server, client = setup()
    server.register("op", lambda a, s, c: iter(()))
    with pytest.raises(ValueError, match="duplicate"):
        server.register("op", lambda a, s, c: iter(()))


def test_call_before_start_raises():
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    ch = fab.connect(top.client, top.server, "ucx+rc")
    client = RpcClient(top.client, ch)
    with pytest.raises(RuntimeError, match="not started"):
        list(client.call("x", {}))


def test_concurrent_calls_demuxed_correctly():
    env, top, ch, server, client = setup()

    def slow_echo(args, src, channel):
        yield env.timeout(args["delay"])
        return args["x"]

    server.register("echo", slow_echo)
    server.serve(ch)
    got = {}

    def one(env, x, delay):
        r = yield from client.call("echo", {"x": x, "delay": delay})
        got[x] = (r, env.now)

    # The first call takes longer than the second: replies cross.
    env.process(one(env, "a", 0.5))
    env.process(one(env, "b", 0.01))
    env.run(until=2.0)
    assert got["a"][0] == "a"
    assert got["b"][0] == "b"
    assert got["b"][1] < got["a"][1]


def test_shutdown_stops_server():
    """A request after the shutdown runs no handler and gets no reply."""
    env, top, ch, server, client = setup()
    ran = []

    def noop(args, src, channel):
        ran.append(env.now)
        yield env.timeout(0)

    server.register("noop", noop)
    server.serve(ch)

    def main(env):
        yield from client.shutdown_server()
        yield from client.call("noop", {}, deadline=0.01)

    p = env.process(main(env))
    with pytest.raises(RpcTimeout):
        env.run(until=p)
    assert ran == [] and server.requests_served == 0


def test_reply_after_deadline_dropped():
    env, top, ch, server, client = setup()

    def slow(args, src, channel):
        yield env.timeout(args["delay"])
        return args["delay"]

    server.register("slow", slow)
    server.serve(ch)
    got = []

    def main(env):
        try:
            yield from client.call("slow", {"delay": 0.05}, deadline=0.01)
        except RpcTimeout:
            got.append("timeout")
        yield env.timeout(0.1)  # the late reply arrives meanwhile
        got.append((yield from client.call("slow", {"delay": 0.0})))

    p = env.process(main(env))
    env.run(until=p)
    assert got == ["timeout", 0.0]
    assert server.requests_served == 2
    assert client._pending == {}


def test_second_listener_rejected():
    env, top, ch, server, client = setup()
    server.serve(ch)
    with pytest.raises(RuntimeError, match="already has a listener"):
        RpcServer(top.server).serve(ch)
    with pytest.raises(RuntimeError, match="already has a listener"):
        RpcClient(top.client, ch).start()


def test_stray_message_ignored():
    env, top, ch, server, client = setup()
    server.serve(ch)
    from repro.net.message import Message

    def main(env):
        yield from ch.send(Message(src="host", dst="storage", kind="garbage", nbytes=8))

    env.process(main(env))
    env.run(until=1.0)  # must not crash
    assert server.requests_served == 0


def test_opcodes_listing():
    env, top, ch, server, client = setup()
    server.register("b_op", lambda a, s, c: iter(()))
    server.register("a_op", lambda a, s, c: iter(()))
    assert server.opcodes() == ["a_op", "b_op"]
