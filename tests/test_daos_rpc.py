"""Unit tests for the CaRT-like RPC framework."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.daos.rpc import (RPC_REQUEST_BYTES, RpcClient, RpcError, RpcServer,
                            RpcTimeout)
from repro.daos.types import DaosError
from repro.hw import make_paper_testbed
from repro.net import Fabric
from repro.net.message import Message
from repro.sim import Environment
from tests.reference import AnyOf


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

    ran = []

    def echo(args, src, channel):
        ran.append(env.now)
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
    assert len(ran) == 1


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
        yield from ch.send(Message(src=top.client.name, dst=client.server_name,
                                   kind="rpc.shutdown", nbytes=16))
        yield from client.call("noop", {}, deadline=0.01)

    p = env.process(main(env))
    with pytest.raises(RpcTimeout):
        env.run(until=p)
    assert ran == []


def test_reply_after_deadline_dropped():
    env, top, ch, server, client = setup()

    ran = []

    def slow(args, src, channel):
        ran.append(env.now)
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
    assert len(ran) == 2
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
    ran = []

    def noop(args, src, channel):
        ran.append(env.now)
        yield env.timeout(0)

    server.register("noop", noop)
    server.serve(ch)

    def main(env):
        yield from ch.send(Message(src="host", dst="storage", kind="garbage",
                                   nbytes=8, payload={"op": "noop"}))

    env.process(main(env))
    env.run(until=1.0)  # must not crash
    assert ran == []


# ---------------------------------------------------------------------------
# Deadlines: one timer per client
# ---------------------------------------------------------------------------

class Loopback:
    """A zero-latency channel that answers each request itself.

    The reply (result ``args["x"]``) reaches the client at the absolute
    instant ``args["at"]``, or never when that is None.  With
    ``args["via"]`` the delivery is scheduled only at that instant, after
    the call armed its deadline, so at a tie the deadline fires first.
    """

    def __init__(self, env):
        self.env = env
        self.deliver = None

    def peer_of(self, name):
        return "server"

    def listen(self, name, deliver):
        self.deliver = deliver

    def send(self, msg):
        args = msg.payload["args"]
        at = args.get("at")
        if at is not None:
            reply = msg.reply_to(kind="rpc.rep", nbytes=8, payload={
                "status": "ok", "result": args.get("x")})
            env = self.env

            def deliver(_event):
                self.deliver(reply)

            via = args.get("via")
            if via is None:
                env.call_at(at, deliver)
            else:
                env.call_at(via, lambda _event: env.call_at(at, deliver))
        return
        yield


class AnyOfClient(RpcClient):
    """Reference: each call races its reply against its own Timeout
    through an AnyOf, as the client did before its deadline timer."""

    def call(self, opcode, args, req_nbytes=RPC_REQUEST_BYTES,
             deadline=None):
        tag = next(RpcClient._tags)
        done = self.env.event()
        self._pending[tag] = done
        yield from self.channel.send(Message(
            src=self.node.name, dst=self.server_name, kind="rpc.req", tag=tag,
            payload={"op": opcode, "args": args}, nbytes=req_nbytes))
        if deadline is None:
            reply = yield done
        else:
            fired = yield AnyOf(self.env, (done, self.env.timeout(deadline)))
            if done not in fired:
                self._pending.pop(tag, None)
                raise RpcTimeout(f"no reply within {deadline:g}s")
            reply = fired[done]
        return reply.payload["result"]


def run_calls(calls, client_cls=RpcClient):
    """Run ``(start, reply delay or None, late, deadline)`` calls on one
    client; return ``{i: (outcome, result, instant)}`` and the client."""
    env = Environment()
    client = client_cls(SimpleNamespace(name="client", env=env),
                        Loopback(env)).start()
    out = {}

    def one(i, start, delay, late, deadline):
        yield env.timeout(start)
        now = env.now
        args = {"x": i, "at": None, "via": None}
        if delay is not None:
            args["at"] = now + delay
            if late:
                args["via"] = now + delay * 0.5
        try:
            result = yield from client.call("op", args, deadline=deadline)
        except RpcTimeout:
            out[i] = ("timeout", None, env.now)
        else:
            out[i] = ("ok", result, env.now)

    for i, call in enumerate(calls):
        env.process(one(i, *call))
    env.run()
    return out, client


class TestDeadlines:
    def test_reply_just_before_expiry_wins(self):
        deadline = 1.0
        before = 1.0 - 2.0 ** -53  # the last float below the expiry
        for late in (False, True):
            out, client = run_calls([(0.0, before, late, deadline)])
            assert out == {0: ("ok", 0, before)}
            assert client._pending == {} and client._deadlines == []

    @pytest.mark.parametrize("late", [False, True],
                             ids=["reply-first", "timer-first"])
    def test_reply_at_expiry_times_out_and_is_dropped(self, late):
        # Either order of the two same-instant events: the reply loses.
        out, client = run_calls([(0.0, 1.0, late, 1.0),
                                 (1.5, 0.25, False, 1.0)])
        assert out == {0: ("timeout", None, 1.0), 1: ("ok", 1, 1.75)}
        assert client._pending == {} and client._deadlines == []

    def test_mixed_deadlines_expire_in_expiry_order(self):
        env = Environment()
        client = RpcClient(SimpleNamespace(name="client", env=env),
                           Loopback(env)).start()
        raised = []

        def one(deadline):
            try:
                yield from client.call("op", {"at": None}, deadline=deadline)
            except RpcTimeout:
                raised.append((deadline, env.now))

        for deadline in (3.0, 1.0, 2.0, 1.0):
            env.process(one(deadline))
        env.run()
        assert raised == [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        assert client._pending == {} and client._deadlines == []

    def test_deadlines_cost_no_event_per_call(self):
        def events(deadline):
            env, top, ch, server, client = setup()

            def echo(args, src, channel):
                yield env.timeout(1e-6)
                return args["x"]

            server.register("echo", echo)
            server.serve(ch)
            got = []

            def one(x):
                got.append((yield from client.call(
                    "echo", {"x": x}, deadline=deadline)))

            for x in range(64):
                env.process(one(x))
            env.run()
            assert sorted(got) == list(range(64))
            assert client._pending == {} and client._deadlines == []
            return env.events_processed

        # The timer fires once, finds every call answered and disarms.
        assert events(0.005) - events(None) <= 3

    def test_no_deadline_arms_nothing(self):
        env = Environment()
        client = RpcClient(SimpleNamespace(name="client", env=env),
                           Loopback(env)).start()
        got, seen = [], []

        def main():
            got.append((yield from client.call("op", {"x": 7, "at": 1.0})))

        def look():
            yield env.timeout(0.5)  # the call is in flight
            seen.append((len(client._pending), client._timer,
                         client._deadlines))

        env.process(main())
        env.process(look())
        env.run()
        assert seen == [(1, None, [])] and got == [7]

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0),
        st.none() | st.sampled_from([0.0, 0.5, 1.0, 2.0])
        | st.floats(0.0, 3.0),
        st.booleans(),
        st.none() | st.sampled_from([0.0, 0.5, 1.0, 2.0])
        | st.floats(0.0, 3.0),
    ), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_anyof_reference(self, calls):
        """Outcome and instant of every call match the AnyOf client."""
        out, client = run_calls(calls)
        ref, _ = run_calls(calls, AnyOfClient)
        assert out == ref
        assert client._deadlines == [] and client._timer is None
        hanging = sum(1 for _s, delay, _l, deadline in calls
                      if delay is None and deadline is None)
        assert len(client._pending) == hanging
