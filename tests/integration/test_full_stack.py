"""Integration tests: the whole paper stack exercised end to end.

These cross every package boundary at once — sim kernel, hardware models,
transports, NVMe-oF, DAOS engine/VOS/DFS, ROS2 control+data planes — in
functional (real-bytes) mode, verifying invariants no unit test can see.
"""

import pytest

from repro.core import Ros2Config, Ros2System
from repro.hw.specs import KIB, MIB
from repro.sim import Environment


def boot(transport="rdma", client="dpu", n_ssds=4, **policy):
    env = Environment()
    system = Ros2System(env, Ros2Config(
        transport=transport, client=client, n_ssds=n_ssds, data_mode=True
    ))
    token = system.register_tenant("it", **policy)

    def go(env):
        yield from system.start()
        return (yield from system.open_session(token))

    p = env.process(go(env))
    env.run(until=p)
    return env, system, p.value


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


@pytest.mark.parametrize("transport", ["rdma", "tcp", "ofi+verbs;ofi_rxm",
                                       "ofi+tcp;ofi_rxm", "ucx+dc_x"])
@pytest.mark.parametrize("client", ["host", "dpu"])
def test_data_integrity_every_configuration(transport, client):
    """Every provider x placement combination round-trips bytes intact."""
    env, system, session = boot(transport=transport, client=client, n_ssds=1)
    payload = bytes((i * 37 + 11) % 256 for i in range(96 * KIB))

    def go(env):
        fh = yield from session.create("/itest.bin", chunk_size=32 * KIB)
        port = session.data_port()
        ctx = port.new_context()
        yield from port.write(ctx, fh, 5, data=payload)
        return (yield from port.read(ctx, fh, 5, len(payload)))

    assert run(env, go(env)) == payload


def test_concurrent_writers_distinct_regions():
    """16 concurrent writers to one file never corrupt each other."""
    env, system, session = boot()
    n, piece = 16, 8 * KIB

    def go(env):
        fh = yield from session.create("/concurrent.bin", chunk_size=16 * KIB)
        port = session.data_port()

        def writer(env, i):
            ctx = port.new_context()
            data = bytes([i]) * piece
            yield from port.write(ctx, fh, i * piece, data=data)

        writers = [env.process(writer(env, i)) for i in range(n)]
        yield env.all_of(writers)
        ctx = port.new_context()
        return (yield from port.read(ctx, fh, 0, n * piece))

    blob = run(env, go(env))
    for i in range(n):
        assert blob[i * piece:(i + 1) * piece] == bytes([i]) * piece


def test_overwrite_visibility_across_sessions():
    """A second session sees the first session's committed overwrite."""
    env = Environment()
    system = Ros2System(env, Ros2Config(data_mode=True))
    tok = system.register_tenant("shared")

    def go(env):
        yield from system.start()
        s1 = yield from system.open_session(tok)
        s2 = yield from system.open_session(tok)
        fh1 = yield from s1.create("/shared.bin")
        p1, p2 = s1.data_port(), s2.data_port()
        c1, c2 = p1.new_context(), p2.new_context()
        yield from p1.write(c1, fh1, 0, data=b"versionA")
        yield from p1.write(c1, fh1, 0, data=b"versionB")
        fh2 = yield from s2.open("/shared.bin")
        return (yield from p2.read(c2, fh2, 0, 8))

    p = env.process(go(env))
    env.run(until=p)
    assert p.value == b"versionB"


def test_encrypted_and_plain_tenants_coexist():
    env = Environment()
    system = Ros2System(env, Ros2Config(data_mode=True, client="dpu"))
    tok_enc = system.register_tenant("enc", crypto_key=bytes(range(32)))
    tok_plain = system.register_tenant("plain")
    msg = b"tenant-private bytes" * 64

    def go(env):
        yield from system.start()
        se = yield from system.open_session(tok_enc)
        sp = yield from system.open_session(tok_plain)
        fe = yield from se.create("/enc.bin")
        fp = yield from sp.create("/plain.bin")
        pe, pp = se.data_port(), sp.data_port()
        ce, cp = pe.new_context(), pp.new_context()
        yield from pe.write(ce, fe, 0, data=msg)
        yield from pp.write(cp, fp, 0, data=msg)
        a = yield from pe.read(ce, fe, 0, len(msg))
        b = yield from pp.read(cp, fp, 0, len(msg))
        return a, b

    p = env.process(go(env))
    env.run(until=p)
    a, b = p.value
    assert a == msg and b == msg


def test_checksum_end_to_end_detects_media_corruption():
    from repro.daos.checksum import ChecksumError

    env, system, session = boot(transport="rdma", client="host", n_ssds=1)

    def write(env):
        fh = yield from session.create("/guarded.bin")
        port = session.data_port()
        ctx = port.new_context()
        yield from port.write(ctx, fh, 0, data=b"x" * 8 * KIB)
        return fh, port, ctx

    fh, port, ctx = run(env, write(env))
    state = system.service.sessions[session.session_id]
    f = state.files[fh]
    # Flip stored bytes behind the engine's back on whichever target holds
    # the chunk.
    corrupted = False
    for t in system.engine.targets:
        vobj = t.vos.object_if_exists(state.cont.cont, f.oid)
        if vobj is None:
            continue
        for akeys in vobj._dkeys.values():
            for store in akeys.values():
                payloads = getattr(store, "payloads", None) or {}
                for row, data in payloads.items():
                    payloads[row] = b"y" * len(data)
                    corrupted = True
    assert corrupted

    def read(env):
        yield from port.read(ctx, fh, 0, 8 * KIB)

    p = env.process(read(env))
    with pytest.raises(ChecksumError):
        env.run(until=p)


def test_dram_backpressure_bounds_inflight_payloads():
    """The DPU's staging pool caps concurrent payload bytes."""
    from repro.core.data_plane import DataPlane

    env, system, session = boot(client="dpu")
    system.service.data_plane = DataPlane(
        system.client_node, "rdma", staging_budget_bytes=4 * MIB
    )

    def go(env):
        fh = yield from session.create("/big.bin")
        port = session.data_port()

        def writer(env, i):
            ctx = port.new_context()
            yield from port.write(ctx, fh, i * MIB, nbytes=MIB, data=bytes(MIB))

        writers = [env.process(writer(env, i)) for i in range(16)]
        yield env.all_of(writers)

    p = env.process(go(env))
    env.run(until=p)
    assert system.service.data_plane.staged.peak_bytes <= 4 * MIB


def test_simulation_determinism():
    """Identical configurations produce byte-identical outcomes and clocks."""

    def one_run():
        env, system, session = boot(transport="rdma", client="dpu", n_ssds=2)

        def go(env):
            fh = yield from session.create("/det.bin")
            port = session.data_port()
            ctx = port.new_context()
            for i in range(16):
                yield from port.write(ctx, fh, i * 4 * KIB, data=bytes([i]) * 4 * KIB)
            data = yield from port.read(ctx, fh, 0, 64 * KIB)
            return env.now, data

        return run(env, go(env))

    t1, d1 = one_run()
    t2, d2 = one_run()
    assert t1 == t2
    assert d1 == d2
