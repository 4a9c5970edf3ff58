"""Integration-grade unit tests for the assembled ROS2 system."""

import pytest

from repro.core import Ros2Config, Ros2System
from repro.core.control_plane import GrpcError, StatusCode
from repro.hw.specs import KIB, MIB
from repro.sim import Environment


def boot(transport="rdma", client="host", n_ssds=1, data_mode=True, **tenant_policy):
    env = Environment()
    system = Ros2System(env, Ros2Config(
        transport=transport, client=client, n_ssds=n_ssds, data_mode=data_mode
    ))
    token = system.register_tenant("t0", **tenant_policy)

    def go(env):
        yield from system.start()
        session = yield from system.open_session(token)
        return session

    p = env.process(go(env))
    env.run(until=p)
    return env, system, p.value, token


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


def test_config_defaults():
    cfg = Ros2Config()
    assert cfg.transport == "rdma" and cfg.client == "host" and cfg.n_ssds == 1


def test_open_session_requires_valid_token():
    env = Environment()
    system = Ros2System(env, Ros2Config(data_mode=True))

    def go(env):
        yield from system.start()
        yield from system.open_session("forged-token")

    p = env.process(go(env))
    with pytest.raises(GrpcError) as exc_info:
        env.run(until=p)
    assert exc_info.value.code is StatusCode.UNAUTHENTICATED


def test_open_session_before_start_raises():
    env = Environment()
    system = Ros2System(env)
    with pytest.raises(RuntimeError, match="not started"):
        list(system.open_session("x"))


def test_namespace_ops_via_control_plane():
    env, system, session, token = boot()

    def go(env):
        yield from session.mkdir("/a")
        fh = yield from session.create("/a/f", chunk_size=64 * KIB)
        names = yield from session.readdir("/a")
        st = yield from session.stat("/a/f")
        yield from session.close(fh)
        yield from session.rename("/a/f", "/a/g")
        yield from session.unlink("/a/g")
        after = yield from session.readdir("/a")
        return names, st, after

    names, st, after = run(env, go(env))
    assert names == ["f"]
    assert st["type"] == "file" and st["chunk_size"] == 64 * KIB
    assert after == []


def test_fs_errors_map_to_grpc_codes():
    env, system, session, token = boot()

    def missing(env):
        yield from session.open("/nope")

    p = env.process(missing(env))
    with pytest.raises(GrpcError) as exc_info:
        env.run(until=p)
    assert exc_info.value.code is StatusCode.NOT_FOUND

    def dupe(env):
        yield from session.create("/f")
        yield from session.create("/f")

    p = env.process(dupe(env))
    with pytest.raises(GrpcError) as exc_info:
        env.run(until=p)
    assert exc_info.value.code is StatusCode.ALREADY_EXISTS


def test_data_port_write_read_roundtrip():
    env, system, session, token = boot()
    payload = bytes(range(256)) * 64  # 16 KiB

    def go(env):
        fh = yield from session.create("/data")
        port = session.data_port()
        ctx = port.new_context()
        yield from port.write(ctx, fh, 0, data=payload)
        return (yield from port.read(ctx, fh, 0, len(payload)))

    assert run(env, go(env)) == payload


def test_encrypted_tenant_stores_ciphertext():
    env, system, session, token = boot(crypto_key=bytes(range(32)))
    payload = b"plaintext secret" * 16

    def go(env):
        fh = yield from session.create("/enc")
        port = session.data_port()
        ctx = port.new_context()
        yield from port.write(ctx, fh, 0, data=payload)
        return fh, (yield from port.read(ctx, fh, 0, len(payload)))

    fh, readback = run(env, go(env))
    assert readback == payload  # decrypted transparently

    # But the media holds ciphertext.
    state = system.service.sessions[session.session_id]
    f = state.files[fh]
    target = system.engine.target_for(f.oid, b"\x00" * 8)
    found_plaintext = False
    for t in system.engine.targets:
        vobj = t.vos.object_if_exists(state.cont.cont, f.oid)
        if vobj is None:
            continue
        for dk in vobj._dkeys.values():
            for store in dk.values():
                payloads = getattr(store, "payloads", None) or {}
                for data in payloads.values():
                    if payload[:16] in data:
                        found_plaintext = True
    assert not found_plaintext


def test_rate_limited_tenant_is_shaped():
    env, system, session, token = boot(bytes_per_sec=1 * MIB, burst_bytes=256 * KIB)

    def go(env):
        fh = yield from session.create("/slow")
        port = session.data_port()
        ctx = port.new_context()
        t0 = env.now
        for i in range(8):
            yield from port.write(ctx, fh, i * 128 * KIB, data=bytes(128 * KIB))
        return env.now - t0

    elapsed = run(env, go(env))
    # 1 MiB at 1 MiB/s with a 256 KiB burst: ~0.75 s minimum.
    assert elapsed > 0.7


def test_unlimited_tenant_not_shaped():
    env, system, session, token = boot()

    def go(env):
        fh = yield from session.create("/fast")
        port = session.data_port()
        ctx = port.new_context()
        t0 = env.now
        for i in range(8):
            yield from port.write(ctx, fh, i * 128 * KIB, data=bytes(128 * KIB))
        return env.now - t0

    assert run(env, go(env)) < 0.1


def test_two_sessions_are_isolated():
    env = Environment()
    system = Ros2System(env, Ros2Config(data_mode=True))
    tok_a = system.register_tenant("a")
    tok_b = system.register_tenant("b")

    def go(env):
        yield from system.start()
        sa = yield from system.open_session(tok_a)
        sb = yield from system.open_session(tok_b)
        yield from sa.create("/shared-ns")
        # Tenant B presents its own (valid) token but tenant A's session id.
        try:
            yield from sb.channel.unary(
                "ros2.Control", "Stat",
                {"path": "/shared-ns", "session_id": sa.session_id},
                metadata={"authorization": tok_b},
            )
        except GrpcError as exc:
            return exc.code
        return None

    code = run(env, go(env))
    assert code is StatusCode.PERMISSION_DENIED


def test_caps_exchange_returns_scoped_region():
    env, system, session, token = boot(rkey_ttl=0.5)

    def go(env):
        return (yield from session.get_caps(1 * MIB))

    caps = run(env, go(env))
    assert caps["region"].length == MIB
    assert caps["ttl"] == 0.5


def test_close_session_invalidates_it():
    env, system, session, token = boot()

    def go(env):
        yield from session.close_session()
        yield from session.readdir("/")

    p = env.process(go(env))
    with pytest.raises(GrpcError) as exc_info:
        env.run(until=p)
    assert exc_info.value.code is StatusCode.NOT_FOUND


def test_dpu_mode_runs_client_on_bluefield():
    env, system, session, token = boot(client="dpu")
    assert system.client_node.spec.name == "bluefield-3"
    assert system.launcher_node is not system.client_node

    def go(env):
        fh = yield from session.create("/dpu-file")
        port = session.data_port()
        ctx = port.new_context()
        yield from port.write(ctx, fh, 0, data=bytes(8 * KIB))
        return (yield from port.read(ctx, fh, 0, 8 * KIB))

    assert run(env, go(env)) == bytes(8 * KIB)
    # Job threads run at DPU speed.
    port = session.data_port()
    assert port.new_context().factor == system.client_node.spec.cycle_factor


def test_gpudirect_faster_than_staged():
    from repro.core.gpudirect import GpuDirectPath, StagedGpuPath
    from repro.hw.gpu import GpuDevice
    from repro.hw.specs import GPU_BY_NAME

    def run_path(direct):
        env = Environment()
        system = Ros2System(env, Ros2Config(transport="rdma", client="dpu"))
        token = system.register_tenant("gpu-tenant")

        def go(env):
            yield from system.start()
            session = yield from system.open_session(token)
            fh = yield from session.create("/model.bin")
            port = session.data_port()
            ctx = port.new_context()
            yield from port.write(ctx, fh, 0, nbytes=32 * MIB)
            gpu = GpuDevice(env, GPU_BY_NAME["H100"])
            path_cls = GpuDirectPath if direct else StagedGpuPath
            path = path_cls(system.service, session.session_id, gpu)
            t0 = env.now
            for i in range(16):
                yield from path.read(ctx, fh, i * MIB, MIB)
            return env.now - t0

        p = env.process(go(env))
        env.run(until=p)
        return p.value

    assert run_path(True) < run_path(False)
