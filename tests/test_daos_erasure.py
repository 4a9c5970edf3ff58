"""Unit + property tests for EC 2+1 erasure coding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.daos import DaosClient, DaosEngine
from repro.daos.erasure import (
    CELL_BYTES,
    STRIPE_BYTES,
    check_aligned,
    encode,
    interleave,
    reconstruct_cell,
    xor_bytes,
)
from repro.daos.rpc import RpcError
from repro.daos.types import ObjectClass, ObjectId
from repro.hw import make_paper_testbed
from repro.net import Fabric
from repro.sim import Environment


# ---------------------------------------------------------------------------
# Pure coding helpers
# ---------------------------------------------------------------------------

def test_alignment_checks():
    check_aligned(0, STRIPE_BYTES)
    check_aligned(3 * STRIPE_BYTES, 2 * STRIPE_BYTES)
    with pytest.raises(ValueError):
        check_aligned(1, STRIPE_BYTES)
    with pytest.raises(ValueError):
        check_aligned(0, STRIPE_BYTES - 1)
    with pytest.raises(ValueError):
        check_aligned(0, 0)


def test_xor_bytes_basics():
    assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
    assert xor_bytes(None, b"x") is None
    with pytest.raises(ValueError):
        xor_bytes(b"ab", b"abc")


def test_encode_interleave_roundtrip():
    data = bytes((i * 13 + 7) % 256 for i in range(2 * STRIPE_BYTES))
    d0, d1, parity = encode(data, len(data))
    assert len(d0) == len(d1) == len(parity) == len(data) // 2
    assert interleave(d0, d1) == data


def test_encode_virtual_mode():
    assert encode(None, STRIPE_BYTES) == (None, None, None)
    assert interleave(None, b"x" * CELL_BYTES) is None


def test_parity_reconstructs_either_cell():
    data = bytes(range(256)) * (STRIPE_BYTES // 256)
    d0, d1, parity = encode(data, STRIPE_BYTES)
    assert reconstruct_cell(d1, parity) == d0
    assert reconstruct_cell(d0, parity) == d1


@settings(max_examples=30, deadline=None)
@given(n_stripes=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**31))
def test_encode_property_roundtrip(n_stripes, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=n_stripes * STRIPE_BYTES,
                        dtype=np.uint8).tobytes()
    d0, d1, parity = encode(data, len(data))
    assert interleave(d0, d1) == data
    assert interleave(reconstruct_cell(d1, parity), d1) == data
    assert interleave(d0, reconstruct_cell(d0, parity)) == data


# ---------------------------------------------------------------------------
# Engine-level EC path
# ---------------------------------------------------------------------------

def setup():
    env = Environment()
    top = make_paper_testbed(env, n_ssds=1)
    fab = Fabric(env)
    engine = DaosEngine(top.server, data_mode=True)
    pool = engine.create_pool()
    ch = fab.connect(top.client, top.server, "ucx+rc")
    engine.serve(ch)
    daos = DaosClient(top.client, ch, data_mode=True)
    ctx = daos.new_context()

    def go(env):
        ph = yield from daos.connect_pool(ctx, pool)
        return (yield from ph.create_container(ctx))

    p = env.process(go(env))
    env.run(until=p)
    return env, engine, daos, ctx, p.value


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


def make_payload(n_stripes=2):
    return bytes((i * 31 + 5) % 256 for i in range(n_stripes * STRIPE_BYTES))


def test_ec_targets_distinct():
    env, engine, daos, ctx, cont = setup()
    oid = ObjectId.make(9, ObjectClass.EC2P1)
    targets = engine.ec_targets(oid, b"d")
    assert len({t.index for t in targets}) == 3


def test_ec_update_fetch_roundtrip():
    env, engine, daos, ctx, cont = setup()
    payload = make_payload()

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)
        return obj, (yield from obj.fetch(ctx, b"d", b"a", 0, len(payload)))

    obj, got = run(env, go(env))
    assert got == payload
    # Cells really live on three targets.
    holders = [t.index for t in engine.targets
               if t.vos.object_if_exists(cont.cont, obj.oid)]
    assert len(holders) == 3


def test_ec_unaligned_io_rejected():
    env, engine, daos, ctx, cont = setup()

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        yield from cont.obj(oids[0]).update(ctx, b"d", b"a", 0,
                                            data=b"x" * 100)

    p = env.process(go(env))
    with pytest.raises(RpcError, match="stripe-aligned"):
        env.run(until=p)


def test_ec_survives_one_data_target_loss():
    env, engine, daos, ctx, cont = setup()
    payload = make_payload()

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)
        for victim in (0, 1):  # either data target
            t = engine.ec_targets(obj.oid, b"d")[victim]
            engine.fail_target(t.index)
            got = yield from obj.fetch(ctx, b"d", b"a", 0, len(payload))
            assert got == payload, f"reconstruction failed for cell {victim}"
            t.down = False
        return True

    assert run(env, go(env))


def test_ec_survives_parity_loss():
    env, engine, daos, ctx, cont = setup()
    payload = make_payload(1)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)
        engine.fail_target(engine.ec_targets(obj.oid, b"d")[2].index)
        return (yield from obj.fetch(ctx, b"d", b"a", 0, len(payload)))

    assert run(env, go(env)) == payload


def test_ec_two_losses_unrecoverable():
    env, engine, daos, ctx, cont = setup()
    payload = make_payload(1)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)
        targets = engine.ec_targets(obj.oid, b"d")
        engine.fail_target(targets[0].index)
        engine.fail_target(targets[2].index)
        yield from obj.fetch(ctx, b"d", b"a", 0, len(payload))

    p = env.process(go(env))
    with pytest.raises(RpcError, match="too many targets"):
        env.run(until=p)


def test_ec_degraded_write_rejected():
    env, engine, daos, ctx, cont = setup()

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        engine.fail_target(engine.ec_targets(obj.oid, b"d")[1].index)
        yield from obj.update(ctx, b"d", b"a", 0, data=make_payload(1))

    p = env.process(go(env))
    with pytest.raises(RpcError, match="degraded"):
        env.run(until=p)


def test_ec_storage_overhead_is_1_5x():
    env, engine, daos, ctx, cont = setup()
    payload = make_payload(4)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)

    run(env, go(env))
    stored = sum(t.vos.nvme_used_bytes for t in engine.targets)
    assert stored == pytest.approx(1.5 * len(payload))


def test_ec_rebuild_reconstructs_lost_cells():
    env, engine, daos, ctx, cont = setup()
    payload = make_payload(2)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)
        targets = engine.ec_targets(obj.oid, b"d")
        # Lose data cell 0, rebuild it from sibling + parity.
        engine.fail_target(targets[0].index)
        rebuilt = yield from engine.rebuild_target(targets[0].index)
        assert rebuilt >= 1
        # Now lose data cell 1: reads must reconstruct via the REBUILT
        # cell 0 and the parity.
        engine.fail_target(targets[1].index)
        return (yield from obj.fetch(ctx, b"d", b"a", 0, len(payload)))

    assert run(env, go(env)) == payload


def test_ec_rebuild_of_parity_target():
    env, engine, daos, ctx, cont = setup()
    payload = make_payload(1)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)
        targets = engine.ec_targets(obj.oid, b"d")
        engine.fail_target(targets[2].index)  # parity
        rebuilt = yield from engine.rebuild_target(targets[2].index)
        assert rebuilt >= 1
        # With parity restored, losing a data cell is survivable again.
        engine.fail_target(targets[0].index)
        return (yield from obj.fetch(ctx, b"d", b"a", 0, len(payload)))

    assert run(env, go(env)) == payload


def test_ec_dfs_file_and_size():
    from repro.daos import DfsNamespace

    env, engine, daos, ctx, cont = setup()
    payload = make_payload(2)

    def go(env):
        ns = DfsNamespace(daos, cont)
        yield from ns.format(ctx)
        f = yield from ns.create(ctx, "/ec.bin", chunk_size=len(payload),
                                 oclass=ObjectClass.EC2P1)
        yield from f.write(ctx, 0, data=payload)
        size = yield from f.size(ctx)
        data = yield from f.read(ctx, 0, len(payload))
        return size, data

    size, data = run(env, go(env))
    assert size == len(payload)
    assert data == payload
