"""Unit tests for the DAOS engine, VOS media binding, client and transactions."""

import pytest

from repro.daos import DaosClient, DaosEngine
from repro.daos.engine import INLINE_THRESHOLD, TARGETS_PER_SSD
from repro.daos.rpc import RpcError
from repro.daos.types import ObjectClass, ObjectId
from repro.hw import make_paper_testbed
from repro.hw.specs import KIB, MIB
from repro.net import Fabric
from repro.sim import Environment


def setup(provider="ucx+rc", client="host", n_ssds=1, data_mode=True):
    env = Environment()
    top = make_paper_testbed(env, client=client, n_ssds=n_ssds)
    fab = Fabric(env)
    engine = DaosEngine(top.server, data_mode=data_mode)
    pool = engine.create_pool()
    ch = fab.connect(top.client, top.server, provider)
    engine.serve(ch)
    daos = DaosClient(top.client, ch, data_mode=data_mode)
    return env, top, engine, pool, daos


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


def open_cont(env, daos, pool):
    ctx = daos.new_context()

    def go(env):
        ph = yield from daos.connect_pool(ctx, pool)
        cont = yield from ph.create_container(ctx)
        return ctx, cont

    return run(env, go(env))


# ---------------------------------------------------------------------------
# Engine topology and placement
# ---------------------------------------------------------------------------

def test_engine_targets_scale_with_ssds():
    env = Environment()
    top = make_paper_testbed(env, n_ssds=4)
    engine = DaosEngine(top.server)
    assert engine.n_targets == 4 * TARGETS_PER_SSD


def test_sx_objects_stripe_dkeys_s1_objects_pin():
    env = Environment()
    top = make_paper_testbed(env, n_ssds=4)
    engine = DaosEngine(top.server)
    sx = ObjectId.make(7, ObjectClass.SX)
    s1 = ObjectId.make(7, ObjectClass.S1)
    sx_targets = {engine.target_for(sx, bytes([i])).index for i in range(64)}
    s1_targets = {engine.target_for(s1, bytes([i])).index for i in range(64)}
    assert len(sx_targets) > 8  # spreads widely
    assert len(s1_targets) == 1  # pinned


def test_placement_deterministic():
    env = Environment()
    top = make_paper_testbed(env)
    e1 = DaosEngine(top.server)
    env2 = Environment()
    top2 = make_paper_testbed(env2)
    e2 = DaosEngine(top2.server)
    oid = ObjectId.make(123, ObjectClass.SX)
    for i in range(16):
        assert e1.target_for(oid, bytes([i])).index == e2.target_for(oid, bytes([i])).index


def test_unknown_pool_and_container_errors():
    env, top, engine, pool, daos = setup()
    ctx = daos.new_context()
    from repro.daos.types import PoolId, ContainerId

    def bad_pool(env):
        yield from daos.connect_pool(ctx, PoolId(0xDEAD))

    with pytest.raises(RpcError, match="NoSuchPool"):
        run(env, bad_pool(env))


# ---------------------------------------------------------------------------
# Object I/O through the full stack
# ---------------------------------------------------------------------------

def test_update_fetch_inline_roundtrip():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.S1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"dk", b"ak", 0, data=b"inline payload")
        return (yield from obj.fetch(ctx, b"dk", b"ak", 0, 14))

    assert run(env, go(env)) == b"inline payload"


def test_update_fetch_bulk_roundtrip():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)
    payload = bytes(range(256)) * (64 * KIB // 256)  # 64 KiB > inline

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.SX, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"dk", b"ak", 0, data=payload)
        return (yield from obj.fetch(ctx, b"dk", b"ak", 0, len(payload)))

    assert run(env, go(env)) == payload


def test_malformed_ranges_fail_at_the_client():
    """A bad range is the caller's error, raised before any cost is paid
    or any RPC is sent; the simulation carries on."""
    from repro.daos.types import DaosError

    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)
    obj = run(env, cont.alloc_oid(ctx, ObjectClass.S1, 1))
    obj = cont.obj(obj[0])
    dispatched = []

    def counting(op, handler):
        def call(args, src, channel):
            dispatched.append(op)
            return (yield from handler(args, src, channel))
        return call

    handlers = engine.rpc._handlers
    for op, handler in list(handlers.items()):
        handlers[op] = counting(op, handler)

    def bad(op):
        def go(env):
            t0 = env.now
            try:
                yield from op
            except DaosError as exc:
                return str(exc), env.now - t0
        return run(env, go(env))

    for op, text in (
        (obj.fetch(ctx, b"dk", b"ak", 0, 0), "bad read range"),
        (obj.fetch(ctx, b"dk", b"ak", -4096, 4096), "bad read range"),
        (obj.update(ctx, b"dk", b"ak", 0, nbytes=0), "bad extent"),
        (obj.update(ctx, b"dk", b"ak", -1, data=b"x"), "bad extent"),
    ):
        message, waited = bad(op)
        assert text in message and waited == 0.0
    assert dispatched == []

    def good(env):
        yield from obj.update(ctx, b"dk", b"ak", 0, data=b"fine")
        return (yield from obj.fetch(ctx, b"dk", b"ak", 0, 4))

    assert run(env, good(env)) == b"fine"
    assert dispatched == ["obj_update", "obj_fetch"]


def test_malformed_range_rpc_gets_an_error_reply():
    """A raw RPC with a bad range gets an error reply instead of killing
    the engine's handler (and with it the whole run)."""
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)
    oid = run(env, cont.alloc_oid(ctx, ObjectClass.S1, 1))[0]
    base = {"pool": cont.pool, "cont": cont.cont, "oid": oid,
            "dkey": b"dk", "akey": b"ak"}

    def call(opcode, **args):
        def go(env):
            try:
                yield from daos.rpc.call(opcode, {**base, **args})
            except RpcError as exc:
                return exc.remote_error
        return run(env, go(env))

    assert "bad read range" in call("obj_fetch", offset=0, nbytes=0)
    assert "bad read range" in call("obj_fetch", offset=-4096, nbytes=4096)
    assert "bad extent" in call("obj_update", offset=0, nbytes=0, data=b"")
    obj = cont.obj(oid)

    def good(env):
        yield from obj.update(ctx, b"dk", b"ak", 0, data=b"still serving")
        return (yield from obj.fetch(ctx, b"dk", b"ak", 0, 13))

    assert run(env, good(env)) == b"still serving"


def test_small_records_land_on_scm_large_on_nvme():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.S1, 2)
        small, large = cont.obj(oids[0]), cont.obj(oids[1])
        yield from small.update(ctx, b"d", b"a", 0, nbytes=512, data=bytes(512))
        yield from large.update(ctx, b"d", b"a", 0, nbytes=64 * KIB,
                                data=bytes(64 * KIB))

    run(env, go(env))
    scm_writes = sum(t.vos.scm.writes.ops for t in engine.targets)
    nvme_used = sum(t.vos.nvme_used_bytes for t in engine.targets)
    assert scm_writes >= 1
    assert nvme_used == 64 * KIB


def test_snapshot_read_at_old_epoch():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.S1, 1)
        obj = cont.obj(oids[0])
        e1 = yield from obj.update(ctx, b"d", b"a", 0, data=b"v1")
        yield from obj.update(ctx, b"d", b"a", 0, data=b"v2")
        old = yield from obj.fetch(ctx, b"d", b"a", 0, 2, epoch=e1)
        new = yield from obj.fetch(ctx, b"d", b"a", 0, 2)
        return old, new

    assert run(env, go(env)) == (b"v1", b"v2")


def test_punch_and_list_dkeys():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.SX, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"k1", b"a", 0, data=b"x")
        yield from obj.update(ctx, b"k2", b"a", 0, data=b"y")
        before = yield from obj.list_dkeys(ctx)
        yield from obj.punch_dkey(ctx, b"k1")
        after = yield from obj.list_dkeys(ctx)
        return before, after

    before, after = run(env, go(env))
    assert before == [b"k1", b"k2"]
    assert after == [b"k2"]


def test_kv_put_get_roundtrip():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.S1, 1)
        obj = cont.obj(oids[0])
        yield from obj.kv_put(ctx, b"meta", b"owner", {"uid": 1000})
        return (yield from obj.kv_get(ctx, b"meta", b"owner"))

    assert run(env, go(env)) == {"uid": 1000}


def test_kv_get_missing_raises_rpc_error():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.S1, 1)
        obj = cont.obj(oids[0])
        yield from obj.kv_get(ctx, b"missing", b"akey")

    with pytest.raises(RpcError):
        run(env, go(env))


def test_dkey_sizes_query():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.SX, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"c0", b"data", 0, nbytes=100, data=bytes(100))
        yield from obj.update(ctx, b"c1", b"data", 50, nbytes=25, data=bytes(25))
        return (yield from obj.dkey_sizes(ctx, b"data"))

    sizes = run(env, go(env))
    assert sizes == {b"c0": 100, b"c1": 75}


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

def test_transaction_commits_atomically_at_one_epoch():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.S1, 2)
        tx = cont.tx()
        tx.update(oids[0], b"d", b"a", 0, data=b"one")
        tx.kv_put(oids[1], b"meta", b"name", "two")
        epoch = yield from tx.commit(ctx)
        a = yield from cont.obj(oids[0]).fetch(ctx, b"d", b"a", 0, 3)
        b = yield from cont.obj(oids[1]).kv_get(ctx, b"meta", b"name")
        return epoch, a, b

    epoch, a, b = run(env, go(env))
    assert a == b"one" and b == "two"
    assert epoch > 0


def test_transaction_reuse_rejected():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.S1, 1)
        tx = cont.tx()
        tx.update(oids[0], b"d", b"a", 0, data=b"x")
        yield from tx.commit(ctx)
        return tx, oids

    tx, oids = run(env, go(env))
    from repro.daos.types import DaosError

    with pytest.raises(DaosError, match="already committed"):
        tx.update(oids[0], b"d", b"a", 0, data=b"y")


def test_transaction_abort():
    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)
    tx = cont.tx()
    oid = ObjectId.make(999, ObjectClass.S1)
    tx.kv_put(oid, b"d", b"a", 1)
    tx.abort()
    assert tx.ops == []
    from repro.daos.types import DaosError

    with pytest.raises(DaosError, match="aborted"):
        tx.kv_put(oid, b"d", b"a", 2)


# ---------------------------------------------------------------------------
# Engine internals
# ---------------------------------------------------------------------------

def test_engine_requires_positive_targets():
    env = Environment()
    top = make_paper_testbed(env)
    with pytest.raises(ValueError):
        DaosEngine(top.server, n_targets=0)


def test_media_efficiency_tcp_vs_rdma():
    from repro.daos.engine import MEDIA_OVERLAP

    assert MEDIA_OVERLAP["tcp"] < MEDIA_OVERLAP["rdma"] == 1.0


def test_checksums_verified_on_fetch():
    """Corrupting a stored extent must trip the end-to-end checksum."""
    from repro.daos.checksum import ChecksumError

    env, top, engine, pool, daos = setup()
    ctx, cont = open_cont(env, daos, pool)

    def write(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.S1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=b"pristine")
        return obj

    obj = run(env, write(env))
    # Corrupt the stored extent behind the engine's back.
    target = engine.target_for(obj.oid, b"d")
    vobj = target.vos.object_if_exists(cont.cont, obj.oid)
    vobj.array(b"d", b"a").payloads[0] = b"corrupt!"

    def read(env):
        yield from obj.fetch(ctx, b"d", b"a", 0, 8)

    with pytest.raises(ChecksumError):
        run(env, read(env))
