"""Unit tests for the client-side read cache (dfuse-like layer)."""

import pytest

from repro.daos import DaosClient, DaosEngine, DfsNamespace
from repro.daos.dcache import ClientCache, CachedDfsFile
from repro.daos.types import ObjectId
from repro.hw import make_paper_testbed
from repro.hw.specs import KIB, MIB
from repro.net import Fabric
from repro.sim import Environment


def setup(data_mode=True, cache_bytes=1 * MIB):
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    engine = DaosEngine(top.server, data_mode=data_mode)
    pool = engine.create_pool()
    ch = fab.connect(top.client, top.server, "ucx+rc")
    engine.serve(ch)
    daos = DaosClient(top.client, ch, data_mode=data_mode)
    ctx = daos.new_context()

    def go(env):
        ph = yield from daos.connect_pool(ctx, pool)
        cont = yield from ph.create_container(ctx)
        ns = DfsNamespace(daos, cont)
        yield from ns.format(ctx)
        f = yield from ns.create(ctx, "/cached.bin", chunk_size=64 * KIB)
        return f

    p = env.process(go(env))
    env.run(until=p)
    cache = ClientCache(env, cache_bytes)
    return env, ctx, CachedDfsFile(p.value, cache), cache


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


# ---------------------------------------------------------------------------
# ClientCache mechanics
# ---------------------------------------------------------------------------

def test_cache_validation():
    env = Environment()
    with pytest.raises(ValueError):
        ClientCache(env, 0)


def test_cache_lru_eviction_by_bytes():
    env = Environment()
    c = ClientCache(env, capacity_bytes=300)
    oid = ObjectId.make(1)
    c.insert(oid, 0, 100, None)
    c.insert(oid, 1, 100, None)
    c.insert(oid, 2, 100, None)
    assert len(c) == 3
    c.insert(oid, 3, 100, None)  # evicts chunk 0 (LRU)
    assert c.lookup(oid, 0) is None
    assert c.lookup(oid, 3) is not None
    assert c.used_bytes <= 300


def test_cache_lookup_refreshes_lru_order():
    env = Environment()
    c = ClientCache(env, capacity_bytes=200)
    oid = ObjectId.make(1)
    c.insert(oid, 0, 100, None)
    c.insert(oid, 1, 100, None)
    assert c.lookup(oid, 0) is not None  # 0 becomes MRU
    c.insert(oid, 2, 100, None)  # evicts 1, not 0
    assert c.lookup(oid, 0) is not None
    assert c.lookup(oid, 1) is None


def test_cache_oversized_entry_ignored():
    env = Environment()
    c = ClientCache(env, capacity_bytes=100)
    c.insert(ObjectId.make(1), 0, 1000, None)
    assert len(c) == 0


def test_cache_ttl_expiry(monkeypatch):
    monkeypatch.setattr(ClientCache, "TTL", 1.0)
    env = Environment()
    c = ClientCache(env, capacity_bytes=1000)
    oid = ObjectId.make(1)
    c.insert(oid, 0, 100, b"x")

    def later(env):
        yield env.timeout(2.0)
        return c.lookup(oid, 0)

    p = env.process(later(env))
    env.run(until=p)
    assert p.value is None  # expired


def test_cache_hit_rate():
    env = Environment()
    c = ClientCache(env, capacity_bytes=1000)
    oid = ObjectId.make(1)
    assert c.hit_rate() == 0.0
    c.lookup(oid, 0)  # miss
    c.insert(oid, 0, 10, None)
    c.lookup(oid, 0)  # hit
    assert c.hit_rate() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# CachedDfsFile behaviour
# ---------------------------------------------------------------------------

def test_reread_served_from_cache_is_faster():
    env, ctx, cf, cache = setup()
    chunk = cf.chunk_size

    def go(env):
        yield from cf.write(ctx, 0, data=b"z" * chunk)
        t0 = env.now
        first = yield from cf.read(ctx, 0, chunk)
        cold = env.now - t0
        t0 = env.now
        second = yield from cf.read(ctx, 0, chunk)
        warm = env.now - t0
        return first, second, cold, warm

    first, second, cold, warm = run(env, go(env))
    assert first == second == b"z" * chunk
    assert warm < cold / 20  # cache hit skips the whole RPC + media path
    assert cache.hits == 1


def test_local_write_invalidates_overlapped_chunks():
    env, ctx, cf, cache = setup()
    chunk = cf.chunk_size

    def go(env):
        yield from cf.write(ctx, 0, data=b"a" * (2 * chunk))
        yield from cf.read(ctx, 0, chunk)          # populate chunk 0
        yield from cf.read(ctx, chunk, chunk)       # populate chunk 1
        # Overwrite a range spanning both chunks.
        yield from cf.write(ctx, chunk - 10, data=b"B" * 20)
        cached = len(cache)
        data = yield from cf.read(ctx, 0, chunk)    # must be re-fetched
        return cached, data

    cached, data = run(env, go(env))
    assert cached == 0
    assert data[-10:] == b"B" * 10


def test_unaligned_reads_bypass_cache():
    env, ctx, cf, cache = setup()
    chunk = cf.chunk_size

    def go(env):
        yield from cf.write(ctx, 0, data=b"q" * chunk)
        yield from cf.read(ctx, 10, 100)  # unaligned: no caching
        yield from cf.read(ctx, 10, 100)

    run(env, go(env))
    assert cache.hits == 0
    assert len(cache) == 0


def test_stale_read_after_ttl_refetches(monkeypatch):
    monkeypatch.setattr(ClientCache, "TTL", 0.001)
    env, ctx, cf, cache = setup()
    chunk = cf.chunk_size

    def go(env):
        yield from cf.write(ctx, 0, data=b"1" * chunk)
        yield from cf.read(ctx, 0, chunk)
        # Another writer updates the chunk directly (bypassing this cache).
        yield from cf.file.write(ctx, 0, data=b"2" * chunk)
        yield env.timeout(0.01)  # TTL passes
        return (yield from cf.read(ctx, 0, chunk))

    data = run(env, go(env))
    assert data == b"2" * chunk  # revalidated, not stale


def test_size_delegates():
    env, ctx, cf, cache = setup()

    def go(env):
        yield from cf.write(ctx, 0, data=b"s" * 100)
        return (yield from cf.size(ctx))

    assert run(env, go(env)) == 100
