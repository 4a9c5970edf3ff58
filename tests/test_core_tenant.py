"""Unit tests for multi-tenant isolation: token buckets, auth, scoped rkeys."""

import pytest

from repro.core.tenant import AuthError, TenantManager, TokenBucket
from repro.hw import make_paper_testbed
from repro.net import Fabric
from repro.sim import Environment


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------

def test_bucket_starts_full():
    env = Environment()
    b = TokenBucket(env, rate=100, burst=50)
    assert b.level == 50
    assert list(b.acquire(50)) == []  # granted without waiting
    assert b.level == 0


def test_bucket_refills_over_time():
    env = Environment()
    b = TokenBucket(env, rate=10, burst=10)
    assert list(b.acquire(10)) == []

    def waiter(env):
        yield env.timeout(0.5)
        assert b.level == pytest.approx(5.0)

    env.process(waiter(env))
    env.run()


def test_bucket_acquire_waits_for_refill():
    env = Environment()
    b = TokenBucket(env, rate=10, burst=10)
    times = []

    def proc(env):
        yield from b.acquire(10)  # drains the initial burst
        yield from b.acquire(5)  # must wait 0.5s
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [pytest.approx(0.5)]


def test_bucket_never_exceeds_configured_rate():
    """Property: long-run admitted throughput <= rate (+ burst)."""
    env = Environment()
    rate, burst = 1000.0, 100.0
    b = TokenBucket(env, rate=rate, burst=burst)
    admitted = [0]

    def greedy(env):
        while True:
            yield from b.acquire(10)
            admitted[0] += 10

    for _ in range(4):
        env.process(greedy(env))
    horizon = 2.0
    env.run(until=horizon)
    assert admitted[0] <= rate * horizon + burst + 10


def test_bucket_validation():
    env = Environment()
    with pytest.raises(ValueError):
        TokenBucket(env, rate=0)
    with pytest.raises(ValueError):
        TokenBucket(env, rate=10, burst=0)
    b = TokenBucket(env, rate=10, burst=10)
    with pytest.raises(ValueError):
        list(b.acquire(0))
    with pytest.raises(ValueError):
        list(b.acquire(11))  # above burst: would never complete


# ---------------------------------------------------------------------------
# TenantManager
# ---------------------------------------------------------------------------

def test_register_and_authenticate():
    env = Environment()
    mgr = TenantManager(env)
    t = mgr.register("acme")
    assert mgr.authenticate(t.token) is t
    assert mgr.tenants() == ["acme"]


def test_unknown_token_rejected():
    env = Environment()
    mgr = TenantManager(env)
    with pytest.raises(AuthError):
        mgr.authenticate("bogus")


def test_duplicate_tenant_rejected():
    env = Environment()
    mgr = TenantManager(env)
    mgr.register("a")
    with pytest.raises(ValueError):
        mgr.register("a")


def test_revoked_tenant_rejected():
    env = Environment()
    mgr = TenantManager(env)
    t = mgr.register("ephemeral")
    mgr.revoke("ephemeral")
    with pytest.raises(AuthError):
        mgr.authenticate(t.token)


def test_revoke_unknown_raises():
    env = Environment()
    mgr = TenantManager(env)
    with pytest.raises(KeyError):
        mgr.revoke("ghost")


def test_tokens_are_unique_and_opaque():
    env = Environment()
    mgr = TenantManager(env)
    t1 = mgr.register("x")
    t2 = mgr.register("y")
    assert t1.token != t2.token
    assert "x" not in t1.token  # no tenant name leakage


def test_admit_shapes_to_rate():
    env = Environment()
    mgr = TenantManager(env)
    t = mgr.register("slow", bytes_per_sec=1e6, burst_bytes=1e5)
    done = []

    def proc(env):
        for _ in range(5):
            yield from mgr.admit(t, 100_000)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    # 500 KB through a 1 MB/s shaper with 100 KB burst: ~0.4 s.
    assert done[0] == pytest.approx(0.4, rel=0.05)
    assert t.stats["bytes"] == 500_000


def test_admit_revoked_tenant_raises():
    env = Environment()
    mgr = TenantManager(env)
    t = mgr.register("gone")
    mgr.revoke("gone")

    def proc(env):
        yield from mgr.admit(t, 100)

    env.process(proc(env))
    with pytest.raises(AuthError):
        env.run()


def test_scoped_window_expires():
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    ch = fab.connect(top.client, top.server, "ucx+rc")
    mgr = TenantManager(env)
    t = mgr.register("short-lived", rkey_ttl=0.25)
    region = mgr.scoped_window(t, ch, "host", 4096)

    def late(env):
        yield env.timeout(1.0)
        yield from ch.rma_read("storage", region, 64)

    env.process(late(env))
    with pytest.raises(Exception, match="expired"):
        env.run()


def test_scoped_window_without_ttl_never_expires():
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    ch = fab.connect(top.client, top.server, "ucx+rc")
    mgr = TenantManager(env)
    t = mgr.register("long-lived")
    region = mgr.scoped_window(t, ch, "host", 4096)

    def late(env):
        yield env.timeout(100.0)
        yield from ch.rma_read("storage", region, 64)

    p = env.process(late(env))
    env.run(until=p)  # no raise


def test_two_tenants_cannot_cross_pd():
    """Tenant B's QP (own channel/PD) cannot use tenant A's rkey."""
    from repro.net.rdma import AccessViolation

    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    ch_a = fab.connect(top.client, top.server, "ucx+rc")
    ch_b = fab.connect(top.client, top.server, "ucx+rc")
    region_a = ch_a.register("storage", 4096)

    def attacker(env):
        yield from ch_b.rma_read("host", region_a, 64)

    env.process(attacker(env))
    with pytest.raises(AccessViolation):
        env.run()
