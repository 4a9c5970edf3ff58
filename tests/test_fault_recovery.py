"""Recovery-path tests: error propagation, degraded reads, end-to-end chaos.

Covers the failure semantics DESIGN.md §14 promises: RPC errors carry
op/target/sim-time context, degraded reads are counted at the engine,
an injected engine crash rebuilds and heals, and small end-to-end chaos
cells (tcp_reset, NVMe media error) recover with conservation intact.
"""

import pytest

from repro.daos import DaosClient, DaosEngine
from repro.daos.rpc import RpcClient, RpcError, RpcServer, RpcTimeout
from repro.daos.types import DaosError, ObjectClass
from repro.faults.plan import FaultEvent, FaultPlan
from repro.hw import make_paper_testbed
from repro.net import Fabric
from repro.sim import Environment


# ---------------------------------------------------------------------------
# RPC error context (regression: bare RpcError lost op/target/time)
# ---------------------------------------------------------------------------

def rpc_setup(provider="ucx+rc"):
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    ch = fab.connect(top.client, top.server, provider)
    server = RpcServer(top.server)
    client = RpcClient(top.client, ch).start()
    return env, top, ch, server, client


def test_rpc_error_carries_context():
    env, top, ch, server, client = rpc_setup()

    def failing(args, src, channel):
        yield env.timeout(0)
        raise DaosError("backend exploded")

    server.register("boom", failing)
    server.serve(ch)

    def main(env):
        yield from client.call("boom", {})

    p = env.process(main(env))
    with pytest.raises(RpcError) as ei:
        env.run(until=p)
    exc = ei.value
    assert exc.remote_error == "DaosError: backend exploded"
    assert exc.op == "boom"
    assert exc.target == top.server.name
    # The rendered message locates the failure without attribute access.
    assert "op=boom" in str(exc)
    assert f"target={top.server.name}" in str(exc)
    assert f"t={env.now:.6f}" in str(exc)


def test_rpc_timeout_carries_context_and_drops_late_reply():
    env, top, ch, server, client = rpc_setup()

    def slow(args, src, channel):
        yield env.timeout(0.02)
        return {"late": True}

    server.register("slow", slow)
    server.serve(ch)

    def main(env):
        yield from client.call("slow", {}, deadline=0.001)

    p = env.process(main(env))
    with pytest.raises(RpcTimeout) as ei:
        env.run(until=p)
    assert ei.value.op == "slow"
    assert f"t={env.now:.6f}" in str(ei.value)
    assert "no reply within" in str(ei.value)
    # Drain the heap: the late reply must be dropped by the demux, not
    # crash it or leak into a later call's pending slot.
    env.run()
    assert not client._pending


# ---------------------------------------------------------------------------
# Degraded reads at the engine (replication + erasure coding)
# ---------------------------------------------------------------------------

def engine_setup(fault_plan=None):
    env = Environment()
    if fault_plan is not None:
        fault_plan.install(env)
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
    from repro.daos.erasure import STRIPE_BYTES
    return bytes((i * 31 + 5) % 256 for i in range(n_stripes * STRIPE_BYTES))


def test_rp2_failover_read_is_counted_degraded():
    env, engine, daos, ctx, cont = engine_setup()
    payload = b"r" * 4096

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.RP2, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)
        primary = engine.replicas_for(obj.oid, b"d")[0]
        engine.fail_target(primary.index)
        got = yield from obj.fetch(ctx, b"d", b"a", 0, len(payload))
        primary.down = False
        healthy = yield from obj.fetch(ctx, b"d", b"a", 0, len(payload))
        return got, healthy

    assert engine.degraded_reads == 0
    got, healthy = run(env, go(env))
    assert got == payload and healthy == payload
    # Only the failover read counts; the healthy one takes the fast path.
    assert engine.degraded_reads == 1


@pytest.mark.parametrize("victim,degraded", [(0, 1), (1, 1), (2, 0)])
def test_ec_loss_patterns_count_degraded_reads(victim, degraded):
    # Losing either data cell forces an XOR reconstruction (degraded);
    # losing only the parity leaves the data path healthy.
    env, engine, daos, ctx, cont = engine_setup()
    payload = make_payload()

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)
        engine.fail_target(engine.ec_targets(obj.oid, b"d")[victim].index)
        return (yield from obj.fetch(ctx, b"d", b"a", 0, len(payload)))

    assert run(env, go(env)) == payload
    assert engine.degraded_reads == degraded


def test_ec_double_fault_is_fatal_not_retried():
    from repro.faults.retry import is_retryable

    env, engine, daos, ctx, cont = engine_setup()
    payload = make_payload(1)

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)
        targets = engine.ec_targets(obj.oid, b"d")
        engine.fail_target(targets[0].index)
        engine.fail_target(targets[1].index)
        yield from obj.fetch(ctx, b"d", b"a", 0, len(payload))

    p = env.process(go(env))
    with pytest.raises(RpcError, match="too many targets") as ei:
        env.run(until=p)
    # The retry classifier must not spin on an unrecoverable loss.
    assert not is_retryable(ei.value)
    assert engine.degraded_reads == 0


# ---------------------------------------------------------------------------
# Injected engine crash: fail -> degraded reads -> rebuild -> healed
# ---------------------------------------------------------------------------

def test_engine_crash_rebuilds_and_heals():
    # Discovery pass (deterministic): learn which target holds EC cell 0.
    env, engine, daos, ctx, cont = engine_setup()

    def discover(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        return engine.ec_targets(cont.obj(oids[0]).oid, b"d")[0].index

    victim = run(env, discover(env))

    # Real pass: the injector crashes that target 1 ms after arming and
    # restarts+rebuilds it 2 ms later.
    plan = FaultPlan(events=(
        FaultEvent(kind="engine_crash", target=f"engine.target{victim}",
                   at=0.001, duration=0.002),
    ))
    env, engine, daos, ctx, cont = engine_setup(fault_plan=plan)
    fx = env._faults
    payload = make_payload()

    def go(env):
        oids = yield from cont.alloc_oid(ctx, ObjectClass.EC2P1, 1)
        obj = cont.obj(oids[0])
        yield from obj.update(ctx, b"d", b"a", 0, data=payload)
        fx.arm(env.now)
        yield env.timeout(0.002)  # inside the outage window
        during = yield from obj.fetch(ctx, b"d", b"a", 0, len(payload))
        degraded_then = engine.degraded_reads
        yield env.timeout(0.02)   # well past restart + rebuild
        after = yield from obj.fetch(ctx, b"d", b"a", 0, len(payload))
        return during, after, degraded_then

    during, after, degraded_then = run(env, go(env))
    env.run()  # drain: let the rebuild process finish if still running
    assert during == payload and after == payload
    assert fx.stats.injected == {"engine_crash": 1}
    assert degraded_then >= 1
    # Healed: the target is back and post-rebuild reads are not degraded.
    assert not engine.targets[victim].down
    assert engine.degraded_reads == degraded_then


# ---------------------------------------------------------------------------
# End-to-end chaos cells (small): tcp_reset and NVMe media errors
# ---------------------------------------------------------------------------

def run_small_chaos(transport, events, seed_key="chaos"):
    from repro.bench.runner import run_fig5_chaos

    plan = FaultPlan(events=tuple(events), seed_key=seed_key)
    return run_fig5_chaos(transport, "dpu", "randread", 4096, 4, plan,
                          runtime=0.01, sample_every=10)


def test_tcp_reset_recovers_with_conservation():
    from repro.bench.chaos import chaos_sections

    chaos = run_small_chaos("tcp", [
        FaultEvent(kind="tcp_reset", target="dpu.tcp", at=0.005,
                   duration=0.001),
    ])
    stats = chaos.stats
    assert stats.injected == {"tcp_reset": 1}
    # The reset window drops replies; deadlines + retries ride it out.
    assert stats.replies_dropped > 0
    assert stats.timeouts > 0
    assert stats.retries > 0
    assert stats.submitted == stats.completed + stats.failed
    sections = chaos_sections(chaos.run.result, stats, chaos.plan)
    assert sections["ok"], sections["checks"]
    assert any(name.startswith("fault:dpu.tcp")
               for name in chaos.run.tracer.blame())


def test_nvme_media_errors_are_retried_to_success():
    chaos = run_small_chaos("rdma", [
        FaultEvent(kind="nvme_media_error", target="nvme.ssd0", at=0.004,
                   duration=0.002),
    ])
    stats = chaos.stats
    assert stats.injected == {"nvme_media_error": 1}
    assert stats.retries > 0
    assert stats.submitted == stats.completed + stats.failed
    # Media errors are transient here (the window closes): every op
    # eventually succeeds, so the window shows full goodput.
    assert chaos.run.result.errors == 0
    assert stats.failed == 0
