"""Unit tests for the fault-injection subsystem (plans, injector, retry)."""

import pytest

from repro.faults.errors import FaultInjectedError, NvmeMediaError
from repro.faults.plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultTargetError,
    parse_fault_spec,
)
from repro.faults.retry import (
    RetryPolicy,
    backoff_delay,
    is_retryable,
    remaining_budget,
)
from repro.sim import Environment


# ---------------------------------------------------------------------------
# Events and plans
# ---------------------------------------------------------------------------

def test_event_validation():
    FaultEvent(kind="qp_break", target="dpu.qp", at=0.0)
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(kind="meteor_strike", target="dpu.qp", at=0.0)
    with pytest.raises(ValueError, match="time must be"):
        FaultEvent(kind="qp_break", target="dpu.qp", at=-1.0)
    with pytest.raises(ValueError, match="duration must be"):
        FaultEvent(kind="qp_break", target="dpu.qp", at=0.0, duration=-1.0)
    with pytest.raises(ValueError, match="factor must be"):
        FaultEvent(kind="nvme_latency_spike", target="nvme.ssd0", at=0.0,
                   factor=0.0)


def test_event_dict_roundtrip():
    ev = FaultEvent(kind="nvme_latency_spike", target="nvme.ssd0", at=0.01,
                    duration=0.002, factor=8.0)
    assert FaultEvent.from_dict(ev.to_dict()) == ev


def test_plan_sorts_events_and_roundtrips():
    late = FaultEvent(kind="tcp_reset", target="dpu.tcp", at=0.02)
    early = FaultEvent(kind="qp_break", target="dpu.qp", at=0.01)
    plan = FaultPlan(events=(late, early))
    assert plan.events == (early, late)
    again = FaultPlan.from_config(plan.to_config())
    assert again == plan
    assert again.seed == plan.seed


def test_plan_seed_depends_on_key():
    assert FaultPlan(seed_key="a").seed != FaultPlan(seed_key="b").seed


def test_parse_fault_spec():
    ev = parse_fault_spec("qp_break:dpu.qp:0.01:0.005")
    assert ev == FaultEvent(kind="qp_break", target="dpu.qp", at=0.01,
                            duration=0.005)
    ev = parse_fault_spec("nvme_latency_spike:nvme.ssd0:0:0.01:8")
    assert ev.factor == 8.0
    with pytest.raises(ValueError, match="bad fault spec"):
        parse_fault_spec("qp_break:dpu.qp")
    with pytest.raises(ValueError, match="unknown fault kind"):
        parse_fault_spec("nope:dpu.qp:0.01")


def test_install_is_exclusive():
    env = Environment()
    plan = FaultPlan()
    fx = plan.install(env)
    assert env._faults is fx
    with pytest.raises(RuntimeError, match="already installed"):
        plan.install(env)


# ---------------------------------------------------------------------------
# Injector windows
# ---------------------------------------------------------------------------

def _armed(events, base=0.0):
    env = Environment()
    fx = FaultPlan(events=tuple(events)).install(env)
    fx.arm(base)
    return env, fx


def test_arm_is_exclusive():
    env, fx = _armed([])
    with pytest.raises(RuntimeError, match="already armed"):
        fx.arm(1.0)
    assert fx.armed_at == 0.0


def test_active_window_query():
    ev = FaultEvent(kind="nvme_media_error", target="nvme.ssd0", at=0.01,
                    duration=0.005)
    env, fx = _armed([ev], base=1.0)
    env.run(until=1.005)
    assert fx.active("nvme_media_error", "nvme.ssd0") is None
    env.run(until=1.012)
    assert fx.active("nvme_media_error", "nvme.ssd0") is ev
    assert fx.active("nvme_media_error", "nvme.ssd1") is None
    env.run(until=1.02)
    assert fx.active("nvme_media_error", "nvme.ssd0") is None


def test_fault_downtime_is_window_union():
    events = [
        FaultEvent(kind="nvme_media_error", target="nvme.ssd0", at=0.0,
                   duration=0.004),
        FaultEvent(kind="nvme_latency_spike", target="nvme.ssd0", at=0.002,
                   duration=0.004),  # overlaps the first by 2 ms
        FaultEvent(kind="qp_break", target="dpu.qp", at=0.010,
                   duration=0.001),
    ]
    env, fx = _armed(events)
    assert fx.stats.fault_downtime == pytest.approx(0.007)


def test_fault_resource_precedence():
    events = [
        FaultEvent(kind="nvme_media_error", target="nvme.ssd0", at=0.001,
                   duration=0.002),
        FaultEvent(kind="qp_break", target="dpu.qp", at=0.005,
                   duration=0.002),
    ]
    env, fx = _armed(events)
    assert fx.fault_resource() == "nvme.ssd0"  # nothing yet: first target
    env.run(until=0.002)
    assert fx.fault_resource() == "nvme.ssd0"  # inside the first window
    env.run(until=0.006)
    assert fx.fault_resource() == "dpu.qp"     # inside the second
    env.run(until=0.02)
    assert fx.fault_resource() == "dpu.qp"     # most recently started


def test_driver_counts_injected_events():
    events = [
        FaultEvent(kind="nvme_media_error", target="nvme.ssd0", at=0.001),
        FaultEvent(kind="nvme_media_error", target="nvme.ssd1", at=0.002),
        FaultEvent(kind="nvme_latency_spike", target="nvme.ssd0", at=0.003),
    ]
    env, fx = _armed(events)
    env.run(until=0.01)
    assert fx.stats.injected == {"nvme_media_error": 2,
                                 "nvme_latency_spike": 1}


# ---------------------------------------------------------------------------
# Target validation against the component registry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec, valid", [
    ("nvme_latency_spike:nvme0:0:0.004:8", "nvme.ssd0"),
    ("qp_break:client.qp:0.01:0.002", "dpu.qp, storage.qp"),
    ("engine_crash:engine.target99:0.01", "engine.target7"),
    ("arm_stall:dpu.nolock:0.01:0.001", "dpu.daos_progress"),
])
def test_unknown_target_is_rejected_before_prefill(spec, valid):
    from repro.bench.runner import _build_fig5, run_ros2_fio

    plan = FaultPlan(events=(parse_fault_spec(spec),))
    system, spec_ = _build_fig5("rdma", "dpu", "randread", 4096, 4,
                                runtime=0.004, fault_plan=plan)
    with pytest.raises(FaultTargetError, match=valid) as info:
        run_ros2_fio(system, spec_)
    assert str(info.value).startswith(
        f"unknown {plan.events[0].kind} target {plan.events[0].target!r}")
    # Raised once the sessions are open, before the prefill writes.
    assert system.service.data_plane.writes.bytes == 0
    assert system.env._faults.armed_at is None


def test_arm_stall_occupies_a_bf3_section_unscaled():
    from repro.hw import BLUEFIELD3, Node

    env = Environment()
    node = Node(env, "dpu", BLUEFIELD3)
    sec = node.lock("tcp_stack")
    # Found by its registry name, booked under the Arm-RX bucket.
    (comp,) = env.components.get("dpu.tcp_stack")
    assert comp.obj is sec and comp.kind == "section"
    assert comp.bucket == sec.name == "dpu.arm_rx"
    factor = BLUEFIELD3.lock_factor
    assert factor != 1.0
    stall = FaultEvent(kind="arm_stall", target="dpu.tcp_stack", at=0.001,
                       duration=0.002)
    FaultPlan(events=(stall,)).install(env).arm(0.0)
    env.run(until=0.0015)
    assert sec.busy_time == 0.002
    done = []

    def enter(env):
        done.append((yield sec.enter(1e-5)))

    env.process(enter(env))
    env.run()
    assert done == [(0.001 + 0.002) + 1e-5 * factor]
    assert sec.busy_time == 0.002 + 1e-5 * factor


def test_chaos_cli_exits_2_on_an_unknown_target(capsys):
    from repro.bench.cli import main

    assert main(["chaos", "--fault",
                 "nvme_latency_spike:nvme0:0:0.004:8"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: unknown nvme_latency_spike target 'nvme0'; "
                   "valid: nvme.ssd0\n")


# ---------------------------------------------------------------------------
# Retry policy and backoff
# ---------------------------------------------------------------------------

def test_policy_roundtrip():
    policy = RetryPolicy(max_attempts=5, base_delay=1e-4, max_delay=1e-3,
                         op_timeout=2e-3, deadline=0.05, jitter=0.25)
    assert RetryPolicy.from_dict(policy.to_dict()) == policy


def test_backoff_is_deterministic_and_capped():
    policy = RetryPolicy()
    a = [backoff_delay(policy, n, "k") for n in range(1, 13)]
    b = [backoff_delay(policy, n, "k") for n in range(1, 13)]
    assert a == b  # same key, same attempts -> identical delays
    assert a != [backoff_delay(policy, n, "other") for n in range(1, 13)]
    for n, delay in enumerate(a, start=1):
        base = min(policy.base_delay * 2 ** (n - 1), policy.max_delay)
        assert base * (1 - policy.jitter) <= delay <= base
    # The tail is capped: late attempts never exceed max_delay.
    assert max(a) <= policy.max_delay


def test_backoff_survives_a_window():
    # The attempt cap's total backoff must exceed the default QP-break
    # windows used in the committed scenarios, else retries give up
    # while the fault is still active.
    policy = RetryPolicy()
    total = sum(backoff_delay(policy, n, "k")
                for n in range(1, policy.max_attempts))
    assert total > 0.003


def test_remaining_budget():
    policy = RetryPolicy(deadline=0.1)
    assert remaining_budget(policy, 0.0, 0.04) == pytest.approx(0.06)
    assert remaining_budget(policy, 0.0, 0.2) <= 0.0
    assert remaining_budget(RetryPolicy(deadline=0.0), 0.0, 5.0) is None


# ---------------------------------------------------------------------------
# Retryability classification
# ---------------------------------------------------------------------------

def test_classification_timeouts_respect_idempotence():
    from repro.daos.rpc import RpcTimeout

    exc = RpcTimeout("no reply within 0.005s", op="obj_fetch")
    assert is_retryable(exc, idempotent=True)
    assert not is_retryable(exc, idempotent=False)


def test_classification_remote_errors():
    from repro.daos.rpc import RpcError

    assert is_retryable(RpcError("NvmeMediaError: injected"))
    assert is_retryable(RpcError("all replicas of o are down"))
    assert not is_retryable(RpcError("unknown opcode 'nope'"))
    assert not is_retryable(
        RpcError("EC2P1 degraded writes are not supported; rebuild first"))
    assert not is_retryable(RpcError("some novel failure"))


def test_classification_transport_errors():
    from repro.net.rdma import RdmaError

    assert is_retryable(RdmaError("QP 3 flushed: injected qp_break"))
    assert not is_retryable(RdmaError("remote access violation at 0x10"))
    assert is_retryable(ConnectionError("connection 1 reset"))
    assert is_retryable(FaultInjectedError("injected"))
    assert is_retryable(NvmeMediaError("ssd0: injected"))
    assert not is_retryable(ValueError("not a transport problem"))


def test_fault_kinds_are_stable():
    # The taxonomy is part of the plan config format; growing it is fine,
    # renaming/removing breaks committed campaign specs.
    assert FAULT_KINDS == ("qp_break", "tcp_reset", "nvme_media_error",
                           "nvme_latency_spike", "engine_crash", "arm_stall")
