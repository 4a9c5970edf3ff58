"""Property tests: random fault plans terminate, conserve, and replay.

Hypothesis draws small fault plans (kind/target/time/duration within
the measured window) and runs them over a 4 KiB Fig. 5 cell.  Whatever
the schedule, the run must terminate with the event heap drained,
conserve operations (``submitted == completed + failed``), and replay
byte-identically when rerun with the same plan.  A tie-scrambled rerun
(different ``tie_seed``) must stay inside the sanitizer envelope: same
conservation, same verdict checks.

Examples are few (each one simulates two full cells) and derandomized
so CI cost is fixed and failures reproduce.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultEvent, FaultPlan

# (kind, target) pairs valid on the DPU-client testbed, by transport:
# a cell has a QP or a TCP connection, never both, and check_targets
# rejects a target the cell lacks.  engine_crash is excluded here — its
# target index must match the EC placement, which
# test_fault_recovery.py::test_engine_crash_rebuilds_and_heals covers.
_SHARED_TARGETS = [
    ("nvme_media_error", "nvme.ssd0"),
    ("nvme_latency_spike", "nvme.ssd0"),
    ("arm_stall", "dpu.daos_progress"),
]
_KIND_TARGETS = {
    "rdma": [("qp_break", "dpu.qp")] + _SHARED_TARGETS,
    "tcp": [("tcp_reset", "dpu.tcp")] + _SHARED_TARGETS,
}

_RUNTIME = 0.01


def events_strategy(transport):
    """One or two faults, each on a target a ``transport`` cell has."""
    return st.lists(
        st.builds(
            lambda kt, at_us, dur_us, factor: FaultEvent(
                kind=kt[0], target=kt[1], at=at_us * 1e-6,
                duration=dur_us * 1e-6, factor=float(factor),
            ),
            kt=st.sampled_from(_KIND_TARGETS[transport]),
            at_us=st.integers(min_value=0, max_value=8000),
            dur_us=st.integers(min_value=0, max_value=2000),
            factor=st.integers(min_value=2, max_value=8),
        ),
        min_size=1, max_size=2,
    )


#: A transport, then faults drawn from that transport's valid targets.
cell_strategy = st.sampled_from(["rdma", "tcp"]).flatmap(
    lambda t: st.tuples(st.just(t), events_strategy(t)))


def run_cell(plan, transport="rdma", tie_seed=None):
    from repro.bench.runner import run_fig5_chaos

    return run_fig5_chaos(transport, "dpu", "randread", 4096, 4, plan,
                          runtime=_RUNTIME, sample_every=10,
                          tie_seed=tie_seed)


def canonical(chaos) -> str:
    """Everything observable about a run, in one comparable string."""
    return json.dumps(
        {"recovery": chaos.stats.to_dict(),
         "result": chaos.run.result.to_dict()},
        sort_keys=True,
    )


@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cell=cell_strategy)
def test_random_plans_terminate_conserve_and_replay(cell):
    transport, events = cell
    plan = FaultPlan(events=tuple(events))
    first = run_cell(plan, transport)

    # Termination is implicit (run_fig5_chaos drained the heap); the
    # drain makes conservation exact, not eventual.
    stats = first.stats
    assert stats.submitted > 0
    assert stats.submitted == stats.completed + stats.failed

    # Same plan, fresh environment: byte-identical replay.
    second = run_cell(FaultPlan.from_config(plan.to_config()), transport)
    assert canonical(first) == canonical(second)


@settings(max_examples=2, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=events_strategy("rdma"))
def test_tie_scramble_stays_in_envelope(events):
    """Scrambled same-timestamp event order must not break recovery.

    The verdict (conservation, goodput, bounded tail) is the sanitizer
    envelope: tie order may move individual retries around, but never
    loses an op or turns recovery into a stall.
    """
    from repro.bench.chaos import chaos_sections

    plan = FaultPlan(events=tuple(events))
    for tie_seed in (1, 2):
        chaos = run_cell(plan, tie_seed=tie_seed)
        stats = chaos.stats
        assert stats.submitted == stats.completed + stats.failed
        sections = chaos_sections(chaos.run.result, stats, chaos.plan)
        assert sections["ok"], (tie_seed, sections["checks"])
