"""Golden failure-trace test: the committed single-QP-break scenario.

One small chaos cell — RDMA/DPU 4 KiB randread with a mid-window
``qp_break`` on ``dpu.qp`` — reduced to its recovery counters, the
sampled requests' ``fault:{resource}`` blame components, and the
wait-blame flamegraph folds, compared byte-for-byte against a committed golden.  Any change
to retry/backoff timing, reconnect behaviour, CQ flush semantics, or
blame attribution moves integer-nanosecond fold values and fails here
with a reviewable diff.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python tests/test_chaos_golden.py
"""

import json
import os

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "chaos_goldens",
                      "qp_break_rdma_dpu.json")


def build_golden_doc() -> dict:
    """Run the pinned scenario and reduce it to the golden sections."""
    from repro.bench.runner import run_fig5_chaos
    from repro.faults.plan import FaultEvent, FaultPlan
    from repro.sim.flame import fold_waits

    plan = FaultPlan(events=(
        FaultEvent(kind="qp_break", target="dpu.qp", at=0.005,
                   duration=0.001),
    ))
    chaos = run_fig5_chaos("rdma", "dpu", "randread", 4096, 4, plan,
                           runtime=0.01, sample_every=10)
    run = chaos.run
    fault_blame = {
        name: parts
        for name, parts in sorted(run.tracer.blame_components().items())
        if name.startswith("fault:")
    }
    return {
        "scenario": plan.to_config(),
        "recovery": chaos.stats.to_dict(),
        "fault_blame": fault_blame,
        "flame_waits": dict(sorted(
            fold_waits(run.collector.spans, run.tracer.records).items())),
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_qp_break_failure_trace_matches_golden():
    with open(GOLDEN) as fh:
        committed = fh.read()
    assert _dump(build_golden_doc()) == committed


def test_golden_scenario_recovered():
    """The pinned scenario itself must show real recovery, not a no-op."""
    doc = build_golden_doc()
    rec = doc["recovery"]
    assert rec["injected"] == {"qp_break": 1}
    assert rec["retries"] > 0
    assert rec["reconnects"] > 0
    assert rec["submitted"] == rec["completed"] + rec["failed"]
    assert "fault:dpu.qp" in doc["fault_blame"]
    # The backoff sleeps land in the wait flame under the fault leaf.
    assert any("fault:dpu.qp" in stack for stack in doc["flame_waits"])


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.write(_dump(build_golden_doc()))
    print(f"wrote {GOLDEN}")
