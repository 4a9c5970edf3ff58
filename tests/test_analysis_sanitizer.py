"""The virtual-time race sanitizer: shuffle determinism + envelopes.

The load-bearing property (hypothesis-driven): for any tie seed, the
4 KiB rdma-dpu campaign cell's record is **byte-identical** across
repeated runs with that seed — the equal-time shuffle is a pure, seeded
function and introduces no entropy of its own — and its headline
metrics stay inside the sanitizer's quantization envelope relative to
the FIFO reference.  Records are built the way the sanitizer builds
them: :func:`normalize_cell` + :func:`run_cell` + :func:`cell_record`.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import (
    DEFAULT_TOLERANCE,
    TAIL_TOLERANCE,
    _verdict,
    compare_metrics,
    run_sanitizer,
    spec_cells,
)
from repro.bench.campaign import (
    cell_key,
    cell_record,
    expand_spec,
    load_spec,
    normalize_cell,
    run_cell,
)
from repro.bench.ledger import canonical_json
from repro.sim.core import tie_scramble

CAMPAIGNS = os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks", "campaigns")

#: Short simulated window: the byte-identity property is runtime
#: independent, so keep each run cheap.
RUNTIME = 0.004


def quick_4k(transport, runtime=RUNTIME):
    """The quick 4 KiB DPU randread cell of ``fig5_ci.json``."""
    return normalize_cell({"transport": transport, "client": "dpu",
                           "rw": "randread", "bs": "4k", "numjobs": 16,
                           "iodepth": 16, "runtime": runtime})


def build_record(transport, runtime=RUNTIME, tie_seed=None):
    config = quick_4k(transport, runtime)
    return cell_record(config, run_cell(config, tie_seed=tie_seed))


@pytest.fixture(scope="module")
def rdma_reference():
    """The FIFO (unshuffled) 4 KiB rdma-dpu record."""
    return build_record("rdma", tie_seed=None)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tie_seed=st.integers(min_value=1, max_value=2**31 - 1))
def test_shuffle_preserves_ledger_byte_identity(tie_seed):
    a = canonical_json(build_record("rdma", tie_seed=tie_seed))
    b = canonical_json(build_record("rdma", tie_seed=tie_seed))
    assert a == b


#: Extreme order statistics.  In a RUNTIME window (~1600 requests) they
#: are the one or two slowest requests, often ramp stragglers that a tie
#: permutation moves across the window start.
EXTREMES = (".max", ".p999")


def test_shuffled_metrics_stay_in_envelope(rdma_reference):
    # Every metric but the extremes, on several tie seeds.  About one tie
    # seed in six moves an extreme past the 1% tail tolerance in this
    # window, and which ones do depends on event numbering alone: offset
    # every event id by a constant (FIFO order unchanged) and seed 7
    # passes at some offsets and fails at others.
    for tie_seed in range(1, 8):
        var = build_record("rdma", tie_seed=tie_seed)
        drift = [row for row in compare_metrics(rdma_reference, var)
                 if not row["metric"].endswith(EXTREMES)]
        assert drift == [], (tie_seed, drift)
        # The shuffle is not a no-op: the full record may legitimately
        # differ (per-request attribution tracks the realized schedule).
        assert var["config"] == rdma_reference["config"]


def test_shuffled_extremes_stay_in_envelope():
    # The extremes, at the window the ``sanitize`` gate runs
    # (``sanitize_ci.json``), where they rest on ~8000 requests.
    ref = build_record("rdma", runtime=0.02, tie_seed=None)
    var = build_record("rdma", runtime=0.02, tie_seed=7)
    assert compare_metrics(ref, var) == []


def test_fifo_rerun_is_byte_identical(rdma_reference):
    again = build_record("rdma", tie_seed=None)
    assert canonical_json(again) == canonical_json(rdma_reference)


# ---------------------------------------------------------------------------
# tie_scramble is a bijection (no tie-key collisions, ever)
# ---------------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=2**63),
       eids=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                     min_size=2, max_size=64, unique=True))
def test_tie_scramble_is_injective(seed, eids):
    scramble = tie_scramble(seed)
    outs = [scramble(e) for e in eids]
    assert len(set(outs)) == len(outs)
    assert all(0 <= o < 2**64 for o in outs)


def test_tie_scramble_seeds_differ():
    a, b = tie_scramble(1), tie_scramble(2)
    assert [a(i) for i in range(16)] != [b(i) for i in range(16)]


# ---------------------------------------------------------------------------
# Envelope comparison logic
# ---------------------------------------------------------------------------

def _rec(metrics):
    return {"metrics": metrics}


def test_compare_metrics_flags_real_drift():
    ref = _rec({"result.iops": 100000.0, "result.latency.max": 1e-3})
    ok = _rec({"result.iops": 100000.0 * (1 + DEFAULT_TOLERANCE / 2),
               "result.latency.max": 1e-3 * (1 + TAIL_TOLERANCE / 2)})
    assert compare_metrics(ref, ok) == []
    bad = _rec({"result.iops": 100000.0 * (1 + DEFAULT_TOLERANCE * 3),
                "result.latency.max": 1e-3})
    rows = compare_metrics(ref, bad)
    assert [r["metric"] for r in rows] == ["result.iops"]
    assert rows[0]["why"] == "exceeds envelope"


def test_compare_metrics_flags_namespace_changes():
    ref = _rec({"result.iops": 1.0})
    var = _rec({"result.iops": 1.0, "result.extra": 2.0})
    rows = compare_metrics(ref, var)
    assert [r["metric"] for r in rows] == ["result.extra"]
    assert rows[0]["why"] == "metric present on only one side"


def test_tail_metrics_get_the_loose_envelope():
    ref = _rec({"result.latency.p99": 1e-3})
    var = _rec({"result.latency.p99": 1e-3 * (1 + 5e-3)})
    assert compare_metrics(ref, var) == []  # 5e-3 < TAIL_TOLERANCE
    var = _rec({"result.latency.p99": 1e-3 * (1 + 2 * TAIL_TOLERANCE)})
    assert len(compare_metrics(ref, var)) == 1


def test_hash_axis_flags_any_byte_difference():
    ref = {"run_id": "ref", "metrics": {"result.iops": 1.0}}
    runs = {("k", None, 0): ref,
            ("k", 1, 0): {"metrics": {"result.iops": 1.0}, "flame": "a"},
            ("k", 1, 5): {"metrics": {"result.iops": 1.0}, "flame": "b"}}
    cell = _verdict("k", {}, runs, seeds=(1,), hash_seeds=(0, 5))
    assert not cell["ok"] and cell["drifted_metrics"] == []
    assert [m["hash_seeds"] for m in cell["hash_mismatches"]] == [[0, 5]]


# ---------------------------------------------------------------------------
# The committed CI spec and the end-to-end pool matrix
# ---------------------------------------------------------------------------

def test_ci_spec_is_the_ledgers_4k_cells():
    # So each FIFO reference the CI sanitizer diffs against is a
    # committed ledger record.
    ci = [cell_key(c) for c in
          spec_cells(load_spec(os.path.join(CAMPAIGNS, "sanitize_ci.json")))]
    fig5 = [cell_key(c) for c in
            expand_spec(load_spec(os.path.join(CAMPAIGNS, "fig5_ci.json")))
            if c["bs"] == 4096]
    assert len(ci) == 2 and sorted(ci) == sorted(fig5)


def test_sanitize_matrix_runs_on_the_pool():
    # 1 tie seed x 2 hash seeds, each hash seed on its own spawned pool.
    config = quick_4k("tcp")
    doc = run_sanitizer([config], seeds=(3,), hash_seeds=(0, 1))
    assert doc["format"] == "repro-sanitize-v2" and doc["ok"]
    [cell] = doc["cells"]
    assert cell["ok"], json.dumps(cell, indent=2)[:2000]
    assert cell["key"] == cell_key(config) and cell["config"] == config
    assert cell["reference_run_id"] == build_record("tcp")["run_id"]
    assert cell["n_runs"] == 3
    assert cell["hash_mismatches"] == []
    assert cell["drifted_metrics"] == []
    assert cell["reference_iops"] > 0
    assert 0.0 <= cell["envelope_use"] < 1.0
