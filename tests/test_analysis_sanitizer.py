"""The virtual-time race sanitizer: shuffle determinism + envelopes.

The load-bearing property (hypothesis-driven): for any tie seed, the
4 KiB rdma-dpu cell's stripped ledger record is **byte-identical**
across repeated runs with that seed — the equal-time shuffle is a pure,
seeded function and introduces no entropy of its own — and its headline
metrics stay inside the sanitizer's quantization envelope relative to
the FIFO reference.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import (
    DEFAULT_TOLERANCE,
    TAIL_TOLERANCE,
    build_record,
    compare_metrics,
    sanitize_cell,
)
from repro.bench.ledger import canonical_json
from repro.sim.core import tie_scramble

#: Short simulated window: the byte-identity property is runtime
#: independent, so keep each run cheap.
RUNTIME = 0.004


@pytest.fixture(scope="module")
def rdma_reference():
    """The FIFO (unshuffled) 4 KiB rdma-dpu record."""
    return build_record("rdma", runtime=RUNTIME, tie_seed=None)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tie_seed=st.integers(min_value=1, max_value=2**31 - 1))
def test_shuffle_preserves_ledger_byte_identity(tie_seed):
    a = canonical_json(build_record("rdma", runtime=RUNTIME,
                                    tie_seed=tie_seed))
    b = canonical_json(build_record("rdma", runtime=RUNTIME,
                                    tie_seed=tie_seed))
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
        var = build_record("rdma", runtime=RUNTIME, tie_seed=tie_seed)
        drift = [row for row in compare_metrics(rdma_reference, var)
                 if not row["metric"].endswith(EXTREMES)]
        assert drift == [], (tie_seed, drift)
        # The shuffle is not a no-op: the full record may legitimately
        # differ (per-request attribution tracks the realized schedule).
        assert var["config"] == rdma_reference["config"]


def test_shuffled_extremes_stay_in_envelope():
    # The extremes, at the window the ``sanitize`` gate runs
    # (``build_record``'s default), where they rest on ~8000 requests.
    ref = build_record("rdma", tie_seed=None)
    var = build_record("rdma", tie_seed=7)
    assert compare_metrics(ref, var) == []


def test_fifo_rerun_is_byte_identical(rdma_reference):
    again = build_record("rdma", runtime=RUNTIME, tie_seed=None)
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


# ---------------------------------------------------------------------------
# End-to-end subprocess matrix (small: 1 tie seed x 2 hash seeds)
# ---------------------------------------------------------------------------

def test_sanitize_cell_subprocess_matrix():
    cell = sanitize_cell("tcp", runtime=RUNTIME, seeds=(3,),
                         hash_seeds=(0, 1))
    assert cell["ok"], json.dumps(cell, indent=2)[:2000]
    assert cell["n_runs"] == 3
    assert cell["hash_mismatches"] == []
    assert cell["drifted_metrics"] == []
    assert cell["reference_iops"] > 0
    assert 0.0 <= cell["envelope_use"] < 1.0
