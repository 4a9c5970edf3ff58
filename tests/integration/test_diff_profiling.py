"""Integration: the differential-profiling acceptance path, end to end.

``compare-runs`` of the *committed* TCP 4 KiB ledger record against a
live run of the RDMA 4 KiB Fig. 5 cell (a ``cell:`` reference,
recorded into a scratch ledger) must (1) emit a ``repro-diff-v1``
document whose attributed deltas sum to the observed end-to-end delta
within 1%, (2) name ``dpu.arm_rx`` wait reduction as the top
contributor — the paper's RDMA-vs-TCP claim in delta form — (3) write
byte-stable red/blue differential folded stacks matching the committed
goldens and (4) overlay both runs' counter tracks.
"""

import json
import os

import pytest

from repro.bench import ledger as lg
from repro.bench.cli import main

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
LEDGER_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "benchmarks", "ledger")
TCP_4K = "fig5-tcp-dpu-randread-4096"
RDMA_4K = "fig5-rdma-dpu-randread-4096"


@pytest.fixture(scope="module")
def diff_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("diff")
    argv = ["compare-runs", lg.resolve_ref(TCP_4K, LEDGER_DIR),
            "cell:transport=rdma,client=dpu,rw=randread,bs=4k,numjobs=16,"
            "runtime=0.02",
            "--ledger-dir", str(tmp_path_factory.mktemp("ledger")),
            "--json-out", str(out / "diff.json"),
            "--diff-flame", str(out / "flame.txt"),
            "--diff-wait-flame", str(out / "wait_flame.txt"),
            "--overlay", str(out / "overlay.json")]
    code = main(argv)
    return code, out


def test_acceptance_command_succeeds(diff_artifacts):
    code, _ = diff_artifacts
    assert code == 0


def test_diff_document_attribution_within_one_percent(diff_artifacts):
    _, out = diff_artifacts
    doc = json.loads((out / "diff.json").read_text())
    assert doc["format"] == "repro-diff-v1"
    assert doc["ok"] is True
    att = doc["checks"]["attribution"]
    assert att["rel_err"] <= 0.01
    assert att["sum_attributed"] == pytest.approx(att["observed_delta"],
                                                  rel=1e-6)
    # RDMA vs TCP on the 4 KiB cell: latency halves, IOPS doubles.
    assert doc["observed"]["latency"]["delta"] < 0
    assert doc["observed"]["iops"]["delta"] > 0


def test_arm_rx_wait_reduction_tops_the_ranking(diff_artifacts):
    _, out = diff_artifacts
    doc = json.loads((out / "diff.json").read_text())
    top = doc["contributors"][0]
    assert top["resource"] == "dpu.arm_rx"
    assert top["delta"] < 0
    assert abs(top["delta_wait"]) >= abs(top["delta_service"])
    assert "dpu.arm_rx" in doc["verdict"]


def test_diff_flames_match_committed_goldens(diff_artifacts):
    _, out = diff_artifacts
    for produced, golden in (("flame.txt", "diff_flame_fig5_golden.txt"),
                             ("wait_flame.txt",
                              "diff_wait_flame_fig5_golden.txt")):
        live = (out / produced).read_text()
        with open(os.path.join(DATA, golden)) as fh:
            assert live == fh.read(), (
                f"{golden} drifted; the sim outcome moved — regenerate the "
                f"golden AND re-record the benchmarks/ledger campaign")


def test_overlay_carries_both_runs_counter_tracks(diff_artifacts):
    from repro.sim.chrometrace import validate_chrome_trace

    _, out = diff_artifacts
    doc = json.loads((out / "overlay.json").read_text())
    assert validate_chrome_trace(doc) == []
    pids = {e["args"]["name"] for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"}
    assert any(p.startswith("A:tcp") for p in pids)
    assert any(p.startswith("B:rdma") for p in pids)
    # The base's tracks were regenerated from the committed record, and
    # the live run reproduced the committed RDMA record's run ID.
    for key, ref in (("base_run_id", TCP_4K), ("current_run_id", RDMA_4K)):
        assert doc["otherData"][key] == lg.load_run(ref, LEDGER_DIR)["run_id"]
