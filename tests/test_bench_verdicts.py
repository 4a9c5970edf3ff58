"""Record verdicts: hold on the committed ledger, fire on a broken record."""

import json
import os
import shutil

import pytest

from repro.bench import ledger as lg
from repro.bench.cli import main
from repro.bench.verdicts import VERDICTS, run_verdicts

LEDGER_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "benchmarks", "ledger")
TCP_4K = "fig5-tcp-dpu-randread-4096"
RDMA_4K = "fig5-rdma-dpu-randread-4096"
QP_BREAK = "chaos-rdma-dpu-randread-4096-j16-8b625e7d1c"
RDMA_1M_READ = "fig5-rdma-dpu-read-1048576"


@pytest.fixture
def no_sim(monkeypatch):
    from repro.sim.core import Environment

    def boom(*a, **kw):
        raise AssertionError("a verdict simulated")

    monkeypatch.setattr(Environment, "run", boom)


def test_committed_ledger_passes_every_verdict(no_sim, capsys):
    assert main(["verdict", LEDGER_DIR]) == 0
    out = capsys.readouterr().out
    for verdict in VERDICTS:
        assert f"{verdict.__name__}: ok" in out
    assert "8 record(s)" in out


def _ledger_copy(tmp_path):
    out = tmp_path / "ledger"
    shutil.copytree(LEDGER_DIR, out)
    return str(out)


def _edit(ledger, ref, change):
    path = lg.resolve_ref(ref, ledger)
    with open(path) as fh:
        record = json.load(fh)
    change(record)
    lg.save_run(record, ledger)
    return record["run_id"]


def _arm_rx_share_080(record):
    record["blame"]["dpu.arm_rx"]["total"] = \
        0.80 * record["traces"]["total_root_time"]


def _lose_one(record):
    record["chaos"]["recovery"]["completed"] -= 1


def _no_fault_qp_blame(record):
    del record["blame"]["fault:dpu.qp"]


def _no_nvme_blame(record):
    record["blame"] = {k: v for k, v in record["blame"].items()
                       if not k.startswith("nvme.")}


def _no_reconnects(record):
    record["chaos"]["recovery"]["reconnects"] = 0


def _p99_3ms(record):
    record["metrics"]["result.latency.p99"] = 3e-3


def _arm_rx_above_tcp(record):
    # Twice TCP's per-request Arm-RX blame, so RDMA no longer saves it.
    tcp = lg.load_run(TCP_4K, LEDGER_DIR)
    scale = 2 * record["traces"]["count"] / tcp["traces"]["count"]
    record["blame"]["dpu.arm_rx"] = {
        k: v * scale for k, v in tcp["blame"]["dpu.arm_rx"].items()}


@pytest.mark.parametrize("ref, change, verdict", [
    (TCP_4K, _arm_rx_share_080, "tcp_4k_blames_arm_rx"),
    (TCP_4K, _p99_3ms, "tcp_4k_blames_arm_rx"),
    (QP_BREAK, _lose_one, "chaos_recovers"),
    (QP_BREAK, _no_reconnects, "chaos_recovers"),
    (QP_BREAK, _no_fault_qp_blame, "chaos_recovers"),
    (RDMA_1M_READ, _no_nvme_blame, "fig5_blames_nvme"),
    (RDMA_4K, _arm_rx_above_tcp, "rdma_removes_arm_rx_wait"),
], ids=["arm-rx-share-0.80", "p99-3ms", "chaos-lost-1",
        "qp-break-no-reconnect", "qp-break-no-fault-blame",
        "fig5-no-nvme-blame",
        "rdma-arm-rx-above-tcp"])
def test_a_broken_record_is_a_finding_naming_its_run(ref, change, verdict,
                                                     tmp_path, capsys):
    ledger = _ledger_copy(tmp_path)
    run_id = _edit(ledger, ref, change)
    assert main(["verdict", ledger]) == 1
    assert run_id in capsys.readouterr().out
    failed = [name for name, found in run_verdicts(lg.list_runs(ledger))
              if found]
    assert failed == [verdict]


def test_a_removed_cell_is_a_finding_not_a_skip(tmp_path, capsys):
    ledger = _ledger_copy(tmp_path)
    os.remove(lg.resolve_ref(TCP_4K, ledger))
    assert main(["verdict", ledger]) == 1
    out = capsys.readouterr().out
    assert f"  {TCP_4K}: no record of this cell among 4 fig5 record(s)" in out
    assert "rdma_removes_arm_rx_wait: 1 finding(s)" in out


def test_a_chaos_ledger_without_the_qp_break_cell_is_a_finding(tmp_path):
    ledger = _ledger_copy(tmp_path)
    os.remove(os.path.join(ledger, f"{QP_BREAK}.json"))
    found = dict(run_verdicts(lg.list_runs(ledger)))
    assert found["chaos_recovers"] == [
        "chaos: no qp_break cell among 2 chaos record(s)"]


def test_an_experiment_with_no_records_gives_no_finding(tmp_path):
    # A chaos-only ledger (the chaos CI job's) checks no fig5 cell.
    ledger = tmp_path / "chaos"
    ledger.mkdir()
    for name in os.listdir(LEDGER_DIR):
        if name.startswith("chaos-"):
            shutil.copy(os.path.join(LEDGER_DIR, name), ledger)
    assert main(["verdict", str(ledger)]) == 0


def test_unobserved_fig5_records_give_no_finding(no_sim, tmp_path, capsys):
    """An ``observe: false`` record carries no ``blame`` or ``traces``:
    the verdicts read the observed records beside it and skip it."""
    ledger = _ledger_copy(tmp_path)
    for ref in (TCP_4K, RDMA_4K):
        record = lg.load_run(ref, ledger)
        config = dict(record["config"], observe=False)
        del config["sample_every"]
        for key in ("traces", "blame", "flame"):
            del record[key]
        record.update(kind="fig5", config=config,
                      config_hash=lg.config_hash(config))
        lg.save_run(lg._finish_record(record), ledger)
    assert main(["verdict", ledger]) == 0
    assert "10 record(s)" in capsys.readouterr().out


@pytest.mark.parametrize("make", ["missing", "empty"])
def test_a_directory_without_records_exits_2(make, tmp_path, capsys):
    ledger = tmp_path / "ledger"
    if make == "empty":
        ledger.mkdir()
    assert main(["verdict", str(ledger)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
