"""Unit tests for the bench CLI."""

import json
import os

import pytest

from repro.bench import ledger as lg
from repro.bench.campaign import parse_size
from repro.bench.cli import build_parser, main

LEDGER_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "benchmarks", "ledger")
TCP_4K = "fig5-tcp-dpu-randread-4096"
RDMA_4K = "fig5-rdma-dpu-randread-4096"
#: The committed TCP 4 KiB record by path: a ``compare-runs`` whose
#: ``--ledger-dir`` is scratch still finds it.
TCP_4K_PATH = lg.resolve_ref(TCP_4K, LEDGER_DIR)
CI_SPEC = os.path.join(os.path.dirname(LEDGER_DIR), "campaigns",
                       "fig5_ci.json")


@pytest.fixture
def no_sim(monkeypatch):
    """Fail the test if a fast-path error still burns a simulation run."""
    import repro.bench.runner as runner

    def boom(*a, **kw):
        raise AssertionError("simulation ran despite fail-fast error")

    monkeypatch.setattr(runner, "run_fig5_doctored", boom)
    monkeypatch.setattr(runner, "run_fig5_chaos", boom)
    monkeypatch.setattr(runner, "_build_fig5", boom)


def test_parse_size_suffixes():
    assert parse_size("4096") == 4096
    assert parse_size("4k") == 4096
    assert parse_size("1m") == 1024**2
    assert parse_size("2g") == 2 * 1024**3
    assert parse_size("1.5k") == 1536


def test_parse_size_rejects_garbage():
    with pytest.raises(ValueError, match="cannot parse size 'lots'"):
        parse_size("lots")


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_providers_subcommand(capsys):
    assert main(["providers"]) == 0
    out = capsys.readouterr().out
    assert "ucx+rc" in out and "ofi+tcp;ofi_rxm" in out


def test_fig3_subcommand_runs(capsys):
    assert main(["fig3", "--rw", "read", "--bs", "1m", "--jobs", "1",
                 "--runtime", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "GiB/s" in out


def test_fig4_subcommand_runs(capsys):
    assert main(["fig4", "--provider", "ucx+rc", "--bs", "1m",
                 "--client-cores", "2", "--server-cores", "2",
                 "--rw", "read", "--runtime", "0.01"]) == 0
    assert "fig4" in capsys.readouterr().out


def test_fig5_subcommand_runs(capsys):
    assert main(["fig5", "--transport", "rdma", "--client", "host",
                 "--rw", "read", "--bs", "1m", "--jobs", "2",
                 "--runtime", "0.03"]) == 0
    assert "fig5" in capsys.readouterr().out


def test_invalid_choices_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig3", "--rw", "trim"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig5", "--ssds", "9"])


class TestDoctorFailFast:
    """Bad arguments must exit 2 *before* the simulation runs."""

    def test_unknown_slo_metric_lists_known_names(self, no_sim, capsys):
        assert main(["doctor", "--quick", "--slo", "p42<=1ms"]) == 2
        err = capsys.readouterr().err
        assert "p42" in err
        # The error teaches the vocabulary, not just rejects.
        for known in ("p50", "p99", "iops", "mean"):
            assert known in err

    def test_malformed_slo_rule(self, no_sim, capsys):
        assert main(["doctor", "--quick", "--slo", "lots of latency"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--against", "--diff-out",
                                      "--diff-flame", "--diff-wait-flame",
                                      "--overlay"])
    def test_diff_flags_are_compare_runs_only(self, no_sim, flag):
        with pytest.raises(SystemExit):
            main(["doctor", "--quick", flag, TCP_4K])


class TestArtifactPathsFailFast:
    """An output path into a missing directory exits 2 before any sim."""

    @pytest.mark.parametrize("argv", [
        ["doctor", "--quick", "--json-out"],
        ["doctor", "--quick", "--flame"],
        ["doctor", "--quick", "--wait-flame"],
        ["doctor", "--quick", "--perfetto"],
        ["compare-runs", TCP_4K, RDMA_4K, "--ledger-dir", LEDGER_DIR,
         "--json-out"],
        ["compare-runs", TCP_4K, RDMA_4K, "--ledger-dir", LEDGER_DIR,
         "--overlay"],
        ["chaos", "--json-out"],
        ["chaos", "--wait-flame"],
        ["compare-runs", TCP_4K, RDMA_4K, "--ledger-dir", LEDGER_DIR,
         "--diff-flame"],
        ["campaign", CI_SPEC, "--dry-run", "--ledger-dir", LEDGER_DIR,
         "--json-out"],
        ["compare-runs", TCP_4K, RDMA_4K, "--ledger-dir", LEDGER_DIR,
         "--diff-wait-flame"],
    ])
    def test_missing_directory_exits_2(self, no_sim, capsys, tmp_path, argv):
        bad = str(tmp_path / "no-such-dir" / "out")
        assert main(argv + [bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --") and bad in err
        assert not (tmp_path / "no-such-dir").exists()


def test_doctor_ledger_shares_the_campaign_identity(capsys, tmp_path):
    """``doctor --quick --ledger`` on the TCP 4 KiB cell re-records the
    committed campaign record: same config, label and run ID."""
    assert main(["doctor", "--quick", "--ledger",
                 "--ledger-dir", str(tmp_path)]) == 0
    name = f"{TCP_4K}-j16-51254102f7.json"
    assert os.listdir(tmp_path) == [name]
    with open(tmp_path / name) as fh:
        produced = json.load(fh)
    with open(os.path.join(LEDGER_DIR, name)) as fh:
        committed = json.load(fh)
    assert lg.strip_volatile(produced) == lg.strip_volatile(committed)


def test_chaos_ledger_keeps_its_run_id(capsys, tmp_path):
    """``chaos --ledger`` records the default QP-break cell under its
    pinned run ID, and ``--json-out`` writes the record it saves."""
    ledger, out = tmp_path / "ledger", tmp_path / "chaos.json"
    assert main(["chaos", "--ledger", "--runtime", "0.01",
                 "--ledger-dir", str(ledger), "--json-out", str(out)]) == 0
    name = "chaos-rdma-dpu-randread-4096-j16-734f404109.json"
    assert os.listdir(ledger) == [name]
    assert json.loads(out.read_text()) == \
        json.loads((ledger / name).read_text())
    assert "chaos verdict — chaos rdma/dpu randread" in capsys.readouterr().out


def test_doctor_ledger_needs_quick(no_sim, capsys, tmp_path):
    """A run with the sampler on is never recorded: its ticks are kernel
    events, so its ``cost`` would not be the cell's."""
    assert main(["doctor", "--ledger", "--ledger-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --ledger needs --quick: the sampler's "
                          "ticks are kernel events")
    assert "cost" in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_chaos_cli_and_campaign_share_one_identity(monkeypatch):
    """``chaos`` with the QP-break cell's knobs normalizes to the config
    ``chaos_ci.json`` records for it, so both record one run ID."""
    import repro.bench.campaign as cp

    seen = []

    class Stop(Exception):
        pass

    def capture(config, *a, **kw):
        seen.append(config)
        raise Stop

    monkeypatch.setattr(cp, "run_cell", capture)
    with pytest.raises(Stop):
        main(["chaos", "--transport", "rdma", "--jobs", "16",
              "--runtime", "0.02"])
    spec = cp.load_spec(os.path.join(os.path.dirname(CI_SPEC),
                                     "chaos_ci.json"))
    qp_break = cp.expand_spec(spec)[0]
    assert qp_break["faults"]["events"][0]["kind"] == "qp_break"
    assert seen == [qp_break]


def test_doctor_json_breakdown_names_the_arm_rx_stage(capsys, tmp_path):
    out = tmp_path / "doctor.json"
    assert main(["doctor", "--quick", "--runtime", "0.005",
                 "--json-out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "repro-doctor-v1"
    stages = doc["breakdown"]["stages"]
    top = max(stages, key=lambda s: stages[s]["self_sec_total"])
    assert top == "dpu.arm_rx"
    assert "waits" in stages[top]
    assert {"dpu", "storage"} <= {n["name"] for n in doc["telemetry"]["nodes"]}


def test_doctor_with_the_sampler_writes_busy_tracks_and_no_checks(
        capsys, tmp_path):
    """``doctor`` without ``--quick`` runs the continuous sampler: its
    Perfetto trace carries the stations' ``.busy`` tracks and no queue
    gauges, and its JSON document has no law-check section."""
    from repro.sim.chrometrace import validate_chrome_trace

    out, trace = tmp_path / "doctor.json", tmp_path / "trace.json"
    assert main(["doctor", "--runtime", "0.004", "--json-out", str(out),
                 "--perfetto", str(trace)]) == 0
    doc = json.loads(out.read_text())
    assert "checks" not in doc and doc["stations"]
    chrome = json.loads(trace.read_text())
    assert validate_chrome_trace(chrome) == []
    tracks = {e["name"] for e in chrome["traceEvents"] if e["ph"] == "C"}
    assert {"dpu.arm_rx.busy", "nvme.ssd0.busy"} <= tracks
    assert not [n for n in tracks if n.endswith(".in_flight")]


def test_trace_subcommand_is_gone():
    with pytest.raises(SystemExit):
        main(["trace"])


@pytest.mark.parametrize("argv,defaults", [
    (["fig5"], dict(transport="rdma", client="host", rw="read", bs=1024**2,
                    jobs=8, ssds=1, runtime=None)),
    (["doctor"], dict(transport="tcp", client="dpu", rw="randread", bs=4096,
                      jobs=None, ssds=1, runtime=None, sample=20)),
    (["chaos"], dict(transport="rdma", client="dpu", rw="randread", bs=4096,
                     jobs=None, ssds=1, runtime=None, sample=20)),
    (["compare-runs", "a", "b"], dict(ledger_dir=None, json_out=None,
                                      diff_flame=None, diff_wait_flame=None,
                                      overlay=None)),
])
def test_subcommand_defaults(argv, defaults):
    args = vars(build_parser().parse_args(argv))
    assert {k: args.get(k, "<absent>") for k in defaults} == defaults
    if argv == ["fig5"]:
        assert "sample" not in args  # fig5 stays the unobserved runner


class TestBadCellFailsFast:
    """A knob no runner accepts exits 2 before anything is simulated."""

    @pytest.mark.parametrize("argv", [
        ["doctor", "--quick", "--transport", "foo"],
        ["doctor", "--quick", "--sample", "0"],
        ["doctor", "--quick", "--runtime", "-1"],
        ["doctor", "--quick", "--jobs", "0"],
        ["chaos", "--transport", "bogus"],
        ["chaos", "--jobs", "0"],
        ["compare-runs", "cell:rw=trim", "{base}",
         "--ledger-dir", "{tmp}"],
        ["compare-runs", "cell:ssds=9", "{base}",
         "--ledger-dir", "{tmp}"],
        {"rw": "trim", "client": "gpu", "ssds": 9},
        {"transport": "bogus"},
        {"client": "gpu"},
        {"ssds": 0},
        {"iodepth": 0},
        {"runtime": -1},
        {"sample_every": 0},
        {"bs": 0},
        {"targets": 0},
        ["doctor", "--quick", "--runtime", "inf"],
        ["chaos", "--runtime", "inf"],
        {"runtime": float("inf")},
        {"bs": "lots"},
        ["compare-runs", "cell:transport=rdma,quick=true", "{base}",
         "--ledger-dir", "{tmp}"],
        {"quick": True},
        {"transport": "rdma", "bogus": 1, "quikc": False},
        {"observe": False, "sample_every": 20},
    ])
    def test_exits_2(self, no_sim, capsys, tmp_path, argv):
        if isinstance(argv, dict):  # a campaign spec with one bad cell
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"format": "repro-campaign-v1",
                                        "cells": [argv]}))
            argv = ["campaign", str(spec), "--dry-run",
                    "--ledger-dir", str(tmp_path)]
        else:  # a cell: ref never records into the committed ledger
            argv = [a.format(base=TCP_4K_PATH, tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        # A cell: reference's worker would turn no_sim's raise into exit 2.
        assert err.startswith("error: ") and "simulation ran" not in err

    def test_fig5_transport_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--transport", "foo"])
        for name in ("tcp", "rdma", "ucx+tcp", "ofi+tcp;ofi_rxm"):
            args = build_parser().parse_args(["fig5", "--transport", name])
            assert args.transport == name


class TestFigureAndVerdictKnobsFailFast:
    """Core counts outside the testbed's hosts, a zero job count and a
    verdict no run can pass exit 2 with one error line, before anything
    is simulated: every subcommand validates through ``normalize_cell``."""

    @pytest.fixture(autouse=True)
    def no_figure_sim(self, no_sim, monkeypatch):
        def boom(*a, **kw):
            raise AssertionError("simulation ran despite fail-fast error")

        import repro.bench.runner as runner

        for name in ("run_fig3_cell", "run_fig4_cell"):
            monkeypatch.setattr(runner, name, boom)

    @pytest.mark.parametrize("argv, message", [
        (["fig3", "--jobs", "0"], "numjobs must be > 0"),
        (["fig5", "--jobs", "0", "--bs", "4k"], "numjobs must be > 0"),
        (["fig4", "--client-cores", "0"], "client_cores must be 1-48"),
        (["fig4", "--client-cores", "64"], "client_cores must be 1-48"),
        (["fig4", "--server-cores", "65"], "server_cores must be 1-64"),
        ({"experiment": "fig4", "client_cores": 0},
         "client_cores must be 1-48"),
        (["chaos", "--min-goodput", "1.5"], "min_goodput must be in (0, 1]"),
        (["chaos", "--p999-max", "-1"], "p999_max must be > 0"),
        (["fig5", "--runtime", "inf"], "runtime must be finite"),
    ])
    def test_exits_2(self, capsys, tmp_path, argv, message):
        if isinstance(argv, dict):  # a campaign spec with one bad cell
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"format": "repro-campaign-v1",
                                        "cells": [argv]}))
            argv = ["campaign", str(spec), "--dry-run",
                    "--ledger-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err

    def test_core_bounds_come_from_the_host_specs(self):
        from repro.bench.campaign import _check_cell
        from repro.hw.specs import EPYC_HOST, STORAGE_SERVER

        cell = {"experiment": "fig4", "provider": "ucx+rc", "rw": "randread",
                "bs": 4096, "client_cores": EPYC_HOST.cores,
                "server_cores": STORAGE_SERVER.cores}
        _check_cell(cell)
        for key in ("client_cores", "server_cores"):
            with pytest.raises(ValueError, match=key):
                _check_cell({**cell, key: cell[key] + 1})


class TestRunsSubcommand:
    def test_listing_shows_committed_campaign(self, capsys):
        assert main(["runs", "--ledger-dir", LEDGER_DIR]) == 0
        out = capsys.readouterr().out
        assert TCP_4K in out and RDMA_4K in out

    def test_detail_view_by_prefix(self, capsys):
        assert main(["runs", TCP_4K, "--ledger-dir", LEDGER_DIR]) == 0
        out = capsys.readouterr().out
        assert "dpu.arm_rx" in out and "iops:" in out

    def test_json_listing_parses(self, capsys):
        assert main(["runs", "--ledger-dir", LEDGER_DIR,
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["kind"] for r in rows} == {"doctor", "chaos"}
        assert all(r["iops"] > 0 for r in rows)

    def test_bad_ref_exits_2(self, capsys):
        assert main(["runs", "bogus", "--ledger-dir", LEDGER_DIR]) == 2
        assert "no run matching" in capsys.readouterr().err


class TestCompareRunsSubcommand:
    def test_tcp_vs_rdma_verdict(self, capsys):
        assert main(["compare-runs", TCP_4K, RDMA_4K,
                     "--ledger-dir", LEDGER_DIR]) == 0
        out = capsys.readouterr().out
        assert "rdma vs tcp" in out
        assert "dpu.arm_rx" in out
        assert "attribution check ok" in out

    def test_writes_diff_artefacts(self, capsys, tmp_path):
        diff_json = tmp_path / "diff.json"
        flame = tmp_path / "flame.txt"
        assert main(["compare-runs", TCP_4K, RDMA_4K,
                     "--ledger-dir", LEDGER_DIR,
                     "--json-out", str(diff_json),
                     "--diff-wait-flame", str(flame)]) == 0
        doc = json.loads(diff_json.read_text())
        assert doc["format"] == "repro-diff-v1"
        assert doc["ok"] is True
        assert doc["contributors"][0]["resource"] == "dpu.arm_rx"
        lines = flame.read_text().splitlines()
        assert lines and all(len(ln.rsplit(" ", 2)) == 3 for ln in lines)

    def test_cells_without_sampled_spans_name_the_throughput_delta(
            self, capsys, tmp_path):
        """Two Fig. 3 cells carry no ``traces``: the verdict says no
        sampled latency was attributed and names the IOPS/bandwidth move,
        never "equivalent"."""
        cell = "cell:experiment=fig3,rw=randread,bs=4k,numjobs={},runtime=0.005"
        assert main(["compare-runs", cell.format(1), cell.format(16),
                     "--ledger-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: 16 vs 1: no sampled latency attributed (no traces " \
            "in base or current); iops 86,800 -> 625,000 (+620.0%); " \
            "bandwidth 0.33 -> 2.38 GiB/s (+620.0%)\n" in out
        assert "equivalent" not in out

    def test_bad_ref_exits_2(self, capsys):
        assert main(["compare-runs", TCP_4K, "bogus",
                     "--ledger-dir", LEDGER_DIR]) == 2
        assert "no run matching" in capsys.readouterr().err

    def test_bad_ref_fails_before_a_cell_simulates(self, no_sim, capsys,
                                                   tmp_path):
        assert main(["compare-runs", "cell:transport=rdma", "no-such-run",
                     "--ledger-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no run matching" in err and "simulation ran" not in err
        assert os.listdir(tmp_path) == []


class TestOverlayRefusesWhatItCannotRegenerate:
    """``--overlay`` re-simulates each ledger run from its config.  A run
    it cannot regenerate exits 2, naming the run, and writes nothing."""

    @pytest.fixture
    def fig3_record(self, tmp_path):
        from repro.bench import ledger as lg
        from repro.bench.campaign import normalize_cell

        class _Result:
            total_ios, phase_events = 0, (0, 0, 0)

            def to_dict(self):
                return {"iops": 1000.0}

        record = lg.make_run_record(
            _Result(), normalize_cell({"experiment": "fig3"}), "", "fig3")
        return lg.save_run(record, str(tmp_path)), record["run_id"]

    @pytest.mark.parametrize("argv", [
        ["compare-runs", "{ref}", TCP_4K, "--ledger-dir", LEDGER_DIR],
    ], ids=["compare-runs"])
    def test_record_without_a_wait_tracer(self, no_sim, capsys, tmp_path,
                                          fig3_record, argv):
        path, run_id = fig3_record
        overlay = tmp_path / "overlay.json"
        argv = [a.format(ref=path) for a in argv]
        assert main(argv + ["--overlay", str(overlay)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --overlay: run {run_id} is a fig3")
        assert not overlay.exists()

    def test_record_made_by_other_code(self, capsys, tmp_path):
        record = lg.load_run(TCP_4K, LEDGER_DIR)
        record["metrics"]["result.iops"] += 1.0
        record = lg._finish_record(record)
        path = lg.save_run(record, str(tmp_path))
        overlay, diff = tmp_path / "overlay.json", tmp_path / "diff.json"
        assert main(["compare-runs", path, RDMA_4K, "--ledger-dir",
                     LEDGER_DIR, "--json-out", str(diff),
                     "--overlay", str(overlay)]) == 2
        err = capsys.readouterr().err
        assert f"run {record['run_id']} re-simulates as " in err
        assert "made by other code and must be re-recorded" in err
        assert not overlay.exists() and not diff.exists()


class TestCampaignSubcommand:
    def test_dry_run_lists_committed_cells(self, no_sim, capsys):
        assert main(["campaign", CI_SPEC, "--dry-run",
                     "--ledger-dir", LEDGER_DIR]) == 0
        out = capsys.readouterr().out
        assert "5 cells" in out
        assert "fig5-tcp-dpu-randread-4096-j16" in out
        assert "fig5-rdma-dpu-read-1048576-j8" in out
        assert "fig5-rdma-dpu-write-1048576-j8" in out

    def test_dry_run_writes_json_report(self, no_sim, capsys, tmp_path):
        report = tmp_path / "report.json"
        assert main(["campaign", CI_SPEC, "--dry-run", "--progress",
                     "--ledger-dir", LEDGER_DIR,
                     "--json-out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["format"] == "repro-campaign-v1"
        assert doc["n_cells"] == 5
        assert {c["status"] for c in doc["cells"]} <= {"cached", "would-run"}
        assert "[5/5]" in capsys.readouterr().out

    def test_missing_spec_exits_2(self, no_sim, capsys):
        assert main(["campaign", "does-not-exist.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_foreign_spec_exits_2(self, no_sim, capsys, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text('{"format": "nope"}')
        assert main(["campaign", str(p)]) == 2
        assert "repro-campaign-v1" in capsys.readouterr().err

    def test_zero_jobs_rejected(self, no_sim, capsys):
        assert main(["campaign", CI_SPEC, "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestSanitizeFailsFast:
    """A spec the sanitizer cannot run exits 2, with one error line,
    before any worker starts."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        import repro.bench.campaign as cp

        def boom(*a, **kw):
            raise AssertionError("sanitizer started a pool despite bad input")

        monkeypatch.setattr(cp, "_pool_map", boom)

    def _exits_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_missing_spec(self, capsys):
        self._exits_2(capsys, ["sanitize", "does-not-exist.json"])

    @pytest.mark.parametrize("body", ["{not json", "[]",
                                      '{"format": "nope"}',
                                      '{"format": "repro-campaign-v1"}'])
    def test_malformed_spec(self, capsys, tmp_path, body):
        spec = tmp_path / "spec.json"
        spec.write_text(body)
        self._exits_2(capsys, ["sanitize", str(spec)])

    @pytest.mark.parametrize("cell", [
        {"experiment": "fig3"},
        {"experiment": "fig4"},
    ])
    def test_fig3_and_fig4_cells(self, capsys, tmp_path, cell):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"format": "repro-campaign-v1",
                                    "cells": [{"transport": "rdma"}, cell]}))
        err = self._exits_2(capsys, ["sanitize", str(spec)])
        assert f"a {cell['experiment']} cell takes no tie seed" in err


class TestRunsFormatJson:
    def test_format_json_is_sorted_by_run_id(self, capsys):
        assert main(["runs", "--ledger-dir", LEDGER_DIR,
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        ids = [r["run_id"] for r in rows]
        assert ids == sorted(ids) and len(ids) >= 4


class TestCellRefsViaCli:
    def test_malformed_cell_ref_fails_fast(self, no_sim, capsys, tmp_path):
        assert main(["compare-runs", TCP_4K_PATH, "cell:rdma",
                     "--ledger-dir", str(tmp_path)]) == 2
        assert "key=value" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
