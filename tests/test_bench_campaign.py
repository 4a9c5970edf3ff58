"""Unit tests for the campaign executor (repro.bench.campaign)."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import campaign as cp
from repro.bench import ledger as lg

LEDGER_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "benchmarks", "ledger")

#: A tiny two-cell fig. 5 campaign — small enough that the whole module
#: simulates in a few seconds, real enough to hit the full record path.
SPEC = {
    "format": cp.FORMAT,
    "name": "test",
    "experiment": "fig5",
    "defaults": {"bs": "4k", "numjobs": 1, "runtime": 0.02},
    "grid": {"transport": ["tcp", "rdma"]},
}

#: Pinned volatile stamps so byte-level comparisons are exact equality.
STAMP = {"git_sha": "test123", "created": "2026-01-01T00:00:00Z"}


def read_ledger_bytes(ledger_dir):
    return {name: open(os.path.join(ledger_dir, name), "rb").read()
            for name in sorted(os.listdir(ledger_dir))
            if name.endswith(".json")}


def crash_on_tcp(monkeypatch):
    """Make every TCP cell's simulation raise, as a simulator bug would
    (bad knobs never get that far: ``normalize_cell`` rejects them)."""
    import repro.bench.runner as runner

    real = runner.run_fig5_doctored

    def run(transport, *args, **kw):
        if transport == "tcp":
            raise ValueError("injected simulator crash")
        return real(transport, *args, **kw)

    monkeypatch.setattr(runner, "run_fig5_doctored", run)


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    """One serial execution of SPEC, shared by the comparison tests."""
    ledger = str(tmp_path_factory.mktemp("serial"))
    result = cp.run_campaign(SPEC, jobs=1, ledger_dir=ledger, **STAMP)
    return result, ledger


# ---------------------------------------------------------------------------
# Spec expansion
# ---------------------------------------------------------------------------

class TestExpandSpec:
    def test_grid_is_cartesian_product_over_defaults(self):
        cells = cp.expand_spec(SPEC)
        assert len(cells) == 2
        assert sorted(c["transport"] for c in cells) == ["rdma", "tcp"]
        assert all(c["bs"] == 4096 and c["numjobs"] == 1 for c in cells)

    def test_dict_axis_values_merge_correlated_knobs(self):
        spec = {
            "format": cp.FORMAT,
            "grid": {
                "transport": ["tcp", "rdma"],
                "workload": [
                    {"rw": "randread", "bs": "4k", "numjobs": 16},
                    {"rw": "read", "bs": "1m", "numjobs": 8},
                ],
            },
        }
        cells = cp.expand_spec(spec)
        assert len(cells) == 4
        assert {(c["rw"], c["bs"], c["numjobs"]) for c in cells} == \
            {("randread", 4096, 16), ("read", 1024**2, 8)}
        assert all("workload" not in c for c in cells)

    def test_explicit_cells_append_after_grid(self):
        spec = dict(SPEC, cells=[{"transport": "tcp", "numjobs": 4}])
        cells = cp.expand_spec(spec)
        assert len(cells) == 3
        assert cells[-1]["numjobs"] == 4

    def test_duplicate_cells_rejected(self):
        spec = dict(SPEC, cells=[{"transport": "tcp"}])
        with pytest.raises(ValueError, match="duplicate cell"):
            cp.expand_spec(spec)

    def test_committed_ci_specs_name_the_committed_ledger(self):
        # Every cell of the two committed campaign specs (fig5 + chaos)
        # has exactly one committed record with its config, and no
        # record lies outside them — the CI gates regenerate exactly
        # these.  So does every cell the CI sanitizer runs: its FIFO
        # reference is that record.  Nothing is simulated.
        campaigns = os.path.join(os.path.dirname(LEDGER_DIR), "campaigns")
        cells = []
        for name, n_cells in (("fig5_ci.json", 5), ("chaos_ci.json", 3)):
            expanded = cp.expand_spec(cp.load_spec(
                os.path.join(campaigns, name)))
            assert len(expanded) == n_cells
            cells += expanded
        sanitized = cp.expand_spec(cp.load_spec(
            os.path.join(campaigns, "sanitize_ci.json")))
        committed = [r["config"] for r in lg.list_runs(LEDGER_DIR)]
        for config in cells + sanitized:
            assert committed.count(config) == 1, cp.cell_key(config)
        assert len(committed) == len(cells)


class TestNormalizeCell:
    def test_fig5_defaults_match_doctor_ledger_identity(self):
        config = cp.normalize_cell({"transport": "tcp", "numjobs": 16,
                                    "bs": "4k", "runtime": 0.02})
        committed = lg.load_run("fig5-tcp-dpu-randread-4096-j16", LEDGER_DIR)
        assert config == committed["config"]
        assert cp.cell_label(config) == committed["label"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            cp.normalize_cell({"experiment": "fig9"})

    def test_auto_seed_is_a_pure_function_of_the_config(self):
        a = cp.normalize_cell({"transport": "tcp", "seed": "auto"})
        b = cp.normalize_cell({"seed": "auto", "transport": "tcp"})
        assert a["seed"] == b["seed"]
        c = cp.normalize_cell({"transport": "rdma", "seed": "auto"})
        assert c["seed"] != a["seed"]

    def test_explicit_seed_coerced_to_int(self):
        assert cp.normalize_cell({"seed": "7"})["seed"] == 7


@given(st.dictionaries(
    st.sampled_from(["transport", "rw", "numjobs", "ssds"]),
    st.lists(st.sampled_from(["tcp", "rdma", "randread", "read", 1, 2, 4]),
             min_size=1, max_size=3, unique=True),
    min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_expansion_depends_only_on_spec_content(grid):
    """Axis insertion order must not change the expanded cell list."""
    spec = {"format": cp.FORMAT, "defaults": {"runtime": 0.02}, "grid": grid}
    reversed_grid = dict(reversed(list(grid.items())))
    spec_rev = {"format": cp.FORMAT, "defaults": {"runtime": 0.02},
                "grid": reversed_grid}
    try:
        cells = cp.expand_spec(spec)
    except ValueError:
        # numjobs=tcp-style nonsense combos may fail normalization or
        # collide after coercion; order-independence is all we test here.
        with pytest.raises(ValueError):
            cp.expand_spec(spec_rev)
        return
    assert cells == cp.expand_spec(spec_rev)
    n = 1
    for values in grid.values():
        n *= len(values)
    assert len(cells) == n


# ---------------------------------------------------------------------------
# Code fingerprint
# ---------------------------------------------------------------------------

class TestCodeFingerprint:
    def _tree(self, root, files):
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def test_stable_and_sensitive_to_source_changes(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(cp, "PACKAGE_ROOT", str(tmp_path))
        self._tree(tmp_path, {"a.py": "x = 1\n", "sub/b.py": "y = 2\n"})
        fp = cp.code_fingerprint()
        assert fp == cp.code_fingerprint()
        assert len(fp) == 16
        (tmp_path / "a.py").write_text("x = 2\n")
        assert cp.code_fingerprint() != fp

    def test_ignores_pycache_and_non_python(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cp, "PACKAGE_ROOT", str(tmp_path))
        self._tree(tmp_path, {"a.py": "x = 1\n"})
        fp = cp.code_fingerprint()
        self._tree(tmp_path, {"__pycache__/a.cpython-311.pyc": "junk",
                              "notes.txt": "junk"})
        assert cp.code_fingerprint() == fp

    def test_real_tree_fingerprint_is_stable(self):
        import repro

        assert cp.PACKAGE_ROOT == os.path.dirname(
            os.path.abspath(repro.__file__))
        assert cp.code_fingerprint() == cp.code_fingerprint()


# ---------------------------------------------------------------------------
# Execution, determinism, caching
# ---------------------------------------------------------------------------

class TestRunCampaign:
    def test_serial_campaign_records_cells(self, serial_run):
        result, ledger = serial_run
        assert result.counts() == {"ran": 2}
        assert result.exit_code == 0
        for outcome in result.outcomes:
            record = lg.load_run(outcome.run_id, ledger)
            assert record["kind"] == "doctor"
            assert record["config"] == outcome.config
            assert record["code_fingerprint"] == result.fingerprint
            assert record["git_sha"] == STAMP["git_sha"]

    def test_outcomes_sorted_by_cell_key(self, serial_run):
        result, _ = serial_run
        keys = [o.key for o in result.outcomes]
        assert keys == sorted(keys)

    def test_parallel_output_byte_identical_to_serial(self, serial_run,
                                                      tmp_path):
        _, serial_ledger = serial_run
        par_ledger = str(tmp_path / "parallel")
        result = cp.run_campaign(SPEC, jobs=4, ledger_dir=par_ledger, **STAMP)
        assert result.counts() == {"ran": 2}
        assert read_ledger_bytes(par_ledger) == read_ledger_bytes(serial_ledger)

    def test_cached_rerun_executes_zero_sims(self, serial_run, monkeypatch):
        result, ledger = serial_run

        def boom(config):
            raise AssertionError("cache miss burned a simulation")

        monkeypatch.setattr(cp, "execute_cell", boom)
        again = cp.run_campaign(SPEC, jobs=1, ledger_dir=ledger, **STAMP)
        assert again.counts() == {"cached": 2}
        assert [o.run_id for o in again.outcomes] == \
            [o.run_id for o in result.outcomes]

    def test_code_change_invalidates_cache(self, serial_run, tmp_path):
        _, ledger = serial_run
        copy_dir = tmp_path / "copy"
        copy_dir.mkdir()
        for name, blob in read_ledger_bytes(ledger).items():
            (copy_dir / name).write_bytes(blob)
        result = cp.run_campaign(SPEC, jobs=1, ledger_dir=str(copy_dir),
                                 fingerprint="0" * 16, **STAMP)
        # Different fingerprint: every cell re-ran (same run IDs, since
        # the fingerprint is volatile and the outcomes are deterministic).
        assert result.counts() == {"ran": 2}

    def test_dry_run_reports_without_writing(self, tmp_path, monkeypatch):
        def boom(config):
            raise AssertionError("dry run simulated")

        monkeypatch.setattr(cp, "execute_cell", boom)
        ledger = str(tmp_path / "dry")
        result = cp.run_campaign(SPEC, jobs=1, ledger_dir=ledger,
                                 dry_run=True, **STAMP)
        assert result.counts() == {"would-run": 2}
        assert not os.path.exists(ledger)

    def test_worker_crash_isolated_to_its_cell(self, tmp_path, monkeypatch):
        # The forked pool workers inherit the patched runner.
        crash_on_tcp(monkeypatch)
        spec = {
            "format": cp.FORMAT,
            "name": "bad",
            "defaults": {"bs": "4k", "runtime": 0.02},
            "cells": [{"transport": "tcp", "numjobs": 1},
                      {"transport": "rdma", "numjobs": 1}],
        }
        ledger = str(tmp_path / "ledger")
        result = cp.run_campaign(spec, jobs=2, ledger_dir=ledger, **STAMP)
        assert result.counts() == {"ran": 1, "error": 1}
        assert result.exit_code == 1
        (bad,) = result.errors
        assert "ValueError" in bad.error
        assert "injected simulator crash" in bad.error
        assert bad.traceback
        (good,) = [o for o in result.outcomes if o.status == "ran"]
        assert lg.load_run(good.run_id, ledger)["config"]["transport"] == "rdma"

    def test_progress_callback_sees_every_cell(self, serial_run):
        _, ledger = serial_run
        seen = []
        cp.run_campaign(SPEC, jobs=1, ledger_dir=ledger,
                        progress=seen.append, **STAMP)
        assert sorted(o.key for o in seen) == \
            sorted(cp.cell_key(c) for c in cp.expand_spec(SPEC))


class TestCheckCampaign:
    def test_reproduced_campaign_passes(self, serial_run):
        result, ledger = serial_run
        assert cp.check_campaign(result, ledger) == []

    def test_content_drift_reported(self, serial_run, tmp_path):
        result, ledger = serial_run
        against = tmp_path / "committed"
        against.mkdir()
        for name, blob in read_ledger_bytes(ledger).items():
            record = json.loads(blob)
            record["metrics"]["result.iops"] += 1.0
            (against / name).write_text(json.dumps(record))
        failures = cp.check_campaign(result, str(against))
        assert len(failures) == 2
        assert all("content differs" in f for f in failures)
        assert all(f.endswith("despite equal run ID in metrics")
                   for f in failures)

    def test_missing_record_hints_at_config_match(self, serial_run, tmp_path):
        result, ledger = serial_run
        against = tmp_path / "committed"
        against.mkdir()
        # Same configs recorded under different run IDs (content drift
        # that moved the hash): the failure should point at them.
        for name, blob in read_ledger_bytes(ledger).items():
            record = json.loads(blob)
            record["metrics"]["result.iops"] += 1.0
            record = lg._finish_record(record)
            lg.save_run(record, str(against))
        failures = cp.check_campaign(result, str(against))
        assert len(failures) == 2
        assert all("content differs" in f for f in failures)
        assert all(f.endswith("content differs in metrics)") for f in failures)

    @pytest.mark.parametrize("run_id", sorted(
        name[:-5] for name in os.listdir(LEDGER_DIR) if name.endswith(".json")))
    def test_one_event_per_io_fails_naming_cost(self, run_id, tmp_path):
        """One extra kernel event per measured IO, with the simulated
        outcome (and so the run ID) unchanged, fails the gate."""
        record = lg.load_run(run_id, LEDGER_DIR)
        cost = record["cost"]
        total_ios = int(record["metrics"]["result.total_ios"])
        old = cost["events_per_io"]
        cost["measured"] += total_ios
        cost["events_per_io"] = cost["measured"] / total_ios
        assert run_id.endswith(lg.content_hash(record))
        path = lg.save_run(record, str(tmp_path))
        result = cp.CampaignResult(
            name="tampered", jobs=1, ledger_dir=str(tmp_path),
            fingerprint="", outcomes=[cp.CellOutcome(
                key=cp.cell_key(record["config"]), config=record["config"],
                status="ran", run_id=run_id, path=path)])
        (failure,) = cp.check_campaign(result, LEDGER_DIR)
        assert failure.endswith(
            f"despite equal run ID in cost: measured {old:.3f} → "
            f"{old + 1:.3f} events/IO")


# ---------------------------------------------------------------------------
# Cell references
# ---------------------------------------------------------------------------

class TestCellRefs:
    def test_parse_cell_ref_types(self):
        cell = cp.parse_cell_ref(
            "cell:transport=rdma,bs=4k,numjobs=16,runtime=0.02,observe=false")
        assert cell == {"transport": "rdma", "bs": "4k", "numjobs": 16,
                        "runtime": 0.02, "observe": False}

    def test_parse_cell_ref_rejects_bare_words(self):
        with pytest.raises(ValueError, match="key=value"):
            cp.parse_cell_ref("cell:rdma")

    def test_plain_refs_delegate_to_the_ledger(self):
        [record] = cp.resolve_runs(["fig5-tcp-dpu-randread-4096"],
                                   LEDGER_DIR)
        assert record["run_id"].startswith("fig5-tcp-dpu-randread-4096")

    def test_cell_ref_runs_once_then_hits_cache(self, serial_run,
                                                monkeypatch):
        _, ledger = serial_run
        ref = "cell:transport=tcp,numjobs=1,bs=4k,runtime=0.02"
        [first] = cp.resolve_runs([ref], ledger, **STAMP)

        def boom(*a, **kw):
            raise AssertionError("cached cell ref re-simulated")

        monkeypatch.setattr(cp, "execute_cell", boom)
        assert cp.resolve_runs([ref], ledger, **STAMP) == [first]

    def test_failing_cell_ref_raises(self, tmp_path, monkeypatch):
        crash_on_tcp(monkeypatch)
        with pytest.raises(ValueError, match="failed"):
            cp.resolve_runs(["cell:transport=tcp,numjobs=1"],
                            str(tmp_path), **STAMP)

    def test_every_ref_is_checked_before_a_cell_runs(self, tmp_path,
                                                     monkeypatch):
        def boom(*a, **kw):
            raise AssertionError("a cell ran before a bad ref was seen")

        monkeypatch.setattr(cp, "execute_cell", boom)
        for bad, match in (("no-such-run", "no run matching"),
                           ("cell:rw=trim", "unknown rw")):
            with pytest.raises(ValueError, match=match):
                cp.resolve_runs(["cell:transport=tcp,numjobs=1", bad],
                                str(tmp_path), **STAMP)
        assert os.listdir(tmp_path) == []

    def test_a_cache_miss_scans_the_ledger_once(self, tmp_path, monkeypatch):
        calls = []
        real = cp.find_cached

        def counted(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(cp, "find_cached", counted)
        ref = "cell:experiment=fig3,runtime=0.005"
        record, again = cp.resolve_runs([ref, ref], str(tmp_path), **STAMP)
        assert len(calls) == 1 and again == record
        assert os.listdir(tmp_path) == [f"{record['run_id']}.json"]


class TestFigureCells:
    """Fig. 3 and Fig. 4 cells run through ``run_cell`` and
    ``cell_record`` like every other experiment: the ``fig3``/``fig4``
    subcommands print the same line and a campaign records the same run
    IDs as before, now with a ``cost`` section."""

    CELLS = [{"experiment": "fig3", "runtime": 0.005},
             {"experiment": "fig4", "runtime": 0.005}]

    @pytest.mark.parametrize("argv, line", [
        (["fig3", "--runtime", "0.005"],
         "fig3 read bs=1048576 jobs=1 ssds=1: 5.66 GiB/s (29 IOs)"),
        (["fig4", "--runtime", "0.005"],
         "fig4 ucx+rc randread bs=4096 c=4 s=4: 650.0 K IOPS (3250 IOs)"),
    ])
    def test_cli_result_line(self, capsys, argv, line):
        from repro.bench.cli import main

        assert main(argv) == 0
        assert capsys.readouterr().out == line + "\n"

    @pytest.fixture(scope="class")
    def figure_ledger(self, tmp_path_factory):
        ledger = str(tmp_path_factory.mktemp("figures"))
        spec = {"format": cp.FORMAT, "cells": self.CELLS}
        result = cp.run_campaign(spec, ledger_dir=ledger, **STAMP)
        assert result.exit_code == 0
        return ledger

    def test_campaign_run_ids(self, figure_ledger):
        assert sorted(os.listdir(figure_ledger)) == [
            "fig3-read-1048576-j1-98eebf5415.json",
            "fig4-randread-4096-34ab576ba6.json"]

    def test_records_carry_cost(self, figure_ledger):
        phases = {"fig3": (0, 48, 164), "fig4": (0, 13703, 68951)}
        for record in lg.list_runs(figure_ledger):
            cost = record["cost"]
            start, opened, closed = phases[record["kind"]]
            assert (cost["setup"], cost["ramp"], cost["measured"],
                    cost["drain"]) == (start, opened - start,
                                       closed - opened, 0)
            assert cost["events_per_io"] == (
                cost["measured"] / record["metrics"]["result.total_ios"])
            assert "blame" not in record and "flame" not in record


class TestUnobservedFig5Cell:
    """An ``observe: false`` Fig. 5 cell is the plain run the ``fig5``
    subcommand and the Fig. 5 bench make: no tracer, no spans, no
    per-op latency, and a record of metrics and ``cost`` alone."""

    CELL = {"observe": False, "transport": "tcp", "client": "dpu",
            "rw": "randread", "bs": "4k", "numjobs": 16, "runtime": 0.005}
    ARGV = ["fig5", "--transport", "tcp", "--client", "dpu", "--rw",
            "randread", "--bs", "4k", "--jobs", "16", "--runtime", "0.005"]
    LINE = "fig5 tcp/dpu randread bs=4096 jobs=16 ssds=1: 199.6 K IOPS (998 IOs)"

    @pytest.fixture(scope="class")
    def cell(self):
        config = cp.normalize_cell(self.CELL)
        run = cp.run_cell(config)
        return config, run, cp.cell_record(config, run)

    def test_config_names_no_sampling(self, cell):
        config, _, _ = cell
        assert config["observe"] is False and "sample_every" not in config

    def test_result_is_the_plain_runners(self, cell):
        from repro.bench.runner import _build_fig5, run_ros2_fio

        _, run, _ = cell
        plain = run_ros2_fio(*_build_fig5("tcp", "dpu", "randread", 4096, 16,
                                          runtime=0.005))
        assert run.result == plain and run.result.total_ios > 0
        assert run.result.phase_events == plain.phase_events
        assert run.result.latency == {}
        assert (run.collector, run.tracer, run.sampler) == (None, None, None)

    def test_record_carries_metrics_and_cost_only(self, cell):
        _, _, record = cell
        assert record["kind"] == "fig5"
        assert record["cost"]["drain"] == 0
        assert not {"traces", "blame", "flame"} & set(record)

    def test_label_is_the_fig5_subcommands_line(self, cell, capsys):
        from repro.bench.cli import main

        _, _, record = cell
        assert main(self.ARGV + ["--telemetry"]) == 0
        line, blank, snapshot = capsys.readouterr().out.split("\n", 2)
        assert (line, blank) == (self.LINE, "")
        assert snapshot.startswith("Nodes @ t=")
        assert self.LINE.startswith(record["label"] + ": ")


class TestUnknownKeys:
    """A key the cell's config does not read is rejected, naming it, so a
    misspelt or stale knob (``quick``) never passes unnoticed."""

    QP_BREAK = {"events": [{"kind": "qp_break", "target": "dpu.qp",
                            "at": 0.01, "duration": 0.002}]}

    @pytest.mark.parametrize("cell, unread", [
        ({"transport": "rdma", "bogus": 1, "quikc": False},
         "'bogus', 'quikc'"),
        ({"experiment": "fig3", "transport": "rdma"}, "'transport'"),
        ({"experiment": "fig4", "ssds": 2}, "'ssds'"),
        ({"quick": True}, "'quick'"),
        ({"observe": False, "sample_every": 20}, "'sample_every'"),
        ({"faults": QP_BREAK, "observe": True}, "'observe'"),
    ])
    def test_rejected_by_name(self, cell, unread):
        experiment = ("chaos" if "faults" in cell
                      else cell.get("experiment", "fig5"))
        with pytest.raises(ValueError) as exc:
            cp.normalize_cell(cell)
        assert str(exc.value) == f"a {experiment} cell does not read {unread}"

    def test_observe_must_be_a_bool(self):
        with pytest.raises(ValueError, match="observe must be true or false"):
            cp.normalize_cell({"observe": "no"})

    def test_chaos_configs_carry_no_observe(self):
        config = cp.normalize_cell({"faults": self.QP_BREAK})
        assert config["experiment"] == "chaos"
        assert not {"observe", "quick"} & set(config)
        assert config["sample_every"] == 20


# ---------------------------------------------------------------------------
# Spec loading and rendering
# ---------------------------------------------------------------------------

def test_load_spec_rejects_foreign_documents(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text('{"format": "nope"}')
    with pytest.raises(ValueError, match="not a repro-campaign-v1"):
        cp.load_spec(str(p))


def test_render_campaign_mentions_every_cell(serial_run):
    result, _ = serial_run
    text = cp.render_campaign(result)
    for outcome in result.outcomes:
        assert outcome.key in text
        assert outcome.run_id in text
    assert "fingerprint" in text
