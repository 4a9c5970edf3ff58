"""Unit tests for the run ledger (repro.bench.ledger)."""

import copy
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import ledger as lg
from repro.bench.campaign import cell_record, normalize_cell, run_cell
from repro.bench.runner import run_fig5_doctored

LEDGER_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "benchmarks", "ledger")


def test_flatten_numeric_walks_nested_docs():
    doc = {"a": 1, "b": {"c": 2.5, "d": [3, {"e": 4}]},
           "s": "text", "flag": True, "none": None}
    flat = lg.flatten_numeric(doc)
    assert flat == {"a": 1.0, "b.c": 2.5, "b.d[0]": 3.0, "b.d[1].e": 4.0}


def test_flatten_numeric_scalar_root():
    assert lg.flatten_numeric(7) == {"value": 7.0}
    assert lg.flatten_numeric(True) == {}


def _stamped(record, **stamps):
    """Stamp a built record the way campaigns and the CLI do: after the
    run ID is fixed, on the returned dict."""
    record.update(stamps)
    return record


@pytest.fixture(scope="module")
def tiny_run():
    """The same deterministic miniature Fig. 5 cell the flame golden uses."""
    return run_fig5_doctored("tcp", "dpu", "randread", 4096, 2,
                             runtime=0.004, sample_every=4,
                             observe_sampler=False)


@pytest.fixture(scope="module")
def tiny_config(tiny_run):
    return {"experiment": "fig5", "transport": "tcp", "client": "dpu",
            "rw": "randread", "bs": 4096, "numjobs": 2,
            "runtime": 0.004, "sample_every": 4}


@pytest.fixture(scope="module")
def tiny_record(tiny_run, tiny_config):
    record = lg.make_run_record(tiny_run.result, tiny_config, "tiny",
                                "doctor", tiny_run.collector,
                                tiny_run.tracer)
    return _stamped(record, git_sha="abc1234",
                    created="2026-08-07T00:00:00Z")



class TestRecordShape:
    def test_format_and_sections(self, tiny_record):
        r = tiny_record
        assert r["format"] == lg.FORMAT == "repro-run-v1"
        for key in ("config", "config_hash", "metrics", "cost", "traces",
                    "blame", "flame"):
            assert key in r, key
        # The wait counter series are regenerated from the config, and
        # the tracer keeps no per-resource aggregates: neither is stored.  ``traces`` keeps what the diff doctor reads; the mean
        # is their quotient.
        assert "wait_series" not in r and "wait_aggregates" not in r
        assert set(r["traces"]) == {"count", "total_root_time"}
        assert r["traces"]["count"] > 0
        assert r["traces"]["total_root_time"] > 0
        assert r["metrics"]["result.iops"] > 0
        assert set(r["flame"]) == {"spans", "waits"}

    def test_run_id_is_slug_plus_content_hash(self, tiny_record):
        slug = lg.config_slug(tiny_record["config"])
        assert slug == "fig5-tcp-dpu-randread-4096-j2"
        assert tiny_record["run_id"] == f"{slug}-{lg.content_hash(tiny_record)}"

    def test_blame_components_match_tracer(self, tiny_run, tiny_record):
        live = tiny_run.tracer.blame_components()
        assert set(tiny_record["blame"]) == set(live)
        # The tcp/dpu cell blames the Arm RX path.
        assert "dpu.arm_rx" in tiny_record["blame"]

    def test_json_serialisable_and_canonical(self, tiny_record):
        again = json.loads(json.dumps(tiny_record))
        assert again == tiny_record
        assert lg.canonical_json(again) == lg.canonical_json(tiny_record)


class TestRunIdStability:
    def test_volatile_fields_do_not_move_the_id(self, tiny_run, tiny_config):
        a = _stamped(lg.make_run_record(tiny_run.result, tiny_config, "",
                                        "doctor", tiny_run.collector,
                                        tiny_run.tracer),
                     git_sha="abc1234", created="2026-08-07T00:00:00Z")
        b = _stamped(lg.make_run_record(tiny_run.result, tiny_config, "",
                                        "doctor", tiny_run.collector,
                                        tiny_run.tracer),
                     git_sha="fffffff", created="2031-01-01T12:34:56Z")
        assert a["run_id"] == b["run_id"]
        assert lg.content_hash(a) == lg.content_hash(b)
        assert a["run_id"].endswith(lg.content_hash(a))

    def test_content_change_moves_the_id(self, tiny_record):
        tweaked = copy.deepcopy(tiny_record)
        tweaked["metrics"]["result.iops"] += 1.0
        assert lg.content_hash(tweaked) != lg.content_hash(tiny_record)

    def test_config_change_moves_slug_and_hash(self, tiny_record):
        other = dict(tiny_record["config"], transport="rdma")
        assert lg.config_slug(other) != lg.config_slug(tiny_record["config"])
        assert lg.config_hash(other) != lg.config_hash(tiny_record["config"])


class TestStorage:
    def test_save_load_round_trip_lossless(self, tiny_record, tmp_path):
        path = lg.save_run(tiny_record, str(tmp_path))
        assert path.endswith(f"{tiny_record['run_id']}.json")
        assert lg.load_run(tiny_record["run_id"], str(tmp_path)) == tiny_record
        # By path too, bypassing the ledger dir.
        assert lg.load_run(path, "/nonexistent") == tiny_record

    def test_save_rejects_foreign_documents(self, tmp_path):
        with pytest.raises(ValueError, match="repro-run-v1"):
            lg.save_run({"format": "something-else"}, str(tmp_path))

    def test_load_rejects_foreign_documents(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format": "not-a-run"}')
        with pytest.raises(ValueError, match="not a repro-run-v1"):
            lg.load_run(str(p), str(tmp_path))

    def test_resolve_prefix_and_errors(self, tiny_record, tmp_path):
        lg.save_run(tiny_record, str(tmp_path))
        rid = tiny_record["run_id"]
        assert lg.resolve_ref(rid, str(tmp_path)).endswith(f"{rid}.json")
        assert lg.resolve_ref(rid[:12], str(tmp_path)).endswith(f"{rid}.json")
        with pytest.raises(ValueError, match="no run matching"):
            lg.resolve_ref("nope", str(tmp_path))
        # A second record sharing the prefix makes it ambiguous.
        other = copy.deepcopy(tiny_record)
        other["metrics"]["result.iops"] += 1.0
        other = lg._finish_record(other)
        lg.save_run(other, str(tmp_path))
        with pytest.raises(ValueError, match="ambiguous"):
            lg.resolve_ref("fig5-tcp", str(tmp_path))

    def test_list_runs_sorted_and_summary(self, tiny_record, tmp_path):
        lg.save_run(tiny_record, str(tmp_path))
        records = lg.list_runs(str(tmp_path))
        assert [r["run_id"] for r in records] == \
            sorted(r["run_id"] for r in records)
        s = lg.run_summary(records[0])
        assert s["run_id"] == records[0]["run_id"]
        assert s["iops"] == records[0]["metrics"]["result.iops"]
        assert s["p99"] == records[0]["metrics"]["result.latency.p99"]


class TestCommittedCampaign:
    """The committed benchmarks/ledger campaign stays loadable and coherent."""

    def test_four_fig5_cells_present(self):
        records = lg.list_runs(LEDGER_DIR)
        cells = {(r["config"]["transport"], r["config"]["bs"])
                 for r in records if r["config"].get("experiment") == "fig5"}
        assert {("tcp", 4096), ("rdma", 4096),
                ("tcp", 1024**2), ("rdma", 1024**2)} <= cells

    def test_the_write_path_is_gated(self):
        """A striped 1 MiB write is in the campaign, and every Fig. 5
        record blames the NVMe time its sampled requests spent."""
        fig5 = [r for r in lg.list_runs(LEDGER_DIR)
                if r["config"].get("experiment") == "fig5"]
        assert len(fig5) == 5
        assert any(r["config"]["rw"] == "write" and r["config"]["ssds"] == 4
                   for r in fig5)
        for r in fig5:
            assert any(k.startswith("nvme.ssd") for k in r["blame"]), r["run_id"]

    def test_records_verify_against_their_own_content(self):
        for r in lg.list_runs(LEDGER_DIR):
            assert r["run_id"].endswith(lg.content_hash(r)), r["run_id"]

    def test_records_have_exactly_the_record_sections(self, tiny_record):
        """A committed record missed by a re-record fails here, not only
        in CI's campaign check."""
        sections = set(tiny_record)
        for r in lg.list_runs(LEDGER_DIR):
            extra = {"chaos"} if r["kind"] == "chaos" else set()
            assert set(r) == sections | extra, r["run_id"]
            assert set(r["traces"]) == set(tiny_record["traces"]), r["run_id"]

    def test_records_carry_their_event_cost(self):
        for r in lg.list_runs(LEDGER_DIR):
            cost = r["cost"]
            assert cost["events_per_io"] == \
                cost["measured"] / r["metrics"]["result.total_ios"]
            assert (cost["drain"] > 0) == (r["kind"] == "chaos"), r["run_id"]


#: Two tiny cells, each with its run ID.  The ID hashes everything but
#: ``cost``, so an equal ID means ``metrics`` and every other section are
#: unchanged.  The IDs were first pinned before records carried ``cost``
#: and moved since only with the record's shape or the chaos cell's
#: blame, never with ``metrics``: the chaos cell's RPC deadlines used to
#: be Timeouts the wait tracer booked as ``(sleep)``, and records later
#: stopped storing the wait counter series, the wait aggregates, the
#: three ``traces`` fields and the three chaos sections no reader used,
#: and with the config when ``quick`` left it (``observe`` took its
#: place in a Fig. 5 config).
COST_CELLS = {
    "fig5-tcp-dpu-randread-4096-j2-59d12874e0": {
        "transport": "tcp", "numjobs": 2, "runtime": 0.004,
        "sample_every": 4},
    "chaos-rdma-dpu-randread-4096-j4-f272e79193": {
        "transport": "rdma", "numjobs": 4, "runtime": 0.01,
        "faults": {"events": [{"kind": "qp_break", "target": "dpu.qp",
                               "at": 0.005, "duration": 0.001}]}},
}


@pytest.fixture(scope="module", params=sorted(COST_CELLS))
def cost_cell(request):
    """(run ID before ``cost``, doctored run, record) for one tiny cell."""
    config = normalize_cell(COST_CELLS[request.param])
    run = run_cell(config)
    record = cell_record(config, run)
    return request.param, getattr(run, "run", run), record


class TestCost:
    def test_phases_sum_to_dispatched_events(self, cost_cell):
        _, run, record = cost_cell
        cost = record["cost"]
        phases = [cost[p] for p in ("setup", "ramp", "measured", "drain")]
        assert sum(phases) == run.system.env.events_processed
        assert min(phases[:3]) > 0
        # Only the chaos cell runs on after the window: its drain.
        assert (cost["drain"] > 0) == (record["kind"] == "chaos")

    def test_events_per_io_covers_the_measured_window(self, cost_cell):
        _, run, record = cost_cell
        cost = record["cost"]
        assert cost["events_per_io"] == cost["measured"] / run.result.total_ios

    def test_run_id_and_metrics_unchanged(self, cost_cell):
        old_id, run, record = cost_cell
        assert record["run_id"] == old_id
        assert "phase_events" not in run.result.to_dict()
        assert record["metrics"] == \
            lg.flatten_numeric({"result": run.result.to_dict()})

    def test_cost_is_compared_but_not_hashed(self, cost_cell):
        _, _, record = cost_cell
        moved = copy.deepcopy(record)
        moved["cost"]["measured"] += 1
        assert lg.content_hash(moved) == lg.content_hash(record)
        assert lg.strip_volatile(moved) != lg.strip_volatile(record)


@given(config=st.dictionaries(
    st.sampled_from(["experiment", "transport", "client", "rw", "bs",
                     "numjobs", "runtime", "observe"]),
    st.one_of(st.integers(-10**6, 10**6), st.text(max_size=12),
              st.booleans(), st.floats(allow_nan=False,
                                       allow_infinity=False, width=32)),
))
@settings(max_examples=50, deadline=None)
def test_config_hash_deterministic_and_order_free(config):
    """Property: hashing is stable and insensitive to key order."""
    reordered = dict(reversed(list(config.items())))
    assert lg.config_hash(config) == lg.config_hash(reordered)
    assert lg.config_slug(config) == lg.config_slug(reordered)
    # Round-tripping through JSON never moves the hash.
    again = json.loads(json.dumps(config))
    assert lg.config_hash(again) == lg.config_hash(config)


class TestVolatileFields:
    """strip_volatile and the code-fingerprint stamp (campaign cache key)."""

    def test_strip_volatile_drops_exactly_the_stamp_fields(self, tiny_record):
        stripped = lg.strip_volatile(tiny_record)
        for key in ("run_id", "created", "git_sha", "code_fingerprint"):
            assert key not in stripped
        assert stripped["metrics"] == tiny_record["metrics"]
        assert stripped["config"] == tiny_record["config"]

    def test_fingerprint_is_volatile_for_the_run_id(self, tiny_run,
                                                    tiny_config):
        a = _stamped(lg.make_run_record(tiny_run.result, tiny_config, "tiny",
                                        "doctor", tiny_run.collector,
                                        tiny_run.tracer),
                     code_fingerprint="a" * 16)
        b = _stamped(lg.make_run_record(tiny_run.result, tiny_config, "tiny",
                                        "doctor", tiny_run.collector,
                                        tiny_run.tracer),
                     code_fingerprint="b" * 16)
        assert a["code_fingerprint"] != b["code_fingerprint"]
        assert a["run_id"] == b["run_id"]
        assert lg.content_hash(a) == lg.content_hash(b)
        assert lg.strip_volatile(a) == lg.strip_volatile(b)


class TestTracerlessRecord:
    class _Result:
        total_ios, phase_events = 4, (10, 30, 50)

        def to_dict(self):
            return {"iops": 1000.0, "latency": {"mean": 1e-4, "p99": 2e-4}}

    def test_metrics_only_record_round_trips(self, tmp_path):
        config = {"experiment": "fig3", "rw": "read", "bs": 1024**2,
                  "numjobs": 1, "iodepth": 8, "runtime": 0.03, "ssds": 1}
        record = _stamped(
            lg.make_run_record(self._Result(), config, "fig3 read", "fig3"),
            git_sha="abc", created="2026-01-01", code_fingerprint="f" * 16)
        assert record["format"] == lg.FORMAT
        assert record["kind"] == "fig3"
        assert record["metrics"]["result.iops"] == 1000.0
        # Nothing runs after FIO's window without a tracer: drain is 0.
        assert record["cost"] == {"setup": 10, "ramp": 20, "measured": 20,
                                  "drain": 0, "events_per_io": 5.0}
        assert not {"traces", "blame", "flame"} & set(record)
        assert record["config_hash"] == lg.config_hash(config)
        assert record["run_id"].endswith(lg.content_hash(record))
        lg.save_run(record, str(tmp_path))
        assert lg.load_run(record["run_id"], str(tmp_path)) == record


def test_ambiguous_ref_lists_candidates(tiny_record, tmp_path):
    lg.save_run(tiny_record, str(tmp_path))
    other = copy.deepcopy(tiny_record)
    other["metrics"]["result.iops"] += 1.0
    other = lg._finish_record(other)
    lg.save_run(other, str(tmp_path))
    with pytest.raises(ValueError) as err:
        lg.resolve_ref("fig5-tcp", str(tmp_path))
    message = str(err.value)
    assert "2 matches" in message
    assert tiny_record["run_id"] in message
    assert other["run_id"] in message
    assert f"[{tiny_record['kind']}]" in message
    assert "disambiguate" in message
