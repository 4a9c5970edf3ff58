"""Unit tests for the differential doctor (repro.sim.diffdoctor)."""

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import ledger as lg
from repro.bench.runner import run_fig5_doctored
from repro.sim.diffdoctor import (
    UNATTRIBUTED,
    DiffDiagnosis,
    diff_flames,
    diff_runs,
    write_overlay_trace,
)


def run_for(transport):
    """The quick 4 KiB Fig. 5 cell — the one the committed campaign pins —
    and its record."""
    run = run_fig5_doctored(transport, "dpu", "randread", 4096, 16,
                            runtime=0.02, sample_every=20,
                            observe_sampler=False)
    config = {"experiment": "fig5", "transport": transport, "client": "dpu",
              "rw": "randread", "bs": 4096, "numjobs": 16,
              "runtime": 0.02, "sample_every": 20}
    return run, lg.make_run_record(run.result, config, f"tiny {transport}",
                                   "doctor", run.collector, run.tracer)


@pytest.fixture(scope="module")
def tcp_run():
    return run_for("tcp")


@pytest.fixture(scope="module")
def rdma_run():
    return run_for("rdma")


@pytest.fixture(scope="module")
def tcp_record(tcp_run):
    return tcp_run[1]


@pytest.fixture(scope="module")
def rdma_record(rdma_run):
    return rdma_run[1]


class TestIdentityDiff:
    def test_diff_with_itself_is_null(self, tcp_record):
        dd = diff_runs(tcp_record, tcp_record)
        assert dd.ok and dd.exit_code == 0
        att = dd.checks["attribution"]
        assert att["observed_delta"] == 0.0
        assert att["sum_attributed"] == pytest.approx(0.0, abs=1e-15)
        assert all(r["delta"] == pytest.approx(0.0, abs=1e-15)
                   for r in dd.contributors)
        assert "equivalent" in dd.verdict
        assert dd.config_delta == {}

    def test_diff_flames_with_itself_empty(self, tcp_record):
        flames = diff_flames(tcp_record, tcp_record)
        assert flames == {"spans": {}, "waits": {}}


class TestTcpVsRdma:
    def test_deltas_sum_to_observed(self, tcp_record, rdma_record):
        dd = diff_runs(tcp_record, rdma_record)
        att = dd.checks["attribution"]
        assert dd.ok
        assert att["sum_attributed"] == pytest.approx(
            att["observed_delta"], rel=1e-9)
        assert att["rel_err"] <= att["tolerance"]

    def test_arm_rx_wait_is_top_contributor(self, tcp_record, rdma_record):
        """The paper's claim in delta form: RDMA wins by skipping Arm RX."""
        dd = diff_runs(tcp_record, rdma_record)
        top = dd.contributors[0]
        assert top["resource"] == "dpu.arm_rx"
        assert top["delta"] < 0  # tcp -> rdma removes that time
        assert abs(top["delta_wait"]) >= abs(top["delta_service"])
        assert "dpu.arm_rx" in dd.verdict and "(wait)" in dd.verdict

    def test_contributors_ranked_by_abs_delta_then_name(
            self, tcp_record, rdma_record):
        rows = diff_runs(tcp_record, rdma_record).contributors
        keys = [(-abs(r["delta"]), r["resource"]) for r in rows]
        assert keys == sorted(keys)

    def test_direction_flips_with_argument_order(
            self, tcp_record, rdma_record):
        fwd = diff_runs(tcp_record, rdma_record)
        rev = diff_runs(rdma_record, tcp_record)
        assert fwd.observed["latency"]["delta"] == pytest.approx(
            -rev.observed["latency"]["delta"])
        assert fwd.contributors[0]["delta"] == pytest.approx(
            -rev.contributors[0]["delta"])

    def test_config_delta_and_observed_metrics(self, tcp_record, rdma_record):
        dd = diff_runs(tcp_record, rdma_record)
        assert dd.config_delta["transport"] == ["tcp", "rdma"]
        assert dd.observed["iops"]["delta"] > 0  # rdma is faster
        assert dd.observed["p99"]["delta"] < 0

    def test_document_shape_and_render(self, tcp_record, rdma_record):
        dd = diff_runs(tcp_record, rdma_record)
        doc = json.loads(json.dumps(dd.to_dict()))
        assert doc["format"] == "repro-diff-v1"
        for key in ("label", "verdict", "ok", "base", "current",
                    "config_delta", "observed", "contributors", "checks",
                    "notes"):
            assert key in doc, key
        text = dd.render()
        assert "Attributed latency delta" in text
        assert "attribution check ok" in text


class TestChecksAndNotes:
    def test_tampered_mean_fails_attribution_check(
            self, tcp_record, rdma_record):
        """The identity check is a real gate: the sum is exact by
        construction, so only a non-finite total breaks it, and ok
        flips."""
        broken = copy.deepcopy(rdma_record)
        broken["traces"]["total_root_time"] = float("nan")
        dd = diff_runs(tcp_record, broken)
        assert not dd.ok and dd.exit_code == 1
        assert dd.verdict.endswith("[attribution check FAILED]")

    def test_sample_rate_mismatch_noted(self, tcp_record, rdma_record):
        other = copy.deepcopy(rdma_record)
        other["config"]["sample_every"] = 99
        dd = diff_runs(tcp_record, other)
        assert any("sampling rates" in n for n in dd.notes)

    def test_blame_free_records_attribute_to_unattributed(self):
        def bare(mean):
            return {"run_id": "x", "config": {},
                    "traces": {"count": 10, "total_root_time": 10 * mean},
                    "metrics": {}, "blame": {}}
        dd = diff_runs(bare(2e-3), bare(1e-3))
        assert any("neither run carries blame" in n for n in dd.notes)
        [row] = dd.contributors
        assert row["resource"] == UNATTRIBUTED
        assert row["delta"] == pytest.approx(-1e-3)
        assert dd.ok


    def test_moved_throughput_is_never_equivalent(self, tcp_record):
        """Equal sampled latency, but IOPS moved: the verdict names it."""
        faster = copy.deepcopy(tcp_record)
        faster["metrics"]["result.iops"] *= 2
        dd = diff_runs(tcp_record, faster)
        assert "equivalent" not in dd.verdict
        assert "mean sampled latency unchanged; iops " in dd.verdict
        assert dd.verdict.endswith("(+100.0%)")

    def test_untraced_record_attributes_no_latency(self, tcp_record):
        """A record without ``traces`` (a Fig. 3/4 cell) has no sampled
        latency to compare: the verdict says so and gives the throughput
        delta."""
        bare = {k: v for k, v in tcp_record.items()
                if k not in ("traces", "blame", "flame")}
        dd = diff_runs(bare, tcp_record)
        assert "latency" not in dd.observed
        assert "no sampled latency attributed (no traces in base); " \
            "iops and bandwidth unchanged" in dd.verdict


class TestDiffFlamesAndOverlay:
    def test_tcp_vs_rdma_moves_arm_rx_stacks(self, tcp_record, rdma_record):
        flames = diff_flames(tcp_record, rdma_record)
        assert flames["spans"] and flames["waits"]
        arm = [s for s in flames["waits"] if "wait:dpu.arm_rx" in s]
        assert arm
        for stack in arm:
            a, b = flames["waits"][stack]
            assert a > 0 and b == 0  # present under tcp, gone under rdma

    @pytest.fixture
    def overlay(self, tcp_run, rdma_run, tmp_path):
        out = tmp_path / "overlay.json"
        doc = write_overlay_trace(
            str(out), tcp_run[0].tracer.wait_series(),
            rdma_run[0].tracer.wait_series(), tracks=("A:tcp", "B:rdma"),
            run_ids=(tcp_run[1]["run_id"], rdma_run[1]["run_id"]))
        assert json.loads(out.read_text()) == doc
        return doc

    def test_overlay_trace_is_valid_and_prefixed(
            self, overlay, tcp_record, rdma_record):
        from repro.sim.chrometrace import validate_chrome_trace

        assert validate_chrome_trace(overlay) == []
        pids = {e["args"]["name"] for e in overlay["traceEvents"]
                if e.get("ph") == "M" and e.get("name") == "process_name"}
        assert {"A:tcp", "B:rdma"} <= pids
        other = overlay["otherData"]
        assert other["n_counter_tracks"] > 0
        assert other["base_run_id"] == tcp_record["run_id"]
        assert other["current_run_id"] == rdma_record["run_id"]

    def test_each_row_carries_its_runs_live_series(self, overlay, tcp_run,
                                                    rdma_run):
        """Per ``A:``/``B:`` row: the track names are that run's live
        ``wait_series()`` names, and each track ends on the live value."""
        rows = {e["args"]["name"]: e["pid"] for e in overlay["traceEvents"]
                if e.get("ph") == "M" and e.get("name") == "process_name"}
        for row, (run, _) in (("A:tcp", tcp_run), ("B:rdma", rdma_run)):
            live = run.tracer.wait_series()
            counters = [e for e in overlay["traceEvents"]
                        if e["ph"] == "C" and e["pid"] == rows[row]]
            assert {e["name"] for e in counters} == {s.name for s in live}
            for s in live:
                last = max((e for e in counters if e["name"] == s.name),
                           key=lambda e: e["ts"])
                assert last["args"][s.name] == s.values()[-1]


# ---------------------------------------------------------------------------
# Property: the attribution identity holds on randomized synthetic workloads
# ---------------------------------------------------------------------------

times = st.floats(min_value=0.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)


def _record(tag, n, blame, mean):
    return {
        "run_id": tag, "config": {"transport": tag},
        "traces": {"count": n, "total_root_time": n * mean},
        "metrics": {}, "blame": blame,
    }


@st.composite
def synthetic_records(draw, tag):
    n = draw(st.integers(min_value=1, max_value=64))
    resources = draw(st.lists(
        st.sampled_from(["dpu.arm_rx", "nvme0", "net.link", "host.cpu",
                         "dpu.dma", "storage.tcp_stack"]),
        unique=True, max_size=6))
    blame = {}
    for name in resources:
        wait = draw(times)
        service = draw(times)
        latency = draw(times)
        blame[name] = {"wait": wait, "service": service,
                       "latency": latency, "total": wait + service + latency}
    return _record(tag, n, blame, draw(times))


def _waits(pairs):
    return {name: {"wait": w, "service": 0.0, "latency": 0.0, "total": w}
            for name, w in pairs}


#: The same blame listed in two orders: the two sums behind the
#: unattributed remainders round apart by ~1.4e-14 while every delta,
#: observed one included, is 0.
_BLAME = [("dpu.arm_rx", 9.9), ("nvme0", 9.7), ("net.link", 0.3),
          ("host.cpu", 7.1), ("dpu.dma", 3.3), ("storage.tcp_stack", 5.9)]
_REORDERED = [_BLAME[i] for i in (0, 3, 5, 1, 2, 4)]


@given(base=synthetic_records("a"), cur=synthetic_records("b"))
@example(base=_record("a", 1, _waits(_BLAME), 1.0),
         cur=_record("b", 1, _waits(_REORDERED), 1.0))
@settings(max_examples=60, deadline=None)
def test_attribution_identity_on_random_workloads(base, cur):
    dd = diff_runs(base, cur)
    att = dd.checks["attribution"]
    # Exact by construction: the unattributed row absorbs the remainder.
    assert att["sum_attributed"] == pytest.approx(
        att["observed_delta"], rel=1e-9, abs=1e-9)
    assert dd.ok
    # Per-row split is internally consistent, except the unattributed row
    # which by definition carries no wait/service split of its own.
    for row in dd.contributors:
        if row["resource"] == UNATTRIBUTED:
            continue
        assert row["delta"] == pytest.approx(
            row["delta_wait"] + row["delta_service"], rel=1e-9, abs=1e-9)
    assert isinstance(dd, DiffDiagnosis)


def test_zero_delta_with_large_cancelling_blame_stays_ok():
    """Regression: equal means over big blame totals must not fail on
    float cancellation noise (~1e-14) measured against the 1e-12 delta
    floor — the error scale has to track the summed magnitudes."""
    def rec(tag, blame):
        return {"run_id": tag, "config": {"transport": tag},
                "traces": {"count": 1, "total_root_time": 0.0},
                "metrics": {}, "blame": blame}

    base = rec("a", {
        "dpu.arm_rx": {"wait": 9.41546282599409, "service": 0.0,
                       "latency": 6.660545268346674,
                       "total": 16.075 + 0.000008094340764},
        "nvme0": {"wait": 9.709133635603646, "service": 0.0,
                  "latency": 0.0, "total": 9.709133635603646},
        "net.link": {"wait": 1.909751215520128, "service": 0.0,
                     "latency": 0.0, "total": 1.909751215520128},
    })
    cur = rec("b", {
        "dpu.arm_rx": {"wait": 0.0, "service": 0.0,
                       "latency": 1.7661578216173004,
                       "total": 1.7661578216173004},
    })
    dd = diff_runs(base, cur)
    att = dd.checks["attribution"]
    assert att["abs_err"] < 1e-12  # the identity really is exact
    assert att["ok"] and dd.ok
