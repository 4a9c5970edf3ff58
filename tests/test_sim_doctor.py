"""Unit + integration tests for the bottleneck doctor (repro.sim.doctor)."""

import json

import pytest

from repro.sim import Environment, SpanCollector, WaitTracer
from repro.sim.doctor import (
    Station,
    blame_ranking,
    diagnose,
    parse_slo,
)
from repro.sim.queues import FifoServer
from repro.workload.fio import FioJobSpec, FioResult


# ---------------------------------------------------------------------------
# SLO parsing and evaluation
# ---------------------------------------------------------------------------

class TestParseSlo:
    def test_latency_units_normalize_to_seconds(self):
        assert parse_slo("p99<=500us").threshold == pytest.approx(500e-6)
        assert parse_slo("p95 <= 2ms").threshold == pytest.approx(2e-3)
        assert parse_slo("max<1.5s").threshold == pytest.approx(1.5)
        assert parse_slo("mean<=0.25").threshold == pytest.approx(0.25)

    def test_throughput_metrics(self):
        r = parse_slo("iops>=100000")
        assert (r.metric, r.op, r.threshold) == ("iops", ">=", 100000.0)
        assert parse_slo("bandwidth_gib>1.5").metric == "bandwidth_gib"

    def test_operators(self):
        assert parse_slo("p99<=1ms").check(1e-3)
        assert not parse_slo("p99<1ms").check(1e-3)
        assert parse_slo("iops>=5").check(5)
        assert not parse_slo("iops>5").check(5)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_slo("p99 equals 5")
        with pytest.raises(ValueError):
            parse_slo("nope<=1ms")
        with pytest.raises(ValueError):
            parse_slo("iops>=100ms")  # unit on a throughput metric

    def test_unknown_metric_error_lists_known_names(self):
        with pytest.raises(ValueError, match="unknown SLO metric"):
            parse_slo("p42<=1ms")
        try:
            parse_slo("p42<=1ms")
        except ValueError as exc:
            for name in ("p50", "p95", "p99", "p999", "mean", "max",
                         "iops", "kiops", "bandwidth", "bandwidth_gib"):
                assert name in str(exc)


# ---------------------------------------------------------------------------
# Blame ranking
# ---------------------------------------------------------------------------

def _traced_pair(waits):
    """Run one span that reserves each (name, seconds) in ``waits``."""
    env = Environment()
    col = SpanCollector(env)
    tracer = WaitTracer(env).install()
    servers = {name: FifoServer(env, name=name) for name, _ in waits}

    def op(env):
        tr = col.trace("op")
        for name, secs in waits:
            yield servers[name].serve(secs)
        tr.finish()

    env.process(op(env))
    env.run()
    return env, col, tracer


class TestBlameRanking:
    def test_orders_by_share_descending(self):
        _, col, tracer = _traced_pair([("slow", 3e-3), ("fast", 1e-3)])
        rows = blame_ranking(tracer, sum(s.duration for s in col.roots()))
        assert [r["resource"] for r in rows] == ["slow", "fast"]
        assert rows[0]["share"] == pytest.approx(0.75)

    def test_equal_blame_ties_break_by_name(self):
        # Two resources with *identical* blame must rank alphabetically,
        # so reports are byte-stable run over run.
        _, col, tracer = _traced_pair([("zeta", 1e-3), ("alpha", 1e-3)])
        rows = blame_ranking(tracer, sum(s.duration for s in col.roots()))
        assert rows[0]["share"] == rows[1]["share"]
        assert [r["resource"] for r in rows] == ["alpha", "zeta"]


# ---------------------------------------------------------------------------
# diagnose() on a synthetic run
# ---------------------------------------------------------------------------

def _fake_result(env, bs=4096, p99=1e-3):
    spec = FioJobSpec(rw="randread", bs=bs, numjobs=2, iodepth=4,
                      runtime=0.01, ramp_time=0.0, size=1 << 20)
    return FioResult(spec=spec, total_ios=100, elapsed=0.01, iops=10000.0,
                     bandwidth=10000.0 * bs,
                     latency={"count": 100, "mean": 5e-4, "p50": 4e-4,
                              "p95": 8e-4, "p99": p99, "p999": 1.2e-3,
                              "max": 1.5e-3})


class TestDiagnose:
    def test_verdict_names_top_and_next(self):
        env, col, tracer = _traced_pair([("dev.a", 3e-3), ("dev.b", 1e-3)])
        diag = diagnose(_fake_result(env), col, tracer)
        assert diag.blame[0]["resource"] == "dev.a"
        assert diag.verdict.startswith("bottleneck: dev.a, 75% of 4KiB "
                                       "randread p99, next: dev.b at 25%")
        assert diag.exit_code == 0

    def test_station_rows_read_the_stations_own_counters(self):
        env = Environment()
        col = SpanCollector(env)
        tracer = WaitTracer(env).install()
        srv = FifoServer(env, name="dev")

        def op(env):
            tr = col.trace("op")
            yield srv.serve(2e-3)
            tr.finish()

        env.process(op(env))
        env.process(op(env))
        env.run()
        stations = [Station("idle", busy_time=0.0, ops=0, capacity=2),
                    Station("dev", busy_time=srv.busy_time, capacity=1,
                            ops=srv.ops)]
        diag = diagnose(_fake_result(env), col, tracer, stations=stations)
        assert diag.stations == [
            {"station": "dev", "capacity": 1, "utilization": 1.0, "ops": 2},
            {"station": "idle", "capacity": 2, "utilization": 0.0, "ops": 0},
        ]

    def test_slo_violation_sets_exit_code(self):
        env, col, tracer = _traced_pair([("dev", 1e-3)])
        diag = diagnose(_fake_result(env, p99=1e-3), col, tracer,
                        slos=["p99<=500us", "iops>=5000"])
        rules = diag.slo["rules"]
        assert [r["ok"] for r in rules] == [False, True]
        assert diag.exit_code == 1

    def test_p99_critical_path_present(self):
        env, col, tracer = _traced_pair([("dev", 1e-3)])
        diag = diagnose(_fake_result(env), col, tracer)
        assert diag.p99["critical_path"] == ["op"]
        assert diag.p99["blame"][0]["resource"] == "dev"

    def test_to_dict_is_doctor_v1_and_json_safe(self):
        env, col, tracer = _traced_pair([("dev", 1e-3)])
        diag = diagnose(_fake_result(env), col, tracer,
                        stations=[Station("dev", 1e-3, ops=1)],
                        slos=["p99<=1s"], label="unit")
        doc = diag.to_dict()
        assert doc["format"] == "repro-doctor-v1"
        for key in ("verdict", "ok", "workload", "throughput", "latency",
                    "blame", "p99", "stations", "slo",
                    "wait_records", "notes"):
            assert key in doc
        assert "checks" not in doc
        json.dumps(doc)  # round-trippable

    def test_render_mentions_blame_and_slo(self):
        env, col, tracer = _traced_pair([("dev", 1e-3)])
        diag = diagnose(_fake_result(env), col, tracer, slos=["p99<=1s"])
        text = diag.render()
        assert "verdict: bottleneck: dev" in text
        assert "slo PASS: p99<=1s" in text


# ---------------------------------------------------------------------------
# The real thing: the paper's 4 KiB DPU-TCP read cell
# ---------------------------------------------------------------------------

class TestFig5Doctored:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.bench.runner import run_fig5_doctored

        return run_fig5_doctored("tcp", "dpu", "randread", 4096, 16,
                                 runtime=0.02, sample_every=20)

    def test_arm_rx_is_the_bottleneck(self, run):
        """Reproduce the paper's Fig. 5 conclusion: the BF3 Arm RX path
        dominates 4 KiB DPU-TCP read latency (~86% blame share)."""
        from repro.bench.calibration import PAPER_BANDS

        diag = self._diagnose(run)
        assert diag.blame[0]["resource"] == "dpu.arm_rx"
        share = diag.blame[0]["share"]
        assert PAPER_BANDS["fig5.dpu.tcp.4k.arm_rx_share"].holds(share)
        assert diag.blame[1]["resource"].startswith("nvme.ssd")
        assert "bottleneck: dpu.arm_rx" in diag.verdict

    def test_station_table_covers_every_bucket(self, run):
        diag = self._diagnose(run)
        rows = {r["station"]: r for r in diag.stations}
        assert set(rows) == {st.name for st in run.stations}
        assert rows["dpu.arm_rx"]["ops"] > 0
        assert all(0.0 <= r["utilization"] <= 1.0 for r in diag.stations)

    def test_span_decomposition_identity(self, run):
        """Every sampled leaf span reconstructs as Σ wait-record totals."""
        tracer, col = run.tracer, run.collector
        parents = {s.parent_id for s in col.spans if s.parent_id is not None}
        leaves = [s for s in col.spans
                  if s.span_id not in parents and s.duration > 0]
        assert leaves
        by_span: dict = {}
        for r in tracer.records:
            by_span.setdefault(r.span_id, []).append(r)
        checked = 0
        for span in leaves:
            recs = by_span.get(span.span_id)
            if not recs:
                continue
            total = sum(r.total for r in recs)
            assert total == pytest.approx(span.duration, rel=1e-9, abs=1e-12)
            checked += 1
        # The identity must actually cover the workload, not a corner.
        assert checked >= len(leaves) * 0.9

    def test_p99_blame_equals_the_fold_over_every_record(self, run):
        """``diagnose`` folds only the p99 path's records; its blame is
        the one a fold over every record gives, float for float."""
        from repro.sim.doctor import _p99_root
        from repro.sim.spans import critical_path

        everything: dict = {}
        for r in run.tracer.records:
            d = everything.setdefault(r.span_id, {})
            d[r.resource] = d.get(r.resource, 0.0) + r.total
        root = _p99_root(run.collector.roots())
        path = critical_path([s for s in run.collector.spans
                              if s.trace_id == root.trace_id])
        hop: dict = {}
        for s in path:
            for res, secs in everything.get(s.span_id, {}).items():
                hop[res] = hop.get(res, 0.0) + secs
        want = [{"resource": k, "seconds": v}
                for k, v in sorted(hop.items(), key=lambda kv: (-kv[1], kv[0]))]
        assert want
        assert self._diagnose(run).p99["blame"] == want

    def _diagnose(self, run):
        return diagnose(run.result, run.collector, run.tracer,
                        stations=run.stations, slos=(), label="fig5-ci")


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

class TestDoctorCli:
    def test_doctor_quick_writes_artifacts(self, tmp_path, capsys):
        from repro.bench.cli import main

        from repro.sim.chrometrace import validate_chrome_trace

        jout = tmp_path / "doctor.json"
        flame = tmp_path / "flame.txt"
        trace = tmp_path / "trace.json"
        code = main(["doctor", "--quick", "--runtime", "0.004", "--jobs", "4",
                     "--slo", "p99<=1s", "--json-out", str(jout),
                     "--flame", str(flame), "--wait-flame",
                     str(tmp_path / "wait.txt"), "--perfetto", str(trace)])
        assert code == 0
        doc = json.loads(jout.read_text())
        assert doc["format"] == "repro-doctor-v1"
        assert doc["slo"]["rules"][0]["ok"]
        assert flame.read_text().strip()
        chrome = json.loads(trace.read_text())
        assert validate_chrome_trace(chrome) == []
        assert chrome["otherData"]["n_spans"] > 0
        assert chrome["otherData"]["n_counter_tracks"] > 0
        out = capsys.readouterr().out
        assert "verdict: bottleneck:" in out
        # The latency breakdown gains the per-resource blame column.
        assert "waiting on" in out
        assert "dpu.arm_rx" in out

    def test_doctor_slo_violation_exits_nonzero(self, tmp_path):
        from repro.bench.cli import main

        code = main(["doctor", "--quick", "--runtime", "0.004", "--jobs", "4",
                     "--slo", "p99<=1us"])
        assert code == 1
