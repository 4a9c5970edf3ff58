"""Stack-wide tracing integration: spans survive RPC hops end to end.

These tests run real (short) Fig. 5 workloads through the instrumented
runner (:func:`~repro.bench.runner.run_fig5_doctored`) and assert the
properties the breakdown analysis relies on:

* trace ids survive the client → server RPC hop (server-side spans carry
  the same trace id as the FIO root that issued the request);
* the per-stage self times sum to the end-to-end latency within tolerance
  (sequential request shapes → coverage ~100%);
* the RDMA rendezvous path and the DPU-offloaded TCP path both emit their
  characteristic stages.
"""

import pytest

from repro.bench.runner import run_fig5_doctored
from repro.sim.spans import LatencyBreakdown, critical_path


def _by_trace(col):
    """Finished spans grouped by trace id."""
    out = {}
    for s in col.spans:
        out.setdefault(s.trace_id, []).append(s)
    return out


@pytest.fixture(scope="module")
def rdma_rendezvous_run():
    """64 KiB reads over verbs: every transfer takes the rendezvous path."""
    return run_fig5_doctored("rdma", "host", "read", 64 * 1024, 2,
                             runtime=0.01, sample_every=10,
                             observe_sampler=False).collector


@pytest.fixture(scope="module")
def dpu_tcp_run():
    """4 KiB randread through the DPU client: the paper's Fig. 5c bottom."""
    return run_fig5_doctored("tcp", "dpu", "randread", 4096, 16,
                             runtime=0.005, sample_every=50,
                             observe_sampler=False).collector


class TestRdmaRendezvousPropagation:
    def test_trace_ids_survive_rpc_hop(self, rdma_rendezvous_run):
        col = rdma_rendezvous_run
        complete = 0
        for tid, spans in _by_trace(col).items():
            assert all(s.trace_id == tid for s in spans)
            if not any(s.parent_id is None for s in spans):
                continue  # request still in flight when the run ended
            complete += 1
            nodes = {s.node for s in spans if s.node}
            # Client- and server-side spans under one trace id.
            assert "host" in nodes
            assert "storage" in nodes
        assert complete > 5

    def test_rendezvous_stages_present(self, rdma_rendezvous_run):
        col = rdma_rendezvous_run
        stages = {s.stage for s in col.spans}
        # 64 KiB > eager threshold: the server-side RDMA read shows up.
        assert "storage.rdma.rendezvous" in stages
        assert "rdma.dma" in stages
        assert "media.nvme" in stages

    def test_stages_sum_to_end_to_end(self, rdma_rendezvous_run):
        col = rdma_rendezvous_run
        bd = LatencyBreakdown(col.spans)
        assert bd.n_traces > 10
        assert bd.coverage() >= 0.95

    def test_critical_path_spans_both_nodes(self, rdma_rendezvous_run):
        col = rdma_rendezvous_run
        grouped = _by_trace(col)
        # A fully captured trace: root present and all spans closed.
        spans = next(v for v in grouped.values()
                     if any(s.parent_id is None for s in v))
        path = critical_path(spans)
        assert path[0].parent_id is None
        nodes = {s.node for s in path if s.node}
        assert {"host", "storage"} <= nodes


class TestDpuOffloadPropagation:
    def test_trace_ids_survive_rpc_hop(self, dpu_tcp_run):
        col = dpu_tcp_run
        complete = 0
        for tid, spans in _by_trace(col).items():
            assert all(s.trace_id == tid for s in spans)
            if not any(s.parent_id is None for s in spans):
                continue  # request still in flight when the run ended
            complete += 1
            nodes = {s.node for s in spans if s.node}
            assert "dpu" in nodes
            assert "storage" in nodes
        assert complete > 5

    def test_arm_rx_stage_dominates(self, dpu_tcp_run):
        col = dpu_tcp_run
        bd = LatencyBreakdown(col.spans)
        assert bd.coverage() >= 0.95
        # The paper's claim (Fig. 5c bottom / §4.4): the Arm TCP stack is
        # the bottleneck for the DPU client on small random reads.
        assert bd.shares()[0][0] == "dpu.arm_rx"
        shares = dict((k, share) for k, _t, share in bd.shares())
        assert shares["dpu.arm_rx"] > 0.5

    def test_sampling_honoured(self, dpu_tcp_run):
        col = dpu_tcp_run
        assert col.requests_seen > col.traces_started
        assert col.traces_started <= col.requests_seen // 50 + 1

    def test_root_nbytes_recorded(self, dpu_tcp_run):
        col = dpu_tcp_run
        for root in col.roots():
            assert root.nbytes == 4096
            assert root.name == "fio.randread"


def test_split_nvme_ios_are_attributed_to_their_media_span():
    """On a doctored 1 MiB RDMA read cell most reads straddle a stripe and
    split in two; every finished ``media.nvme`` span still decomposes into
    its wait records (the piece it waited for)."""
    from repro.hw.specs import MIB

    run = run_fig5_doctored("rdma", "dpu", "read", MIB, 8, runtime=0.05,
                            observe_sampler=False)
    booked = {}
    for rec in run.tracer.records:
        booked[rec.span_id] = booked.get(rec.span_id, 0.0) + rec.total
    spans = [s for s in run.collector.spans if s.name == "media.nvme"]
    assert len(spans) >= 10
    for s in spans:
        assert booked.get(s.span_id, 0.0) == pytest.approx(s.duration, rel=1e-9)
