"""Unit tests for patterns, the FIO driver, and the LLM workload models."""

import pytest

from repro.hw import make_paper_testbed
from repro.hw.specs import GIB, GPU_GENERATIONS, KIB, MIB, NVME_SSD
from repro.sim import Environment, RngStreams
from repro.storage import BlockDevice, IoUringEngine
from repro.workload import (
    FioJobSpec,
    LlmIngestModel,
    RandomPattern,
    SequentialPattern,
    run_fio,
)
from repro.workload.fio import WORKLOADS


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

def test_sequential_pattern_walks_and_wraps():
    p = SequentialPattern(1000, 30, 10)
    assert [p.next() for _ in range(4)] == [1000, 1010, 1020, 1000]


def test_sequential_pattern_truncates_partial_block():
    p = SequentialPattern(0, 25, 10)  # only 2 whole blocks
    assert [p.next() for _ in range(3)] == [0, 10, 0]


def test_sequential_pattern_validation():
    with pytest.raises(ValueError):
        SequentialPattern(0, 5, 10)
    with pytest.raises(ValueError):
        SequentialPattern(0, 10, 0)


def test_random_pattern_aligned_and_bounded():
    rng = RngStreams(1).stream("t")
    p = RandomPattern(4096, 1 * MIB, 4 * KIB, rng)
    for _ in range(3000):  # crosses a batch refill
        off = p.next()
        assert 4096 <= off < 4096 + MIB
        assert (off - 4096) % (4 * KIB) == 0


def test_random_pattern_deterministic_per_seed():
    a = RandomPattern(0, MIB, 4096, RngStreams(9).stream("x"))
    b = RandomPattern(0, MIB, 4096, RngStreams(9).stream("x"))
    assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]


# ---------------------------------------------------------------------------
# FioJobSpec
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        FioJobSpec(rw="trim")
    with pytest.raises(ValueError):
        FioJobSpec(bs=0)
    with pytest.raises(ValueError):
        FioJobSpec(runtime=0)
    with pytest.raises(ValueError):
        FioJobSpec(size=100, bs=4096)


def test_spec_classification():
    assert FioJobSpec(rw="write").is_write
    assert not FioJobSpec(rw="randread").is_write
    assert FioJobSpec(rw="randwrite").is_random
    assert not FioJobSpec(rw="read").is_random
    assert set(WORKLOADS) == {"read", "write", "randread", "randwrite"}


# ---------------------------------------------------------------------------
# run_fio against the local io_uring engine
# ---------------------------------------------------------------------------

def local_engine(n_ssds=1):
    env = Environment()
    top = make_paper_testbed(env, n_ssds=n_ssds)
    return env, IoUringEngine(top.server, BlockDevice(top.server.nvme))


def test_run_fio_reports_sane_result():
    env, engine = local_engine()
    spec = FioJobSpec(rw="read", bs=MIB, numjobs=1, iodepth=8,
                      runtime=0.03, ramp_time=0.005)
    result = run_fio(env, engine, spec)
    assert result.total_ios > 0
    assert result.iops == pytest.approx(result.total_ios / result.elapsed)
    assert result.bandwidth == pytest.approx(result.iops * MIB)
    assert "read" in str(result)


def test_run_fio_latency_summary():
    env, engine = local_engine()
    spec = FioJobSpec(rw="randread", bs=4 * KIB, numjobs=1, iodepth=4,
                      runtime=0.02, ramp_time=0.002, record_latency=True)
    result = run_fio(env, engine, spec)
    assert result.latency["count"] == result.total_ios
    assert 0 < result.latency["p50"] <= result.latency["p99"]


def test_run_fio_measures_only_the_window():
    env, engine = local_engine()
    spec = FioJobSpec(rw="read", bs=MIB, numjobs=1, iodepth=4,
                      runtime=0.02, ramp_time=0.01)
    result = run_fio(env, engine, spec)
    assert result.elapsed == pytest.approx(spec.runtime, rel=0.01)


def test_run_fio_reproduces_fig3_read_plateau():
    env, engine = local_engine()
    result = run_fio(env, engine, FioJobSpec(
        rw="read", bs=MIB, numjobs=1, iodepth=8, runtime=0.03
    ))
    assert 5.0 < result.bandwidth_gib < 5.8  # the paper's 5-5.6 GiB/s band


def test_run_fio_units():
    env, engine = local_engine()
    r = run_fio(env, engine, FioJobSpec(rw="read", bs=MIB, numjobs=1,
                                        iodepth=4, runtime=0.02))
    assert r.bandwidth_gib == pytest.approx(r.bandwidth / 2**30)
    assert r.kiops == pytest.approx(r.iops / 1e3)


# ---------------------------------------------------------------------------
# LLM models
# ---------------------------------------------------------------------------

def test_ingest_model_formula():
    m = LlmIngestModel(gpus_per_node=8, samples_per_gpu_per_sec=200,
                       bytes_per_sample=2 * MIB)
    assert m.node_ingest_rate() == 8 * 200 * 2 * MIB


def test_ingest_model_multi_gib_per_node():
    """Paper: 'even conservative choices yield multi-GiB/s per node'."""
    assert LlmIngestModel().node_ingest_rate() > 2 * GIB


def test_generation_sweep_monotone():
    sweep = LlmIngestModel.generation_sweep()
    assert len(sweep) == len(GPU_GENERATIONS)
    rates = [rate for _, rate in sweep]
    assert rates == sorted(rates)
    # B200 demands far more than P100.
    assert rates[-1] / rates[0] > 100


def test_phase_specs_shapes():
    from repro.workload import CheckpointSpec, DataloaderSpec, ParameterLoadSpec

    specs = {"dataloader": DataloaderSpec().fio_spec(),
             "parameter_load": ParameterLoadSpec().fio_spec(),
             "checkpoint": CheckpointSpec().fio_spec()}
    assert specs["dataloader"].is_random and not specs["dataloader"].is_write
    assert not specs["parameter_load"].is_random
    assert specs["checkpoint"].is_write and not specs["checkpoint"].is_random
    assert specs["parameter_load"].bs == MIB


def test_checkpoint_required_rate():
    from repro.workload import CheckpointSpec

    spec = CheckpointSpec(state_bytes=600 * GIB, period_sec=600)
    assert spec.required_write_rate == pytest.approx(GIB)
