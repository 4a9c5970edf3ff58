"""Unit tests for the NVMe device and array models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.nvme import NvmeArray, NvmeDevice
from repro.hw.specs import GIB, KIB, MIB, NVME_SSD
from repro.sim import Environment


def drive(env, gen):
    """Run a generator to completion as a process and return its process."""
    return env.process(gen)


def test_single_read_latency_and_service():
    env = Environment()
    dev = NvmeDevice(env, NVME_SSD)
    done = []

    def io(env):
        yield from dev.submit(MIB, is_write=False)
        done.append(env.now)

    env.process(io(env))
    env.run()
    expected = MIB / NVME_SSD.read_bw + NVME_SSD.read_latency
    assert done[0] == pytest.approx(expected)


def test_large_reads_saturate_bandwidth():
    env = Environment()
    dev = NvmeDevice(env, NVME_SSD)
    n = 64

    def job(env):
        for _ in range(n):
            yield from dev.submit(MIB, is_write=False)

    env.process(job(env))
    env.process(job(env))
    env.run()
    total = 2 * n * MIB
    achieved = total / env.now
    # Two concurrent jobs must pin the device at its raw read bandwidth.
    assert achieved == pytest.approx(NVME_SSD.read_bw, rel=0.02)


def test_write_bandwidth_lower_than_read():
    def run(is_write):
        env = Environment()
        dev = NvmeDevice(env, NVME_SSD)

        def job(env):
            for _ in range(32):
                yield from dev.submit(MIB, is_write=is_write)

        env.process(job(env))
        env.run()
        return env.now

    assert run(True) > run(False)  # writes are slower


def test_small_io_hits_iops_cap():
    env = Environment()
    dev = NvmeDevice(env, NVME_SSD)
    # Enough concurrent submitters to saturate the media (each job is a
    # sync loop paying the 78us access latency, so ~13K IOPS per job).
    n_jobs, per_job = 96, 200

    def job(env):
        for _ in range(per_job):
            yield from dev.submit(4 * KIB, is_write=False)

    for _ in range(n_jobs):
        env.process(job(env))
    env.run()
    iops = n_jobs * per_job / env.now
    assert iops == pytest.approx(NVME_SSD.read_iops_cap, rel=0.05)


def test_bw_efficiency_inflates_bandwidth_term_only():
    env = Environment()
    dev = NvmeDevice(env, NVME_SSD)
    done = []

    def io(env):
        yield from dev.submit(MIB, is_write=False, bw_efficiency=0.5)
        done.append(env.now)

    env.process(io(env))
    env.run()
    expected = MIB / (NVME_SSD.read_bw * 0.5) + NVME_SSD.read_latency
    assert done[0] == pytest.approx(expected)


def test_invalid_args_rejected():
    env = Environment()
    dev = NvmeDevice(env, NVME_SSD)
    with pytest.raises(ValueError):
        list(dev.submit(0, False))
    with pytest.raises(ValueError):
        list(dev.submit(4096, False, bw_efficiency=0.0))
    with pytest.raises(ValueError):
        list(dev.submit(4096, False, bw_efficiency=1.5))


def test_meters_track_reads_and_writes():
    env = Environment()
    dev = NvmeDevice(env, NVME_SSD)

    def io(env):
        yield from dev.submit(4 * KIB, is_write=False)
        yield from dev.submit(8 * KIB, is_write=True)

    env.process(io(env))
    env.run()
    assert dev.reads.ops == 1 and dev.reads.bytes == 4 * KIB
    assert dev.writes.ops == 1 and dev.writes.bytes == 8 * KIB


# ---------------------------------------------------------------------------
# NvmeArray
# ---------------------------------------------------------------------------

def test_array_striping_round_robin():
    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=4, stripe_bytes=MIB)
    assert arr.device_for(0).index == 0
    assert arr.device_for(MIB).index == 1
    assert arr.device_for(4 * MIB).index == 0
    assert arr.device_for(5 * MIB + 17).index == 1


def test_array_split_within_one_stripe():
    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=4)
    pieces = arr.split(0, 4 * KIB)
    assert len(pieces) == 1
    assert pieces[0][1] == 4 * KIB


def test_array_split_across_stripes():
    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=2, stripe_bytes=MIB)
    pieces = arr.split(MIB - 4 * KIB, 8 * KIB)
    assert [(d.index, n) for d, n in pieces] == [(0, 4 * KIB), (1, 4 * KIB)]


def test_array_bandwidth_scales_with_devices():
    def run(n_dev):
        env = Environment()
        arr = NvmeArray(env, NVME_SSD, n_devices=n_dev)

        def job(env, start):
            off = start * MIB
            for i in range(32):
                yield from arr.submit(off + i * MIB, MIB, is_write=False)

        # Start offsets spread jobs evenly across the stripe set so the
        # array is uniformly loaded from t=0 (no startup convoy).
        for j in range(2 * n_dev):
            env.process(job(env, j))
        env.run()
        return 2 * n_dev * 32 * MIB / env.now

    bw1, bw4 = run(1), run(4)
    assert bw4 / bw1 == pytest.approx(4.0, rel=0.05)


def test_array_single_device_validation():
    env = Environment()
    with pytest.raises(ValueError):
        NvmeArray(env, NVME_SSD, n_devices=0)
    with pytest.raises(ValueError):
        NvmeArray(env, NVME_SSD, n_devices=2, stripe_bytes=0)


def test_array_total_counters():
    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=2)

    def io(env):
        yield from arr.submit(0, 2 * MIB, is_write=False)  # spans both devices
        yield from arr.submit(0, 4 * KIB, is_write=True)

    env.process(io(env))
    env.run()
    assert arr.total_bytes_read() == 2 * MIB
    assert arr.total_bytes_written() == 4 * KIB


def test_array_capacity():
    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=4)
    assert arr.capacity_bytes == 4 * NVME_SSD.capacity_bytes
    # The paper's server exposes ~6.4 TB across 4 drives.
    assert arr.capacity_bytes == pytest.approx(6.4e12, rel=0.01)


# ---------------------------------------------------------------------------
# The inline join of a split I/O
# ---------------------------------------------------------------------------

def _run_submitters(ios, n_devices, inline, traced):
    """``inline=False`` passes a span, which selects the reference join: a
    process per piece, as every traced I/O runs it."""
    from repro.sim.spans import SpanCollector
    from repro.sim.waits import WaitTracer

    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=n_devices, stripe_bytes=64 * KIB)
    tracer = WaitTracer(env).install() if traced else None
    collector = SpanCollector(env)
    woke = {}

    def submitter(env, i, t0, offset, nbytes, is_write):
        yield env.timeout(t0)
        span = None if inline else collector.trace("io").root
        yield from arr.submit(offset, nbytes, is_write, trace=span)
        woke[i] = env.now

    for i, io in enumerate(ios):
        env.process(submitter(env, i, *io))
    env.run()
    devices = [(d._server.busy_time, d._server.ops, d._server._free_at,
                d.reads.ops, d.reads.bytes, d.writes.ops, d.writes.bytes)
               for d in arr.devices]
    aggregates = None
    if tracer is not None:
        aggregates = {k: v.to_dict() for k, v in tracer.aggregates.items()}
    return woke, devices, aggregates


_io = st.tuples(
    st.sampled_from([0.0, 1e-4, 1e-3 / 3]),            # start instant
    st.integers(0, 40).map(lambda k: k * 16 * KIB - 4 * KIB * (k % 3)),
    st.integers(1, 40).map(lambda k: k * 12 * KIB),    # straddles 64 KiB stripes
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(ios=st.lists(_io, min_size=1, max_size=8),
       n_devices=st.integers(1, 4), traced=st.booleans())
def test_inline_join_matches_a_process_per_piece(ios, n_devices, traced):
    """Wake instants, device state, meters and tracer aggregates are
    bit-identical to the reference join, for one I/O per submitter at
    equal and distinct instants (later I/Os would start at a join's wake
    instant, whose same-instant order the inline join does not keep)."""
    ios = [(t0, max(off, 0), n, w) for t0, off, n, w in ios]
    assert (_run_submitters(ios, n_devices, True, traced)
            == _run_submitters(ios, n_devices, False, traced))


def test_a_two_piece_io_costs_one_event():
    counts = {}
    for nbytes in (0, 8 * KIB):
        env = Environment()
        arr = NvmeArray(env, NVME_SSD, n_devices=2, stripe_bytes=MIB)

        def io(env):
            if nbytes:
                yield from arr.submit(MIB - 4 * KIB, nbytes, is_write=True)

        env.process(io(env))
        env.run()
        counts[nbytes] = env.events_processed
    assert counts[8 * KIB] - counts[0] == 1


@pytest.mark.parametrize("second", [4 * KIB, 64 * KIB])
def test_split_io_span_gets_the_record_of_the_piece_it_waited_for(second):
    """One RESERVE record, for the last piece to finish (the first one on
    a tie); the span's records sum to its duration."""
    from repro.sim.spans import SpanCollector
    from repro.sim.waits import WaitTracer

    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=2, stripe_bytes=MIB)
    tracer = WaitTracer(env).install()
    col = SpanCollector(env)
    spans = []

    def io(env):
        yield env.timeout(1e-3 / 3)
        span = col.trace("io").root.child("media.nvme")
        yield from arr.submit(MIB - 4 * KIB, 4 * KIB + second, is_write=False)
        spans.append(span.finish())

    env.process(io(env))
    env.run()
    (span,) = spans
    (rec,) = tracer.records_for_span(span.span_id)
    assert rec.resource == ("nvme.ssd0" if second == 4 * KIB else "nvme.ssd1")
    assert rec.total == pytest.approx(span.duration, rel=1e-12)
    assert tracer.aggregates["nvme.ssd0"].count == 1
    assert tracer.aggregates["nvme.ssd1"].count == 1


def test_traced_and_faulted_split_ios_keep_a_process_per_piece():
    from repro.faults.plan import FaultPlan
    from repro.sim.spans import SpanCollector

    for mode in ("trace", "faults"):
        env = Environment()
        if mode == "faults":
            FaultPlan([]).install(env)
        arr = NvmeArray(env, NVME_SSD, n_devices=2, stripe_bytes=MIB)
        trace = SpanCollector(env).trace("io").root if mode == "trace" else None

        def io(env):
            yield from arr.submit(MIB - 4 * KIB, 8 * KIB, is_write=False,
                                  trace=trace)

        env.process(io(env))
        env.run()
        # Init, then 2 piece starts, 2 device wake-ups, 2 piece ends, 1 join.
        assert env.events_processed == 8, mode


def test_station_recorder_keeps_the_inline_join():
    """A recorder only watches: the join, its event and its booking stay.

    The caller's open span keeps the RESERVE record of the piece it waited
    for, so a doctored run with its sampler on blames the same devices.
    """
    from repro.sim.spans import SpanCollector
    from repro.sim.timeseries import StationStats
    from repro.sim.waits import WaitTracer

    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=2, stripe_bytes=MIB)
    stats = [StationStats(dev.name) for dev in arr.devices]
    for dev, st in zip(arr.devices, stats):
        dev.attach_stats(st)
    tracer = WaitTracer(env).install()
    col = SpanCollector(env)
    spans = []

    def io(env):
        span = col.trace("io").root.child("media.nvme")
        yield from arr.submit(MIB - 4 * KIB, 8 * KIB, is_write=False)
        spans.append(span.finish())

    env.process(io(env))
    env.run()
    # Init, then the caller's one wake-up.
    assert env.events_processed == 2
    (rec,) = tracer.records_for_span(spans[0].span_id)
    assert rec.resource == "nvme.ssd0"
    assert [st.arrivals for st in stats] == [1, 1]
