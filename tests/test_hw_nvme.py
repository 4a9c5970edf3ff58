"""Unit tests for the NVMe device and array models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.nvme import NvmeArray, NvmeDevice
from repro.hw.specs import GIB, KIB, MIB, NVME_SSD
from repro.sim import Environment
from tests.reference import process_per_piece_submit


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
    arr = NvmeArray(env, NVME_SSD, n_devices=4)
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
    arr = NvmeArray(env, NVME_SSD, n_devices=2)
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


def test_array_total_counters():
    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=2)

    def io(env):
        yield from arr.submit(0, 2 * MIB, is_write=False)  # spans both devices
        yield from arr.submit(0, 4 * KIB, is_write=True)

    env.process(io(env))
    env.run()
    assert sum(d.reads.bytes for d in arr.devices) == 2 * MIB
    assert sum(d.writes.bytes for d in arr.devices) == 4 * KIB


def test_array_capacity():
    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=4)
    assert arr.capacity_bytes == 4 * NVME_SSD.capacity_bytes
    # The paper's server exposes ~6.4 TB across 4 drives.
    assert arr.capacity_bytes == pytest.approx(6.4e12, rel=0.01)


# ---------------------------------------------------------------------------
# The inline join of a split I/O
# ---------------------------------------------------------------------------

_STRIPE = 64 * KIB


class _SmallStripeArray(NvmeArray):
    """An array striped at :data:`_STRIPE`, so small I/Os split."""

    __slots__ = ()
    STRIPE_BYTES = _STRIPE


def _run_submitters(ios, n_devices, reference, observe="plain",
                    faulted=False):
    """Run one I/O per submitter, ``(t0, offset, nbytes, is_write)``.

    ``reference`` submits through the process per piece instead of the
    production join.  ``observe`` is ``"plain"``, ``"tracer"`` (a wait
    tracer and no span, so nothing reaches it) or ``"spans"`` (a wait
    tracer, and a root span per I/O, the submitter's span while it
    runs).  ``faulted`` installs a latency spike on ``nvme.ssd0``
    and, overlapping its end, a media-error window on ``nvme.ssd1``.
    Returns every outcome both joins must agree on.
    """
    from repro.faults.errors import NvmeMediaError
    from repro.faults.plan import FaultEvent, FaultPlan
    from repro.sim.spans import SpanCollector
    from repro.sim.waits import WaitTracer

    env = Environment()
    arr = _SmallStripeArray(env, NVME_SSD, n_devices=n_devices)
    if faulted:
        FaultPlan([
            FaultEvent("nvme_latency_spike", "nvme.ssd0", 0.0, 5e-4, 8.0),
            FaultEvent("nvme_media_error", "nvme.ssd1", 3e-4, 1e-3),
        ]).install(env).arm(0.0)
    tracer = WaitTracer(env).install() if observe != "plain" else None
    collector = SpanCollector(env)
    submit = process_per_piece_submit if reference else NvmeArray.submit
    woke = {}

    def submitter(env, i, t0, offset, nbytes, is_write):
        yield env.timeout(t0)
        span = None
        if observe == "spans":
            span = collector.trace(f"io{i}").root
        try:
            yield from submit(arr, offset, nbytes, is_write)
            woke[i] = (env.now, None)
        except NvmeMediaError as exc:
            woke[i] = (env.now, type(exc), str(exc))
        if span is not None:
            span.finish()

    for i, io in enumerate(ios):
        env.process(submitter(env, i, *io))
    env.run()
    outcome = {
        "woke": woke,
        "devices": [(d._server.busy_time, d._server.ops, d._server._free_at,
                     d.reads.ops, d.reads.bytes, d.writes.ops, d.writes.bytes)
                    for d in arr.devices],
    }
    if tracer is not None:
        names = {s.span_id: s.name for s in collector.spans}
        outcome["records"] = [
            (r.resource, r.kind, r.wait, r.service, r.latency, r.t,
             r.stage) for r in tracer.records]
        outcome["spans"] = sorted(
            (s.name, s.node, s.nbytes, s.t_start, s.t_end,
             names.get(s.parent_id)) for s in collector.spans)
    return outcome


_io = st.tuples(
    st.sampled_from([0.0, 1e-4, 1e-3 / 3, 2e-3]),      # start instant
    st.integers(0, 40).map(lambda k: k * 16 * KIB - 4 * KIB * (k % 3)),
    st.integers(1, 40).map(lambda k: k * 12 * KIB),    # straddles 64 KiB stripes
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(ios=st.lists(_io, min_size=1, max_size=8),
       n_devices=st.integers(1, 4),
       observe=st.sampled_from(["plain", "tracer", "spans"]),
       faulted=st.booleans())
def test_inline_join_matches_a_process_per_piece(ios, n_devices, observe,
                                                 faulted):
    """Wake or raise instants, exceptions, each device's own counters and
    meters, records and ``nvme`` spans are bit-identical to the
    reference join, for one I/O per submitter at equal and distinct
    instants (later I/Os would start at a join's wake instant, whose
    same-instant order the inline join does not keep), traced or not,
    under a latency spike and a media error.  A faulted I/O spans at most
    one stripe per device: a second failing piece would end the
    reference's run."""
    ios = [(t0, max(off, 0), n, w) for t0, off, n, w in ios]
    if faulted:
        ios = [(t0, off, min(n, n_devices * _STRIPE - off % _STRIPE), w)
               for t0, off, n, w in ios]
    want = _run_submitters(ios, n_devices, True, observe, faulted)
    assert _run_submitters(ios, n_devices, False, observe, faulted) == want


def test_the_differential_join_covers_spans_and_media_errors():
    """The property above sees split I/Os traced, spiked and failed."""
    ios = [(0.0, 32 * KIB, 64 * KIB, False),      # spiked on ssd0
           (1e-3 / 3, 32 * KIB, 64 * KIB, True),  # ssd1 fails, ssd0 spiked
           (2e-3, 32 * KIB, 64 * KIB, False)]     # after both windows
    got = _run_submitters(ios, 2, False, "spans", True)
    assert got == _run_submitters(ios, 2, True, "spans", True)
    assert [w[1] is None for _i, w in sorted(got["woke"].items())] \
        == [True, False, True]
    assert sum(1 for s in got["spans"] if s[0] == "nvme") == 5
    assert got["woke"][1][0] == 1e-3 / 3


def test_a_two_piece_io_costs_one_event():
    counts = {}
    for nbytes in (0, 8 * KIB):
        env = Environment()
        arr = NvmeArray(env, NVME_SSD, n_devices=2)

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
    arr = NvmeArray(env, NVME_SSD, n_devices=2)
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
    (rec,) = [r for r in tracer.records if r.span_id == span.span_id]
    assert rec.resource == ("nvme.ssd0" if second == 4 * KIB else "nvme.ssd1")
    assert rec.total == pytest.approx(span.duration, rel=1e-12)
    assert [d.ops for d in arr.devices] == [1, 1]


def test_traced_and_faulted_split_ios_cost_one_event():
    """A span or a fault window selects no other path: a two-piece I/O
    is one wake-up, traced, spiked or with a plan and no window."""
    from repro.faults.plan import FaultEvent, FaultPlan
    from repro.sim.spans import SpanCollector

    for mode in ("trace", "faults", "spike"):
        env = Environment()
        if mode != "trace":
            events = [FaultEvent("nvme_latency_spike", "nvme.ssd1", 0.0,
                                 1.0, 4.0)] if mode == "spike" else []
            FaultPlan(events).install(env).arm(0.0)
        arr = NvmeArray(env, NVME_SSD, n_devices=2)
        collector = SpanCollector(env)
        base = env.events_processed

        def io(env):
            if mode == "trace":
                collector.trace("io")
            yield from arr.submit(MIB - 4 * KIB, 8 * KIB, is_write=False)

        env.process(io(env))
        env.run()
        # The plan's driver (when it has an event), init, the one wake-up.
        assert env.events_processed - base == 2 + (mode == "spike"), mode


def test_array_rejects_empty_or_negative_io_before_reserving():
    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=2)
    for offset, nbytes in ((0, 0), (4 * KIB, -1), (-4 * KIB, 8 * KIB)):
        with pytest.raises(ValueError):
            list(arr.submit(offset, nbytes, is_write=False))
    assert [d._server.ops for d in arr.devices] == [0, 0]


def test_station_recorder_keeps_the_inline_join():
    """Each device counts its piece of a split I/O in its own ``ops``,
    ``busy_time`` and read meter, sampled or not, and the join, its
    event and its booking stay.

    The caller's open span keeps the RESERVE record of the piece it waited
    for; an unsampled I/O books nothing.
    """
    from repro.sim.spans import SpanCollector
    from repro.sim.waits import WaitTracer

    env = Environment()
    arr = NvmeArray(env, NVME_SSD, n_devices=2)
    tracer = WaitTracer(env).install()
    col = SpanCollector(env)

    def counters():
        return [(d.ops, d.busy_time, d.reads.ops, d.reads.bytes)
                for d in arr.devices]

    spans = []

    def io(env):
        span = col.trace("io").root.child("media.nvme")
        yield from arr.submit(MIB - 4 * KIB, 8 * KIB, is_write=False)
        spans.append(span.finish())

    env.process(io(env))
    env.run()
    # Init, then the caller's one wake-up.
    assert env.events_processed == 2
    (rec,) = [r for r in tracer.records if r.span_id == spans[0].span_id]
    assert rec.resource == "nvme.ssd0"
    once = counters()
    assert [(ops, n, nbytes) for ops, _busy, n, nbytes in once] \
        == [(1, 1, 4 * KIB), (1, 1, 4 * KIB)]
    assert all(busy > 0.0 for _ops, busy, _n, _nbytes in once)

    def unsampled(env):
        yield from arr.submit(MIB - 4 * KIB, 8 * KIB, is_write=False)

    env.process(unsampled(env))
    env.run()
    # An I/O with no span open books no record, and still reaches both:
    # each device counts it exactly as it counted the sampled one.
    assert len(tracer.records) == 1
    assert counters() == [(2 * ops, 2 * busy, 2 * n, 2 * nbytes)
                          for ops, busy, n, nbytes in once]
