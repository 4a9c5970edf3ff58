"""Unit tests for repro.sim.monitor."""

import pytest

from repro.sim import Environment, LatencyRecorder, RateMeter


def test_rate_meter_reports_rates():
    env = Environment()
    r = RateMeter(env, "io")

    def proc(env):
        for _ in range(10):
            yield env.timeout(0.1)
            r.record(nbytes=4096)

    env.process(proc(env))
    env.run()
    assert r.ops == 10
    assert r.ops_per_sec() == pytest.approx(10.0)
    assert r.bytes_per_sec() == pytest.approx(40960.0)


def test_rate_meter_reset_starts_new_window():
    env = Environment()
    r = RateMeter(env, "io")

    def proc(env):
        r.record()
        yield env.timeout(1)
        r.reset()
        for _ in range(4):
            yield env.timeout(0.5)
            r.record()

    env.process(proc(env))
    env.run()
    assert r.ops == 4
    assert r.ops_per_sec() == pytest.approx(2.0)


def test_rate_meter_zero_window():
    env = Environment()
    r = RateMeter(env, "io")
    assert r.ops_per_sec() == 0.0
    assert r.bytes_per_sec() == 0.0


def test_latency_recorder_summary():
    rec = LatencyRecorder("lat")
    for v in [1.0, 2.0, 3.0, 4.0]:
        rec.record(v)
    s = rec.summary()
    assert s["count"] == 4
    assert s["mean"] == pytest.approx(2.5)
    assert s["max"] == 4.0
    assert s["p50"] == pytest.approx(2.5)


def test_latency_recorder_empty_summary():
    rec = LatencyRecorder("lat")
    s = rec.summary()
    assert s["count"] == 0
    assert s["mean"] == 0.0


def test_latency_recorder_disabled():
    rec = LatencyRecorder("lat", enabled=False)
    rec.record(1.0)
    assert len(rec) == 0


# ---------------------------------------------------------------------------
# LatencyRecorder.merge
# ---------------------------------------------------------------------------

def test_merge_unspilled_equals_single_recorder():
    a = LatencyRecorder("a")
    b = LatencyRecorder("b")
    one = LatencyRecorder("one")
    for i, x in enumerate([1e-3, 2e-3, 5e-4, 8e-3, 3e-3, 1e-4]):
        (a if i % 2 == 0 else b).record(x)
        one.record(x)
    a.merge(b)
    sa, so = a.summary(), one.summary()
    assert sa["count"] == so["count"] == 6
    for key in ("mean", "p50", "p95", "p99", "p999", "max"):
        assert sa[key] == pytest.approx(so[key])
    assert len(b) == 3  # other side untouched


def test_merge_property_vs_single_recorder():
    """Any split of a sample stream merges back to the same distribution."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-7, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=60),
        cut=st.integers(min_value=0, max_value=60),
    )
    def check(samples, cut):
        cut = min(cut, len(samples))
        a = LatencyRecorder("a")
        b = LatencyRecorder("b")
        one = LatencyRecorder("one")
        for x in samples[:cut]:
            a.record(x)
            one.record(x)
        for x in samples[cut:]:
            b.record(x)
            one.record(x)
        a.merge(b)
        sa, so = a.summary(), one.summary()
        assert sa == so and sa["count"] == len(samples)

    check()


# ---------------------------------------------------------------------------
# Exact summary: pure Python, bit for bit NumPy's mean and percentile
# ---------------------------------------------------------------------------

#: Every size up to 300 crosses the 8-way unroll and the 128-element
#: pairwise block; the rest straddle larger split points and NumPy's
#: 8,192-element buffer.
SUMMARY_SIZES = (list(range(1, 301)) +
                 [1023, 1024, 1025, 8191, 8192, 8193, 16000, 16383, 16385,
                  65535, 65536, 70000])


def _numpy_summary(samples):
    import numpy as np

    arr = np.asarray(samples, dtype=np.float64)
    return [float(arr.mean())] + [
        float(p) for p in np.percentile(arr, (50, 95, 99, 99.9))]


@pytest.mark.parametrize("ties", [False, True])
def test_mean_and_percentile_match_numpy_bit_for_bit(ties):
    import random

    from repro.sim.monitor import mean, percentile

    r = random.Random(1 + ties)
    for n in SUMMARY_SIZES:
        samples = [r.lognormvariate(-9, 1.5) for _ in range(n)]
        if ties:  # microsecond-quantized latencies repeat
            samples = [round(x, 5) for x in samples]
        ordered = sorted(samples)
        got = [mean(samples)] + [percentile(ordered, q)
                                 for q in (50, 95, 99, 99.9)]
        assert got == _numpy_summary(samples), n


def test_recorder_summary_matches_numpy():
    import random

    r = random.Random(3)
    for n in (1, 9, 129, 8193, 65535):
        rec = LatencyRecorder("lat")
        samples = [r.expovariate(1e4) for _ in range(n)]
        for x in samples:
            rec.record(x)
        s = rec.summary()
        assert s["count"] == n and s["max"] == max(samples)
        assert [s[k] for k in ("mean", "p50", "p95", "p99", "p999")] == \
            _numpy_summary(samples)


def test_recorder_summary_is_exact_past_65536_samples():
    # Long runs keep every sample: no bucketed approximation past any
    # sample count.
    import random

    from repro.sim.monitor import mean, percentile

    r = random.Random(4)
    samples = [r.lognormvariate(-9, 1.5) for _ in range(70_000)]
    rec = LatencyRecorder("lat")
    for x in samples:
        rec.record(x)
    ordered = sorted(samples)
    assert rec.summary() == {
        "count": 70_000, "mean": mean(samples),
        "p50": percentile(ordered, 50), "p95": percentile(ordered, 95),
        "p99": percentile(ordered, 99), "p999": percentile(ordered, 99.9),
        "max": ordered[-1]}


def test_recorder_keeps_a_sample_in_8_bytes():
    # 8 MB per million IOs (DESIGN §9); a list of floats costs ~32 B.
    import tracemalloc

    rec = LatencyRecorder("lat")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(100_000):
            rec.record(i * 1e-9)
        per_sample = (tracemalloc.get_traced_memory()[0] - before) / 100_000
    finally:
        tracemalloc.stop()
    assert per_sample <= 8.5
