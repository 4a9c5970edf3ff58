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


def test_merge_spills_when_crossing_threshold():
    a = LatencyRecorder("a", spill_threshold=8)
    b = LatencyRecorder("b", spill_threshold=8)
    for i in range(5):
        a.record(1e-3 * (i + 1))
        b.record(2e-3 * (i + 1))
    a.merge(b)
    assert a.spilled
    assert a.summary()["count"] == 10


def test_merge_spilled_sides_exact_counts():
    a = LatencyRecorder("a", spill_threshold=4)
    b = LatencyRecorder("b", spill_threshold=4)
    for i in range(10):
        a.record(1e-4 * (i + 1))
    for i in range(7):
        b.record(5e-4 * (i + 1))
    assert a.spilled and b.spilled
    a.merge(b)
    s = a.summary()
    assert s["count"] == 17
    assert s["max"] == pytest.approx(3.5e-3)


def test_merge_mixed_spilled_and_exact():
    a = LatencyRecorder("a", spill_threshold=4)
    b = LatencyRecorder("b")  # stays exact
    for i in range(6):
        a.record(1e-4 * (i + 1))
    b.record(9e-3)
    a.merge(b)
    s = a.summary()
    assert s["count"] == 7
    assert s["max"] == pytest.approx(9e-3)


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
        threshold=st.sampled_from([4, 16, 100000]),
    )
    def check(samples, cut, threshold):
        cut = min(cut, len(samples))
        a = LatencyRecorder("a", spill_threshold=threshold)
        b = LatencyRecorder("b", spill_threshold=threshold)
        one = LatencyRecorder("one", spill_threshold=threshold)
        for x in samples[:cut]:
            a.record(x)
            one.record(x)
        for x in samples[cut:]:
            b.record(x)
            one.record(x)
        a.merge(b)
        sa, so = a.summary(), one.summary()
        assert sa["count"] == so["count"] == len(samples)
        # Exact path: identical percentiles.  Spilled path: same bucket
        # geometry on both sides, so summaries still agree exactly.
        for key in ("mean", "p50", "p95", "p99", "p999", "max"):
            assert sa[key] == pytest.approx(so[key], rel=1e-9)

    check()
