"""Unit tests for the continuous telemetry bus (sim/timeseries.py)."""

import pytest

from repro.sim import Environment, Probe, Sampler, TimeSeries
from repro.sim.timeseries import GAUGE, RATE, UTILIZATION
from tests.reference import window_mean

INF = float("inf")


# ---------------------------------------------------------------------------
# TimeSeries: bounded buffer + exact downsampling
# ---------------------------------------------------------------------------

def test_timeseries_rejects_bad_capacity():
    with pytest.raises(ValueError):
        TimeSeries("x", capacity=3)
    with pytest.raises(ValueError):
        TimeSeries("x", capacity=7)  # odd
    with pytest.raises(ValueError):
        TimeSeries("x", capacity=2)


def test_timeseries_basic_points_and_views():
    ts = TimeSeries("x", capacity=8)
    ts.append(1.0, 1.0, 10.0)
    ts.append(2.0, 1.0, 20.0)
    assert len(ts) == 2
    assert ts.points() == [(1.0, 1.0, 10.0), (2.0, 1.0, 20.0)]
    assert ts.values() == [10.0, 20.0]
    assert ts.points()[0][0] - ts.points()[0][1] == 0.0
    assert ts.t_last == 2.0
    assert ts.max() == 20.0
    assert ts.min() == 10.0


def test_timeseries_zero_width_windows_dropped():
    ts = TimeSeries("x", capacity=8)
    ts.append(1.0, 0.0, 99.0)
    ts.append(1.0, -1.0, 99.0)
    assert len(ts) == 0
    assert window_mean(ts, -INF, INF) == 0.0


def test_timeseries_stays_bounded_forever():
    ts = TimeSeries("x", capacity=8)
    for i in range(10_000):
        ts.append(float(i + 1), 1.0, float(i % 7))
    assert len(ts) < ts.capacity
    assert ts.merges > 0
    # Still covers the whole run.
    t_end, dt, _ = ts.points()[0]
    assert t_end - dt == pytest.approx(0.0)
    assert ts.t_last == pytest.approx(10_000.0)


def test_downsampling_preserves_time_weighted_mean_exactly():
    """Pairwise duration-weighted merging must not move the overall mean."""
    import math

    ts = TimeSeries("sine", capacity=16)
    n = 4096
    raw_area = 0.0
    for i in range(n):
        v = math.sin(i / 50.0) + 2.0
        ts.append((i + 1) * 0.5, 0.5, v)
        raw_area += v * 0.5
    assert ts.merges >= 8  # heavily downsampled
    assert len(ts) < 16
    assert window_mean(ts, -INF, INF) == pytest.approx(raw_area / (n * 0.5),
                                                    rel=1e-12)


def test_downsampling_preserves_windowed_means_within_resolution():
    """Sub-range means survive at the coarsened window resolution."""
    ts = TimeSeries("step", capacity=64)
    # 0 for the first half of the run, 1 for the second half.
    n = 2048
    for i in range(n):
        ts.append(float(i + 1), 1.0, 0.0 if i < n // 2 else 1.0)
    assert ts.merges > 0
    assert window_mean(ts, -INF, INF) == pytest.approx(0.5, rel=1e-12)
    # Each half, queried as a window, is still ~pure (one merged window
    # may straddle the step).
    dt_max = max(dt for _, dt, _ in ts.points())
    assert window_mean(ts, 0.0, n / 2) <= dt_max / (n / 2)
    assert window_mean(ts, n / 2, float(n)) >= 1.0 - dt_max / (n / 2)


def test_time_weighted_mean_pro_rata_clipping():
    """The whole series weighs each window by its width; the sub-window
    reference the tests query clips straddling windows pro rata."""
    ts = TimeSeries("x", capacity=8)
    ts.append(1.0, 1.0, 0.0)
    ts.append(3.0, 2.0, 10.0)
    assert window_mean(ts, -INF, INF) == pytest.approx(20.0 / 3.0)
    # Window [0.5, 1.5] takes half of the first sample, a quarter of the
    # second's span.
    assert window_mean(ts, 0.5, 1.5) == pytest.approx(5.0)
    # Degenerate / out-of-range windows.
    assert window_mean(ts, 5.0, 6.0) == 0.0
    assert window_mean(ts, 1.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# Probe
# ---------------------------------------------------------------------------

def test_probe_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Probe("x", lambda: 0.0, kind="bogus")


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

def test_sampler_rejects_bad_interval_and_duplicates():
    env = Environment()
    with pytest.raises(ValueError):
        Sampler(env, interval=0.0)
    s = Sampler(env, interval=0.1)
    s.add_probe("a", lambda: 0.0)
    with pytest.raises(ValueError):
        s.add_probe("a", lambda: 0.0)


def test_sampler_gauge_and_cumulative_kinds():
    env = Environment()
    s = Sampler(env, interval=1.0)
    state = {"level": 0.0, "total": 0.0, "busy": 0.0}
    s.add_probe("lvl", lambda: state["level"], kind=GAUGE)
    s.add_probe("rate", lambda: state["total"], kind=RATE)
    s.add_probe("util", lambda: state["busy"], kind=UTILIZATION)
    s.start()

    def driver(env):
        for _ in range(5):
            state["level"] += 1.0
            state["total"] += 100.0    # 100 units per 1 s window
            state["busy"] += 0.5       # 50% busy per window
            yield env.timeout(1.0)

    env.process(driver(env))
    env.run(until=5.5)
    s.stop()
    assert s.ticks == 5
    assert s.series["lvl"].values() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(v == pytest.approx(100.0) for v in s.series["rate"].values())
    assert all(v == pytest.approx(0.5) for v in s.series["util"].values())


def test_probe_added_while_sampling_counts_from_its_join():
    """A cumulative probe joining a running sampler is primed at once:
    its first window holds what happened after it joined, not its total."""
    env = Environment()
    s = Sampler(env, interval=1.0)
    s.start()
    state = {"busy": 7.0}  # already accumulated before the probe joined

    def driver(env):
        yield env.timeout(0.5)
        s.add_probe("late", lambda: state["busy"], kind=UTILIZATION)
        state["busy"] += 0.25  # busy within [0.5, 1.0)
        yield env.timeout(1.0)
        state["busy"] += 0.5

    env.process(driver(env))
    env.run(until=2.5)
    s.stop()
    assert s.series["late"].values() == [0.25, 0.5]


def test_sampler_never_started_costs_nothing():
    """A constructed-but-unstarted sampler schedules no events at all."""
    env = Environment()
    s = Sampler(env, interval=1e-6)
    s.add_probe("x", lambda: 1.0)

    def work(env):
        yield env.timeout(1.0)
        return 42

    p = env.process(work(env))
    env.run(until=p)
    assert p.value == 42
    assert s.ticks == 0
    assert len(s.series["x"]) == 0


def test_sampler_disabled_is_bit_identical():
    """Attaching the full probe set must not change simulated results."""
    from repro.bench.campaign import normalize_cell, run_cell

    cell = {"transport": "tcp", "client": "dpu", "rw": "randread",
            "bs": 4096, "numjobs": 4, "runtime": 0.005}
    bare = run_cell(normalize_cell(dict(cell, observe=False))).result.to_dict()
    observed = run_cell(normalize_cell(cell), observe_sampler=True)
    doc = observed.result.to_dict()
    # Only the doctored run records per-op latency; everything else agrees.
    assert doc.pop("latency") and not bare.pop("latency")
    assert doc == bare
    assert observed.sampler.ticks > 0  # the telemetry genuinely ran


def test_sampler_stop_parks_the_process():
    env = Environment()
    s = Sampler(env, interval=0.1)
    s.add_probe("x", lambda: 1.0)
    s.start()
    env.run(until=0.35)
    assert s.ticks == 3
    s.stop()
    env.run(until=2.0)
    assert s.ticks == 4  # one final tick, then parked
