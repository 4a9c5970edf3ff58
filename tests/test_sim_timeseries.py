"""Unit tests for the continuous telemetry bus (sim/timeseries.py)."""

import pytest

from repro.sim import Environment, Probe, Sampler, StationStats, TimeSeries
from repro.sim.timeseries import GAUGE, RATE, UTILIZATION


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
    assert ts.times() == [1.0, 2.0]
    assert ts.values() == [10.0, 20.0]
    assert ts.t_first == 0.0
    assert ts.t_last == 2.0
    assert ts.max() == 20.0
    assert ts.min() == 10.0


def test_timeseries_zero_width_windows_dropped():
    ts = TimeSeries("x", capacity=8)
    ts.append(1.0, 0.0, 99.0)
    ts.append(1.0, -1.0, 99.0)
    assert len(ts) == 0
    assert ts.time_weighted_mean() == 0.0


def test_timeseries_stays_bounded_forever():
    ts = TimeSeries("x", capacity=8)
    for i in range(10_000):
        ts.append(float(i + 1), 1.0, float(i % 7))
    assert len(ts) < ts.capacity
    assert ts.merges > 0
    # Still covers the whole run.
    assert ts.t_first == pytest.approx(0.0)
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
    assert ts.time_weighted_mean() == pytest.approx(raw_area / (n * 0.5),
                                                    rel=1e-12)


def test_downsampling_preserves_windowed_means_within_resolution():
    """Sub-range means survive at the coarsened window resolution."""
    ts = TimeSeries("step", capacity=64)
    # 0 for the first half of the run, 1 for the second half.
    n = 2048
    for i in range(n):
        ts.append(float(i + 1), 1.0, 0.0 if i < n // 2 else 1.0)
    assert ts.merges > 0
    assert ts.time_weighted_mean() == pytest.approx(0.5, rel=1e-12)
    # Each half, queried as a window, is still ~pure (one merged window
    # may straddle the step).
    dt_max = max(dt for _, dt, _ in ts.points())
    assert ts.time_weighted_mean(0.0, n / 2) <= dt_max / (n / 2)
    assert ts.time_weighted_mean(n / 2, float(n)) >= 1.0 - dt_max / (n / 2)


def test_time_weighted_mean_pro_rata_clipping():
    ts = TimeSeries("x", capacity=8)
    ts.append(1.0, 1.0, 0.0)
    ts.append(2.0, 1.0, 10.0)
    # Window [0.5, 1.5] takes half of each sample.
    assert ts.time_weighted_mean(0.5, 1.5) == pytest.approx(5.0)
    # Degenerate / out-of-range windows.
    assert ts.time_weighted_mean(5.0, 6.0) == 0.0
    assert ts.time_weighted_mean(1.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# Probe
# ---------------------------------------------------------------------------

def test_probe_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Probe("x", lambda: 0.0, kind="bogus")


# ---------------------------------------------------------------------------
# StationStats
# ---------------------------------------------------------------------------

def test_station_stats_reservation_style():
    st = StationStats("nvme0")
    st.record(0.0, 2.0)
    st.record(0.5, 1.0)
    assert st.arrivals == 2
    assert st.sojourn_sum == pytest.approx(2.5)
    assert st.mean_sojourn() == pytest.approx(1.25)
    assert st.in_flight(0.6) == 2
    assert st.in_flight(1.0) == 1   # second op done at t=1
    assert st.in_flight(2.0) == 0
    assert st.arrival_rate(2.0) == pytest.approx(1.0)


def test_station_stats_event_style():
    st = StationStats("rpc")
    st.arrive()
    st.arrive()
    assert st.in_flight(0.0) == 2
    st.depart(0.25)
    assert st.in_flight(0.0) == 1
    assert st.mean_sojourn() == pytest.approx(0.125)


def test_station_stats_idle_queries():
    st = StationStats("idle")
    assert st.mean_sojourn() == 0.0
    assert st.arrival_rate(0.0) == 0.0
    assert st.in_flight(1.0) == 0


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
    s.add_station("st", StationStats("st"))
    with pytest.raises(ValueError):
        s.add_station("st", StationStats("st"))


def test_sampler_gauge_and_cumulative_kinds():
    env = Environment()
    s = Sampler(env, interval=1.0, capacity=64)
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
    s = Sampler(env, interval=1.0, capacity=64)
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
    assert not s.running
    assert len(s.series["x"]) == 0


def test_sampler_disabled_is_bit_identical():
    """Attaching the full probe set must not change simulated results."""
    from repro.bench.runner import run_fig5_cell, run_fig5_doctored

    bare = run_fig5_cell("tcp", "dpu", "randread", 4096, 4,
                         runtime=0.005).to_dict()
    observed = run_fig5_doctored("tcp", "dpu", "randread", 4096, 4,
                                 runtime=0.005)
    doc = observed.result.to_dict()
    # Only the doctored run records per-op latency; everything else agrees.
    assert doc.pop("latency") and not bare.pop("latency")
    assert doc == bare
    assert observed.sampler.ticks > 0  # the telemetry genuinely ran


def test_sampler_littles_law_on_deterministic_queue():
    """Closed-form check: fixed-rate arrivals to a deterministic server."""
    from repro.sim import FifoServer

    env = Environment()
    server = FifoServer(env)
    st = StationStats("srv")
    server.attach_stats(st)
    s = Sampler(env, interval=5e-4)
    s.add_station("srv", st)
    s.start()

    def client(env):
        for _ in range(200):
            yield server.serve(1.0 / 1000.0)  # 1 ms per unit of work

    env.process(client(env))
    env.run(until=0.25)
    s.stop()
    law = s.littles_law(tolerance=0.05)["srv"]
    assert law["checked"]
    assert law["arrivals"] == 200
    # Serial closed loop: one op in flight while active -> L ~ lambda * W.
    assert law["ok"], law


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
    assert not s.running
