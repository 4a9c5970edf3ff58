"""LogHistogram: unit tests plus Hypothesis properties vs exact NumPy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.hist import BASE, MIN_VALUE, LogHistogram


class TestBasics:
    def test_empty(self):
        h = LogHistogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        assert len(h) == 0
        d = h.to_dict()
        assert d["count"] == 0 and d["min"] == 0.0 and d["max"] == 0.0

    def test_single_value(self):
        h = LogHistogram()
        h.record(42e-6)
        assert h.count == 1
        assert h.min == h.max == 42e-6
        assert h.percentile(50) == pytest.approx(42e-6, rel=math.sqrt(BASE) - 1.0)
        # Reported quantile is clamped into [min, max].
        assert h.min <= h.percentile(99) <= h.max

    def test_invalid_inputs(self):
        h = LogHistogram()
        with pytest.raises(ValueError):
            h.record(-1.0)
        with pytest.raises(ValueError):
            h.record(1.0, count=0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_weighted_record(self):
        h = LogHistogram()
        h.record(1e-3, count=10)
        assert h.count == 10
        assert h.sum == pytest.approx(1e-2)

    def test_bounded_memory(self):
        """1e5 samples over 6 orders of magnitude: buckets stay small."""
        h = LogHistogram()
        rng = np.random.default_rng(3)
        for v in rng.uniform(1e-7, 1e-1, size=100_000):
            h.record(float(v))
        assert h.count == 100_000
        # 6 decades at 16 buckets/octave ~= 6 * log2(10) * 16 ~ 320 buckets.
        assert len(h) < 400

    def test_zero_and_subfloor_values(self):
        h = LogHistogram()
        h.record(0.0)
        h.record(1e-12)
        assert h.count == 2
        assert h.percentile(50) == pytest.approx(MIN_VALUE, abs=MIN_VALUE)

    def test_relative_error_bound(self):
        # A reported quantile is its bucket's geometric midpoint: within
        # sqrt(base) - 1 (~2.2% at 16 buckets/octave) of the true value.
        bound = math.sqrt(BASE) - 1.0
        assert bound < 0.025
        for v in np.random.default_rng(3).uniform(1e-6, 1e-2, 200):
            h = LogHistogram()
            h.record_many([1e-7, 1e-1] + [float(v)] * 100)
            assert abs(h.percentile(50) - v) <= bound * v * (1 + 1e-12)


class TestMerge:
    def test_merge_equals_combined_recording(self):
        rng = np.random.default_rng(11)
        a_vals = rng.uniform(1e-6, 1e-2, 500)
        b_vals = rng.uniform(1e-5, 1e-1, 700)
        a = LogHistogram()
        b = LogHistogram()
        both = LogHistogram()
        for v in a_vals:
            a.record(float(v))
            both.record(float(v))
        for v in b_vals:
            b.record(float(v))
            both.record(float(v))
        a.merge(b)
        assert a.count == both.count
        assert a.sum == pytest.approx(both.sum)
        assert a.min == both.min and a.max == both.max
        for p in (50, 95, 99, 99.9):
            assert a.percentile(p) == both.percentile(p)

    def test_merge_empty(self):
        a = LogHistogram()
        a.record(1e-3)
        a.merge(LogHistogram())
        assert a.count == 1


positive_floats = st.floats(min_value=1e-8, max_value=1e3,
                            allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(positive_floats, min_size=1, max_size=300),
       p=st.sampled_from([50.0, 90.0, 95.0, 99.0, 99.9]))
def test_percentile_tracks_numpy_within_bucket_error(values, p):
    """Reported percentiles stay within the bucket's relative error of the
    exact (lower-interpolation) sample percentile."""
    h = LogHistogram()
    for v in values:
        h.record(v)
    # Nearest-rank (inverted CDF) matches the histogram's rank convention.
    exact = float(np.percentile(np.array(values), p, method="inverted_cdf"))
    got = h.percentile(p)
    if exact <= MIN_VALUE:
        assert got <= MIN_VALUE * BASE
        return
    # One bucket of slack on either side of the exact value.
    assert exact / BASE <= got <= exact * BASE, (got, exact)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(positive_floats, min_size=1, max_size=200))
def test_count_sum_minmax_exact(values):
    h = LogHistogram()
    for v in values:
        h.record(v)
    assert h.count == len(values)
    assert h.sum == pytest.approx(math.fsum(values), rel=1e-9)
    assert h.min == min(values)
    assert h.max == max(values)
    assert h.percentile(0) == h.min
    assert h.percentile(100) == h.max


@settings(max_examples=40, deadline=None)
@given(values=st.lists(positive_floats, min_size=2, max_size=200))
def test_percentiles_monotonic_in_p(values):
    h = LogHistogram()
    h.record_many(values)
    ps = [1, 10, 25, 50, 75, 90, 99, 99.9]
    qs = [h.percentile(p) for p in ps]
    assert qs == sorted(qs)
