"""The simulator's own random streams against NumPy, their reference.

:class:`repro.sim.rng.Pcg64Stream` must return exactly what
``np.random.default_rng(SeedSequence(seed, spawn_key=...)).integers(low,
high, size, dtype=np.int64)`` returns, draw for draw, including the
spare 32-bit half-word PCG64 carries from one call to the next.  The
golden draws at the bottom pin the stream without NumPy, so a NumPy
release that changes its ``Generator`` streams cannot move the repo's.
"""

import random

import numpy as np
import pytest

from repro.sim.rng import Pcg64Stream, RngStreams

_R = random.Random(0x5EED)
SEEDS = [0, 7, 0xDA05, _R.getrandbits(32), _R.getrandbits(32),
         _R.getrandbits(70), 2**64 + 5]
NAMES = ["job0", "job15", "dataloader", "x", ""]
RANGES = [(0, 2), (0, 3), (0, 12288), (4096, 4096 + 12288), (0, 1000003),
          (0, 2**31), (0, 2**31 + 1), (-5, 2**32 - 6), (0, 2**32 - 1)]
#: Batch sizes and scalar calls (None), interleaved so odd counts leave
#: a half-word behind for the next call.
SIZES = [1, 7, None, 1024, None, 7, 1, 1024, None]


def _reference(seed, name):
    seq = np.random.SeedSequence(seed, spawn_key=tuple(name.encode("utf-8")))
    return np.random.default_rng(seq)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_numpy(seed):
    for name in NAMES:
        for low, high in RANGES:
            ref = _reference(seed, name)
            ours = RngStreams(seed).stream(name)
            for size in SIZES:
                want = ref.integers(low, high, size, dtype=np.int64)
                want = int(want) if size is None else want.tolist()
                got = ours.integers(low, high, size)
                assert got == want, (seed, name, low, high, size)


def test_stream_matches_numpy_across_ranges():
    """One stream, a different range on every call, as callers may mix."""
    ref = _reference(0xDA05, "mixed")
    ours = Pcg64Stream(0xDA05, tuple(b"mixed"))
    r = random.Random(11)
    for _ in range(300):
        high = r.choice([2, 12288, r.randrange(2, 2**32)])
        size = r.choice([None, 1, 2, 7, 64])
        want = ref.integers(0, high, size, dtype=np.int64)
        want = int(want) if size is None else want.tolist()
        assert ours.integers(0, high, size) == want


def test_single_value_range_draws_nothing():
    ours, ref = RngStreams(7).stream("job0"), _reference(7, "job0")
    assert ours.integers(9, 10, 5) == ref.integers(9, 10, 5).tolist()
    assert ours.integers(9, 10) == 9
    assert ours.integers(0, 12288, 3) == ref.integers(0, 12288, 3).tolist()


def test_streams_are_cached_and_independent():
    rng = RngStreams(7)
    assert rng.stream("job0") is rng.stream("job0")
    assert rng.stream("job0").integers(0, 2**32 - 1, 4) != \
        rng.stream("job1").integers(0, 2**32 - 1, 4)


@pytest.mark.parametrize("low, high", [(0, 0), (5, 5), (5, 4),
                                       (0, 2**32), (-1, 2**32 - 1),
                                       (0, 2**40)])
def test_integers_rejects_empty_or_wide_ranges(low, high):
    stream = RngStreams(7).stream("job0")
    with pytest.raises(ValueError, match=rf"\[{low}, {high}\)"):
        stream.integers(low, high)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        stream.integers(low, high, 8)


#: ``RngStreams(7).stream("job0")``: 16 offsets of a 48 MiB / 4 KiB
#: region, then a scalar full-width draw, then 3 draws from [5, 12).
GOLDEN_JOB0_SEED7 = (
    [3548, 11821, 3944, 710, 9820, 8110, 8222, 11077,
     10534, 7634, 5495, 5480, 11604, 9698, 9766, 2407],
    2067398942,
    [8, 8, 5],
)


def test_golden_first_draws():
    stream = RngStreams(7).stream("job0")
    got = (stream.integers(0, 12288, 16), stream.integers(0, 2**32 - 1),
           stream.integers(5, 12, 3))
    assert got == GOLDEN_JOB0_SEED7
