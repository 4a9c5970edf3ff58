"""Unit tests for SparseBytes, plus hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.sparse import PAGE_SIZE, SparseBytes


def test_unwritten_reads_zero():
    s = SparseBytes(10000)
    assert s.read(0, 100) == bytes(100)
    assert s.read(9000, 1000) == bytes(1000)


def test_write_read_roundtrip():
    s = SparseBytes(10000)
    s.write(100, b"hello world")
    assert s.read(100, 11) == b"hello world"
    assert s.read(99, 13) == b"\x00hello world\x00"


def test_write_across_page_boundary():
    s = SparseBytes(3 * PAGE_SIZE)
    data = bytes(range(256)) * 32  # 8192 bytes
    s.write(PAGE_SIZE - 100, data)
    assert s.read(PAGE_SIZE - 100, len(data)) == data


def test_overwrite():
    s = SparseBytes(1000)
    s.write(0, b"aaaa")
    s.write(2, b"bb")
    assert s.read(0, 4) == b"aabb"


def test_punch_zeroes_range():
    s = SparseBytes(4 * PAGE_SIZE)
    s.write(0, b"x" * (2 * PAGE_SIZE))
    s.punch(100, PAGE_SIZE)
    assert s.read(100, PAGE_SIZE) == bytes(PAGE_SIZE)
    assert s.read(0, 100) == b"x" * 100


def test_punch_drops_full_pages():
    s = SparseBytes(4 * PAGE_SIZE)
    s.write(0, b"x" * (2 * PAGE_SIZE))
    assert len(s._pages) == 2
    s.punch(0, PAGE_SIZE)
    assert len(s._pages) == 1


def test_bounds_enforced():
    s = SparseBytes(1000)
    with pytest.raises(ValueError):
        s.read(900, 200)
    with pytest.raises(ValueError):
        s.write(999, b"ab")
    with pytest.raises(ValueError):
        s.read(-1, 10)
    with pytest.raises(ValueError):
        SparseBytes(0)


def test_len():
    assert len(SparseBytes(12345)) == 12345


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * PAGE_SIZE),
            st.binary(min_size=1, max_size=600),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_matches_reference_bytearray(ops):
    """Any sequence of writes must match a flat bytearray reference."""
    size = 4 * PAGE_SIZE
    s = SparseBytes(size)
    ref = bytearray(size)
    for offset, data in ops:
        if offset + len(data) > size:
            continue
        s.write(offset, data)
        ref[offset:offset + len(data)] = data
    assert s.read(0, size) == bytes(ref)


@settings(max_examples=40, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=2 * PAGE_SIZE),
    nbytes=st.integers(min_value=1, max_value=PAGE_SIZE),
    data=st.binary(min_size=1, max_size=2 * PAGE_SIZE),
)
def test_punch_equivalent_to_zero_write(offset, nbytes, data):
    size = 4 * PAGE_SIZE
    a, b = SparseBytes(size), SparseBytes(size)
    a.write(0, data)
    b.write(0, data)
    a.punch(offset, nbytes)
    b.write(offset, bytes(nbytes))
    assert a.read(0, size) == b.read(0, size)
