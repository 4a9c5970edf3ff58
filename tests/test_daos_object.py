"""Unit + property tests for the versioned dkey/akey extent store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.daos.checksum import Checksummer, ChecksumError
from repro.daos.object import ExtentStore, SingleValue, VersionedObject
from repro.daos.types import NoSuchObject, ObjectClass, ObjectId


# ---------------------------------------------------------------------------
# Checksummer
# ---------------------------------------------------------------------------

def test_checksum_roundtrip_real_bytes():
    c = Checksummer.compute(b"payload", 7)
    Checksummer.verify(b"payload", 7, c)  # no raise
    with pytest.raises(ChecksumError):
        Checksummer.verify(b"Payload", 7, c)


def test_checksum_virtual_sentinel_keyed_by_size():
    c1 = Checksummer.compute(None, 4096)
    c2 = Checksummer.compute(None, 8192)
    assert c1 != c2
    Checksummer.verify(None, 4096, c1)
    with pytest.raises(ChecksumError):
        Checksummer.verify(None, 8192, c1)


# ---------------------------------------------------------------------------
# ExtentStore basics
# ---------------------------------------------------------------------------

def test_write_read_same_epoch():
    s = ExtentStore()
    s.write(1, 0, 5, b"hello")
    assert s.read_bytes(1, 0, 5) == b"hello"


def test_hole_reads_zero():
    s = ExtentStore()
    s.write(1, 10, 2, b"ab")
    assert s.read_bytes(1, 0, 14) == bytes(10) + b"ab" + bytes(2)


def test_later_epoch_overrides():
    s = ExtentStore()
    s.write(1, 0, 4, b"aaaa")
    s.write(2, 1, 2, b"BB")
    assert s.read_bytes(2, 0, 4) == b"aBBa"
    # Snapshot read at epoch 1 still sees the original.
    assert s.read_bytes(1, 0, 4) == b"aaaa"


def test_same_epoch_last_write_wins():
    s = ExtentStore()
    s.write(5, 0, 3, b"abc")
    s.write(5, 0, 3, b"xyz")
    assert s.read_bytes(5, 0, 3) == b"xyz"


def test_read_before_any_write_is_zeros():
    s = ExtentStore()
    assert s.read_bytes(9, 0, 8) == bytes(8)


def test_punch_hides_then_rewrite():
    s = ExtentStore()
    s.write(1, 0, 4, b"data")
    s.punch(2, 0, 4)
    assert s.read_bytes(2, 0, 4) == bytes(4)
    assert s.read_bytes(1, 0, 4) == b"data"  # history intact
    s.write(3, 1, 2, b"zz")
    assert s.read_bytes(3, 0, 4) == b"\x00zz\x00"


def test_resolve_segments_and_merge():
    s = ExtentStore()
    r1 = s.write(1, 0, 10, None)
    assert s.resolve(1, 0, 10) == [(0, 10, r1)]
    r2 = s.write(2, 3, 4, None)
    assert s.resolve(2, 0, 10) == [(0, 3, r1), (3, 7, r2), (7, 10, r1)]


def test_size_semantics():
    s = ExtentStore()
    assert s.size(1) == 0
    s.write(1, 100, 50, None)
    assert s.size(1) == 150
    assert s.size(0) == 0
    s.punch(2, 0, 200)
    assert s.size(2) == 200  # punch does not shrink POSIX size


def test_extent_store_validation():
    s = ExtentStore()
    with pytest.raises(ValueError):
        s.write(1, -1, 4, None)
    with pytest.raises(ValueError):
        s.write(1, 0, 0, None)
    with pytest.raises(ValueError):
        s.write(1, 0, 3, b"toolong")
    with pytest.raises(ValueError):
        s.punch(1, 0, 0)
    with pytest.raises(ValueError):
        s.resolve(1, 0, 0)


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "punch"]),
            st.integers(min_value=0, max_value=200),  # offset
            st.integers(min_value=1, max_value=64),  # length
        ),
        min_size=1,
        max_size=24,
    ),
    read_at=st.integers(min_value=0, max_value=30),
)
def test_extent_store_matches_reference(ops, read_at):
    """Epoch-ordered writes/punches must match a per-epoch snapshot model."""
    size = 300
    s = ExtentStore()
    snapshots = {0: bytearray(size)}
    current = bytearray(size)
    for epoch, (kind, off, ln) in enumerate(ops, start=1):
        data = bytes([(epoch * 31 + i) % 256 for i in range(ln)])
        if kind == "write":
            s.write(epoch, off, ln, data)
            current[off:off + ln] = data
        else:
            s.punch(epoch, off, ln)
            current[off:off + ln] = bytes(ln)
        snapshots[epoch] = bytearray(current)
    epoch = min(read_at, len(ops))
    assert s.read_bytes(epoch, 0, size) == bytes(snapshots[epoch])


# ---------------------------------------------------------------------------
# SingleValue
# ---------------------------------------------------------------------------

def test_single_value_versions():
    v = SingleValue()
    v.write(1, "a")
    v.write(3, "b")
    assert v.read(1) == "a"
    assert v.read(2) == "a"
    assert v.read(3) == "b"
    assert v.read(99) == "b"


def test_single_value_missing_raises():
    v = SingleValue()
    with pytest.raises(NoSuchObject):
        v.read(5)
    v.write(10, "late")
    with pytest.raises(NoSuchObject):
        v.read(5)
    assert not v.exists(5)
    assert v.exists(10)


# ---------------------------------------------------------------------------
# VersionedObject
# ---------------------------------------------------------------------------

def test_object_array_and_value_akeys():
    o = VersionedObject()
    o.array(b"d1", b"data").write(1, 0, 3, b"abc")
    o.value(b"d1", b"mode").write(1, 0o644)
    assert o.array(b"d1", b"data").read_bytes(1, 0, 3) == b"abc"
    assert o.value(b"d1", b"mode").read(1) == 0o644


def test_object_akey_type_conflict():
    o = VersionedObject()
    o.array(b"d", b"k").write(1, 0, 1, b"x")
    with pytest.raises(TypeError):
        o.value(b"d", b"k")
    o.value(b"d", b"sv").write(1, 1)
    with pytest.raises(TypeError):
        o.array(b"d", b"sv")


def test_object_list_and_punch_dkeys():
    o = VersionedObject()
    o.array(b"a", b"data").write(1, 0, 1, b"x")
    o.array(b"b", b"data").write(2, 0, 1, b"y")
    assert o.list_dkeys(1) == [b"a"]
    assert o.list_dkeys(2) == [b"a", b"b"]
    o.punch_dkey(3, b"a")
    assert o.list_dkeys(3) == [b"b"]
    # Snapshot before the punch still lists it.
    assert o.list_dkeys(2) == [b"a", b"b"]
    # Re-insert after punch.
    o.array(b"a", b"data").write(4, 0, 1, b"z")
    assert o.list_dkeys(4) == [b"a", b"b"]


def test_object_dkey_visibility_empty():
    o = VersionedObject()
    assert not o.dkey_visible(1, b"ghost")
    assert o.list_dkeys(5) == []


def test_object_id_classes():
    s1 = ObjectId.make(1, ObjectClass.S1)
    sx = ObjectId.make(2, ObjectClass.SX)
    assert s1.oclass is ObjectClass.S1
    assert sx.oclass is ObjectClass.SX
    assert s1 != sx
    assert str(sx).startswith("oid-")
