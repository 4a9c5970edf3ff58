"""Dedicated tests for DAOS identifiers and the error hierarchy."""

import pytest

from repro.daos.types import (
    ContainerId,
    DaosError,
    NoSuchContainer,
    NoSuchObject,
    NoSuchPool,
    ObjectClass,
    ObjectId,
    PoolId,
    new_container_id,
    new_pool_id,
)


def test_ids_are_unique_and_ordered():
    a, b = new_pool_id(), new_pool_id()
    assert a != b and a < b
    c, d = new_container_id(), new_container_id()
    assert c != d and c < d


def test_ids_are_hashable_and_stringable():
    p = PoolId(0xABC)
    assert str(p) == "pool-00000abc"
    assert {p: 1}[PoolId(0xABC)] == 1
    c = ContainerId(0x123)
    assert str(c).startswith("cont-")


def test_object_id_class_roundtrip_all_classes():
    for oclass in ObjectClass:
        oid = ObjectId.make(42, oclass)
        assert oid.oclass is oclass, oclass
        assert oid.lo == 42


def test_object_ids_distinct_across_classes():
    oids = {ObjectId.make(7, oc) for oc in ObjectClass}
    assert len(oids) == len(ObjectClass)


def test_object_id_equality_and_hash():
    a = ObjectId.make(1, ObjectClass.SX)
    b = ObjectId.make(1, ObjectClass.SX)
    assert a == b and hash(a) == hash(b)


def test_error_hierarchy():
    for exc_type in (NoSuchPool, NoSuchContainer, NoSuchObject):
        assert issubclass(exc_type, DaosError)
    assert issubclass(DaosError, RuntimeError)
    with pytest.raises(DaosError):
        raise NoSuchObject("gone")


def test_object_class_values():
    assert {c.value for c in ObjectClass} == {"S1", "SX", "RP2", "EC2P1"}
