"""Identifiers, errors and object classes for the DAOS-like store."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "PoolId",
    "ContainerId",
    "ObjectId",
    "ObjectClass",
    "DaosError",
    "NoSuchPool",
    "NoSuchContainer",
    "NoSuchObject",
    "new_pool_id",
    "new_container_id",
]


class DaosError(RuntimeError):
    """Base class for storage-stack errors."""


class NoSuchPool(DaosError):
    """Pool handle or id does not resolve."""


class NoSuchContainer(DaosError):
    """Container id does not resolve within the pool."""


class NoSuchObject(DaosError):
    """Object (or dkey/akey within it) does not exist at this epoch."""


class ObjectClass(Enum):
    """How an object's shards spread over targets (simplified DAOS oclass).

    * ``S1`` — single target (metadata, small objects).
    * ``SX`` — striped across every target (bulk file data; gives DFS its
      multi-SSD bandwidth scaling).
    * ``RP2`` — two replicas per dkey on distinct targets (DAOS RP_2G1):
      updates land on both, fetches are served by any live replica, and a
      failed target can be rebuilt from its peer.
    * ``EC2P1`` — 2+1 erasure coding (DAOS EC_2P1G1): stripes split into
      two data cells plus XOR parity on three distinct targets; any
      single-target loss reconstructs.
    """

    S1 = "S1"
    SX = "SX"
    RP2 = "RP2"
    EC2P1 = "EC2P1"


@dataclass(frozen=True, order=True, slots=True)
class PoolId:
    """A pool UUID (compact integer form)."""

    value: int

    def __str__(self) -> str:
        return f"pool-{self.value:08x}"


@dataclass(frozen=True, order=True, slots=True)
class ContainerId:
    """A container UUID within a pool."""

    value: int

    def __str__(self) -> str:
        return f"cont-{self.value:08x}"


@dataclass(frozen=True, order=True, slots=True)
class ObjectId:
    """A 128-bit-style object id: (hi: class/meta, lo: sequence)."""

    hi: int
    lo: int

    _CLASS_CODES = {"S1": 0x0, "SX": 0x1, "RP2": 0x2, "EC2P1": 0x3}

    @property
    def oclass(self) -> ObjectClass:
        """Object class encoded in the high bits."""
        # Decoded via a precomputed code->class table (this property sits
        # on the per-IO placement path; the old linear scan plus enum
        # construction showed up in wall-clock profiles).
        return _OCLASS_BY_CODE[(self.hi >> 56) & 0x3]

    @staticmethod
    def make(lo: int, oclass: ObjectClass = ObjectClass.S1) -> "ObjectId":
        code = ObjectId._CLASS_CODES[oclass.value]
        return ObjectId(code << 56, lo)

    def __str__(self) -> str:
        return f"oid-{self.hi:x}.{self.lo:x}"


#: Reverse of :attr:`ObjectId._CLASS_CODES`; every 2-bit code maps to a
#: class (unknown codes cannot occur after the ``& 0x3`` mask, and all four
#: values are assigned), so :attr:`ObjectId.oclass` is one dict lookup.
_OCLASS_BY_CODE = {
    code: ObjectClass(name) for name, code in ObjectId._CLASS_CODES.items()
}


_pool_seq = itertools.count(0xA000_0001)
_cont_seq = itertools.count(0xB000_0001)


def new_pool_id() -> PoolId:
    """Mint a fresh pool id."""
    return PoolId(next(_pool_seq))


def new_container_id() -> ContainerId:
    """Mint a fresh container id."""
    return ContainerId(next(_cont_seq))
