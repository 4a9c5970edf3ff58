"""The versioned dkey/akey record store (DAOS's key-array data model).

A DAOS object maps a *distribution key* (dkey) to a set of *attribute
keys* (akeys); each akey holds either an **array value** — a sparse byte
array written as versioned extents — or a **single value** replaced
wholesale per write.  Every write is stamped with an epoch; reads resolve
visibility at a requested epoch, which is what gives DAOS snapshots and
transactions (§2.4 "transactional, versioned object model").

This module is pure data structure (no simulation time); the VOS layer
binds records to media and charges device costs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.daos.checksum import Checksummer
from repro.daos.types import NoSuchObject

__all__ = ["Extent", "ExtentStore", "SingleValue", "VersionedObject", "Coverage"]

_seq = itertools.count(1)


@dataclass(slots=True)
class Extent:
    """One versioned write of ``[start, end)`` within an array akey."""

    epoch: int
    start: int
    end: int  # exclusive
    data: Optional[bytes]  # None in virtual mode
    checksum: int
    punched: bool = False
    #: Media placement assigned by VOS: (tier, offset) or None before bind.
    media: Optional[Tuple[str, int]] = None
    seq: int = field(default_factory=lambda: next(_seq))

    @property
    def nbytes(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class Coverage:
    """One resolved segment of a read: ``[start, end)`` served by ``extent``
    (None = hole, reads back as zeros)."""

    start: int
    end: int
    extent: Optional[Extent]

    @property
    def nbytes(self) -> int:
        return self.end - self.start


class ExtentStore:
    """A sparse, versioned byte array (one array akey)."""

    __slots__ = ("extents",)

    def __init__(self) -> None:
        self.extents: List[Extent] = []

    def write(
        self,
        epoch: int,
        offset: int,
        nbytes: int,
        data: Optional[bytes] = None,
    ) -> Extent:
        """Record a write at ``epoch``; returns the extent for media binding."""
        if offset < 0 or nbytes <= 0:
            raise ValueError(f"bad extent ({offset}, {nbytes})")
        if data is not None and len(data) != nbytes:
            raise ValueError(f"data of {len(data)} bytes but nbytes={nbytes}")
        ext = Extent(
            epoch=epoch,
            start=offset,
            end=offset + nbytes,
            data=bytes(data) if data is not None else None,
            checksum=Checksummer.compute(data, nbytes),
        )
        self.extents.append(ext)
        return ext

    def punch(self, epoch: int, offset: int, nbytes: int) -> Extent:
        """Record a hole-punch (reads at later epochs see zeros)."""
        if offset < 0 or nbytes <= 0:
            raise ValueError(f"bad punch ({offset}, {nbytes})")
        ext = Extent(
            epoch=epoch, start=offset, end=offset + nbytes,
            data=None, checksum=0, punched=True,
        )
        self.extents.append(ext)
        return ext

    def resolve(self, epoch: int, offset: int, nbytes: int) -> List[Coverage]:
        """Visibility resolution: split ``[offset, offset+nbytes)`` into
        segments, each served by the newest extent visible at ``epoch``."""
        if offset < 0 or nbytes <= 0:
            raise ValueError(f"bad read range ({offset}, {nbytes})")
        lo, hi = offset, offset + nbytes
        live = [e for e in self.extents if e.epoch <= epoch and e.end > lo and e.start < hi]
        if not live:
            return [Coverage(lo, hi, None)]
        if len(live) == 1:
            e = live[0]
            if e.start <= lo and e.end >= hi:
                # Fast path: a single extent covers the whole window — the
                # general machinery below would produce exactly this one
                # segment (same boundaries, same winner, same punch rule).
                return [Coverage(lo, hi, None if e.punched else e)]
        # Split on all extent boundaries inside the query window.
        points = sorted({lo, hi, *(max(lo, e.start) for e in live),
                         *(min(hi, e.end) for e in live)})
        out: List[Coverage] = []
        for a, b in zip(points, points[1:]):
            if a >= b:
                continue
            winner: Optional[Extent] = None
            for e in live:
                if e.start <= a and e.end >= b:
                    if winner is None or (e.epoch, e.seq) > (winner.epoch, winner.seq):
                        winner = e
            if winner is not None and winner.punched:
                winner = None
            out.append(Coverage(a, b, winner))
        # Merge adjacent segments served by the same extent (or both holes).
        merged: List[Coverage] = []
        for seg in out:
            if merged and merged[-1].extent is seg.extent and merged[-1].end == seg.start:
                merged[-1] = Coverage(merged[-1].start, seg.end, seg.extent)
            else:
                merged.append(seg)
        return merged

    def read_bytes(self, epoch: int, offset: int, nbytes: int) -> bytes:
        """Assemble real bytes for a read (functional mode; holes are zero)."""
        out = bytearray(nbytes)
        for seg in self.resolve(epoch, offset, nbytes):
            e = seg.extent
            if e is None or e.data is None:
                continue
            src_off = seg.start - e.start
            out[seg.start - offset:seg.end - offset] = \
                memoryview(e.data)[src_off:src_off + seg.nbytes]
        return bytes(out)

    def size(self, epoch: int) -> int:
        """Highest visible (non-punched) byte offset + 1, or 0 if empty.

        Matches POSIX file-size semantics under DFS: punching the tail does
        not shrink the file, so any recorded extent bounds the size.
        """
        ends = [e.end for e in self.extents if e.epoch <= epoch]
        return max(ends, default=0)


class SingleValue:
    """A single-value akey: each write replaces the whole value."""

    __slots__ = ("versions",)

    def __init__(self) -> None:
        self.versions: List[Tuple[int, int, Any]] = []  # (epoch, seq, value)

    def write(self, epoch: int, value: Any) -> None:
        """Replace the value at ``epoch``."""
        self.versions.append((epoch, next(_seq), value))

    def read(self, epoch: int) -> Any:
        """The newest value visible at ``epoch``."""
        best = None
        for rec in self.versions:
            if rec[0] <= epoch and (best is None or (rec[0], rec[1]) > (best[0], best[1])):
                best = rec
        if best is None:
            raise NoSuchObject(f"no single-value visible at epoch {epoch}")
        return best[2]

    def exists(self, epoch: int) -> bool:
        """Whether any version is visible at ``epoch``."""
        return any(rec[0] <= epoch for rec in self.versions)


class VersionedObject:
    """One object: dkey -> akey -> (ExtentStore | SingleValue)."""

    def __init__(self) -> None:
        self._dkeys: Dict[bytes, Dict[bytes, Any]] = {}
        self._dkey_punch: Dict[bytes, int] = {}  # dkey -> punch epoch

    # -- array values --------------------------------------------------------
    def array(self, dkey: bytes, akey: bytes) -> ExtentStore:
        """Get/create the array akey under ``dkey``."""
        akeys = self._dkeys.setdefault(bytes(dkey), {})
        store = akeys.get(bytes(akey))
        if store is None:
            store = akeys[bytes(akey)] = ExtentStore()
        elif not isinstance(store, ExtentStore):
            raise TypeError(f"akey {akey!r} holds a single value, not an array")
        return store

    # -- single values -------------------------------------------------------
    def value(self, dkey: bytes, akey: bytes) -> SingleValue:
        """Get/create the single-value akey under ``dkey``."""
        akeys = self._dkeys.setdefault(bytes(dkey), {})
        sv = akeys.get(bytes(akey))
        if sv is None:
            sv = akeys[bytes(akey)] = SingleValue()
        elif not isinstance(sv, SingleValue):
            raise TypeError(f"akey {akey!r} holds an array, not a single value")
        return sv

    def read_value(self, epoch: int, dkey: bytes, akey: bytes) -> Any:
        """Read a single value at ``epoch``, honouring dkey punches.

        A value written before a punch (with the punch at or before
        ``epoch``) is invisible; a value rewritten after the punch is
        visible again.
        """
        sv = self.value(dkey, akey)
        punched_at = self._dkey_punch.get(bytes(dkey))
        floor = punched_at if (punched_at is not None and punched_at <= epoch) else 0
        best = None
        for rec in sv.versions:
            if floor < rec[0] <= epoch and (
                best is None or (rec[0], rec[1]) > (best[0], best[1])
            ):
                best = rec
        if best is None:
            raise NoSuchObject(
                f"no single-value visible at epoch {epoch} (dkey punched at {punched_at})"
            )
        return best[2]

    # -- dkey-level operations -------------------------------------------------
    def punch_dkey(self, epoch: int, dkey: bytes) -> None:
        """Hide a whole dkey from later epochs."""
        self._dkey_punch[bytes(dkey)] = max(
            epoch, self._dkey_punch.get(bytes(dkey), 0)
        )

    def dkey_visible(self, epoch: int, dkey: bytes) -> bool:
        """Whether ``dkey`` has visible content at ``epoch``."""
        dkey = bytes(dkey)
        akeys = self._dkeys.get(dkey)
        if not akeys:
            return False
        punched_at = self._dkey_punch.get(dkey)
        # A punch only hides content for readers at or past the punch epoch.
        written_after_punch = punched_at if (punched_at is not None and punched_at <= epoch) else 0
        for store in akeys.values():
            if isinstance(store, ExtentStore):
                visible = any(
                    written_after_punch < e.epoch <= epoch and not e.punched
                    for e in store.extents
                )
            else:
                visible = any(
                    written_after_punch < rec[0] <= epoch for rec in store.versions
                )
            if visible:
                return True
        return False

    def list_dkeys(self, epoch: int) -> List[bytes]:
        """Visible dkeys at ``epoch`` (sorted, like a dkey enumeration)."""
        return sorted(d for d in self._dkeys if self.dkey_visible(epoch, d))
