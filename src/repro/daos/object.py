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
from array import array
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.daos.checksum import Checksummer
from repro.daos.types import NoSuchObject

__all__ = ["ExtentStore", "SingleValue", "VersionedObject"]

_seq = itertools.count(1)

#: Fields of one extent row; extent ``k`` is ``rows[k * ROW:(k + 1) * ROW]``,
#: so its epoch is ``rows[k * ROW]``.
EPOCH, START, END, CSUM, MEDIA = range(5)
ROW = 5
#: The media word is ``offset << MEDIA_SHIFT | tier``, or ``PUNCHED`` for a
#: punch.  A write is ``TIER_NONE`` until VOS binds it after the persist.
TIER_NONE, TIER_SCM, TIER_NVME = 0, 1, 2
TIER_MASK = 3
PUNCHED = 4
MEDIA_SHIFT = 3


class ExtentStore:
    """A sparse, versioned byte array (one array akey).

    Each write or punch appends one row of five ints to ``rows`` (epoch,
    start, end exclusive, checksum, media word), and its row number ``k``
    names the extent.  Data-mode payloads live in ``payloads`` by row
    number, created on the first one.  Rows are appended in write order,
    so among extents of equal epoch the later row is the newer write.
    """

    __slots__ = ("rows", "payloads")

    def __init__(self) -> None:
        self.rows = array("q")
        self.payloads: Optional[Dict[int, bytes]] = None

    def write(
        self,
        epoch: int,
        offset: int,
        nbytes: int,
        data: Optional[bytes] = None,
    ) -> int:
        """Record a write at ``epoch``; returns its row for media binding."""
        if offset < 0 or nbytes <= 0:
            raise ValueError(f"bad extent ({offset}, {nbytes})")
        if data is not None and len(data) != nbytes:
            raise ValueError(f"data of {len(data)} bytes but nbytes={nbytes}")
        rows = self.rows
        k = len(rows) // ROW
        rows.extend((epoch, offset, offset + nbytes,
                     Checksummer.compute(data, nbytes), TIER_NONE))
        if data is not None:
            if self.payloads is None:
                self.payloads = {}
            self.payloads[k] = bytes(data)
        return k

    def punch(self, epoch: int, offset: int, nbytes: int) -> int:
        """Record a hole-punch (reads at later epochs see zeros)."""
        if offset < 0 or nbytes <= 0:
            raise ValueError(f"bad punch ({offset}, {nbytes})")
        rows = self.rows
        k = len(rows) // ROW
        rows.extend((epoch, offset, offset + nbytes, 0, PUNCHED))
        return k

    def bind(self, k: int, tier: int, offset: int) -> None:
        """Place extent ``k`` on ``tier`` at media ``offset``."""
        self.rows[k * ROW + MEDIA] = offset << MEDIA_SHIFT | tier

    def walk(self) -> Iterator[Tuple[int, int, int, bool, Optional[bytes]]]:
        """Every extent in write order: ``(epoch, start, end, punched,
        payload)``, including rows appended while the walk runs."""
        rows = self.rows
        i = 0
        while i < len(rows):
            payloads = self.payloads
            yield (rows[i], rows[i + START], rows[i + END],
                   bool(rows[i + MEDIA] & PUNCHED),
                   payloads.get(i // ROW) if payloads else None)
            i += ROW

    def resolve(
        self, epoch: int, offset: int, nbytes: int
    ) -> List[Tuple[int, int, Optional[int]]]:
        """Visibility resolution: split ``[offset, offset+nbytes)`` into
        ``(start, end, k)`` segments, each served by the newest extent row
        ``k`` visible at ``epoch`` (``None``: a hole, reads back as zeros)."""
        if offset < 0 or nbytes <= 0:
            raise ValueError(f"bad read range ({offset}, {nbytes})")
        lo, hi = offset, offset + nbytes
        rows = self.rows
        live = []
        for i in range(0, len(rows), ROW):
            if rows[i] <= epoch and rows[i + END] > lo and rows[i + START] < hi:
                live.append(i)
        if not live:
            return [(lo, hi, None)]
        if len(live) == 1:
            i = live[0]
            if rows[i + START] <= lo and rows[i + END] >= hi:
                # Fast path: a single extent covers the whole window — the
                # general machinery below would produce exactly this one
                # segment (same boundaries, same winner, same punch rule).
                return [(lo, hi, None if rows[i + MEDIA] & PUNCHED else i // ROW)]
        # Split on all extent boundaries inside the query window.
        points = sorted({lo, hi, *(max(lo, rows[i + START]) for i in live),
                         *(min(hi, rows[i + END]) for i in live)})
        out: List[Tuple[int, int, Optional[int]]] = []
        for a, b in zip(points, points[1:]):
            # ``live`` ascends, so ``>=`` gives an equal epoch to the later row.
            win = -1
            for i in live:
                if rows[i + START] <= a and rows[i + END] >= b and (
                        win < 0 or rows[i] >= rows[win]):
                    win = i
            k = None if win < 0 or rows[win + MEDIA] & PUNCHED else win // ROW
            # Merge adjacent segments served by the same row (or both holes).
            if out and out[-1][2] == k:
                out[-1] = (out[-1][0], b, k)
            else:
                out.append((a, b, k))
        return out

    def read_bytes(self, epoch: int, offset: int, nbytes: int) -> bytes:
        """Assemble real bytes for a read (functional mode; holes are zero)."""
        out = bytearray(nbytes)
        payloads = self.payloads
        if not payloads:
            return bytes(out)
        rows = self.rows
        for a, b, k in self.resolve(epoch, offset, nbytes):
            data = None if k is None else payloads.get(k)
            if data is None:
                continue
            src = a - rows[k * ROW + START]
            out[a - offset:b - offset] = memoryview(data)[src:src + b - a]
        return bytes(out)

    def size(self, epoch: int) -> int:
        """Highest visible (non-punched) byte offset + 1, or 0 if empty.

        Matches POSIX file-size semantics under DFS: punching the tail does
        not shrink the file, so any recorded extent bounds the size.
        """
        rows = self.rows
        return max((rows[i + END] for i in range(0, len(rows), ROW)
                    if rows[i] <= epoch), default=0)

    def visible(self, after: int, epoch: int) -> bool:
        """Whether a write (not a punch) with epoch in ``(after, epoch]``
        exists."""
        rows = self.rows
        return any(after < rows[i] <= epoch and not rows[i + MEDIA] & PUNCHED
                   for i in range(0, len(rows), ROW))


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
                visible = store.visible(written_after_punch, epoch)
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
