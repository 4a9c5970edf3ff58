"""Read-only sequences over packed rows.

The span collector and the wait tracer keep what they observe as rows
of ``array`` columns, not as one Python object each (DESIGN.md §10).
A reader gets a :class:`Rows`: the store's ``rows(lo, hi)`` yields rows
``lo`` to ``hi - 1`` as small named tuples, built as they are read and
dropped after, so folding every row holds one view at a time.  Reading
row ``i`` by index skips the ``i`` rows before it: readers iterate.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Iterator, TypeVar

__all__ = ["Rows"]

V = TypeVar("V")


class Rows(Sequence):
    """The first ``n`` rows of a store, read through ``rows(lo, hi)``."""

    __slots__ = ("_rows", "_n")

    def __init__(self, rows: Callable[[int, int], Iterator[V]],
                 n: int) -> None:
        self._rows = rows
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> V:
        i = range(self._n)[i]
        return next(self._rows(i, i + 1))

    def __iter__(self) -> Iterator[V]:
        return self._rows(0, self._n)
