"""Streaming log-bucketed latency histogram (HDR-histogram flavoured).

``LogHistogram`` records values into geometrically spaced buckets so memory
stays bounded regardless of sample count — the property the unbounded
``LatencyRecorder._samples`` list lacks for long runs.  Buckets are spaced by
``base = 2 ** (1/16)`` which bounds the *relative* quantile error at
``base - 1`` (~4.4%); reporting the geometric bucket midpoint halves that to
~2.2%.  Histograms are mergeable (per-worker recording, one reduction at the
end).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

__all__ = ["BASE", "MIN_VALUE", "LogHistogram"]

#: Bucket growth factor: 16 buckets per octave.
BASE = 2.0 ** (1.0 / 16.0)

#: Values below this floor all land in bucket 0 (1 ns for latencies in
#: seconds — far below anything the simulator produces).
MIN_VALUE = 1e-9

_LOG_BASE = math.log(BASE)


class LogHistogram:
    """Bounded-memory histogram over positive floats.

    Every histogram shares one bucket geometry (:data:`BASE` growth from
    :data:`MIN_VALUE`; anything below the floor lands in the first
    bucket), so any two merge bucket by bucket.
    """

    __slots__ = ("_buckets", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording ---------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= MIN_VALUE:
            return 0
        return int(math.log(value / MIN_VALUE) / _LOG_BASE) + 1

    def record(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times)."""
        if value < 0.0:
            raise ValueError(f"negative value {value}")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        i = self._index(value)
        self._buckets[i] = self._buckets.get(i, 0) + count
        self.count += count
        self.sum += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.record(v)

    # -- bucket geometry ---------------------------------------------------

    def _representative(self, index: int) -> float:
        """Geometric midpoint of the bucket — the reported quantile value."""
        if index <= 0:
            return MIN_VALUE
        return MIN_VALUE * BASE ** (index - 0.5)

    # -- queries -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0..100), within bucket error."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        if p <= 0.0:
            return self.min
        if p >= 100.0:
            return self.max
        rank = p / 100.0 * self.count
        seen = 0
        for i in sorted(self._buckets):
            seen += self._buckets[i]
            if seen >= rank:
                rep = self._representative(i)
                # The true value lies inside [min, max] by construction.
                return min(max(rep, self.min), self.max)
        return self.max

    # -- merging & export --------------------------------------------------

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into ``self`` (in place); returns self."""
        for i, n in other._buckets.items():
            self._buckets[i] = self._buckets.get(i, 0) + n
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        return self

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }

    def __len__(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"LogHistogram(count={self.count}, buckets={len(self._buckets)}, "
                f"p50={self.percentile(50):.3g}, p99={self.percentile(99):.3g})")
