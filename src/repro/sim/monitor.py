"""Lightweight instrumentation for simulation runs.

Benchmarks need throughput/IOPS/latency summaries without perturbing the
event loop.  Everything here is plain accumulation; the summary math runs
once, at report time.  It is pure Python and reproduces NumPy's
``np.mean`` and ``np.percentile`` (linear method) bit for bit, so a
ledger's latency digits do not depend on whether, or which, NumPy is
installed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.sim.core import Environment

__all__ = ["RateMeter", "LatencyRecorder", "mean", "percentile"]


class RateMeter:
    """Counts operations and bytes over a measurement window.

    :meth:`reset` marks the window start (used to drop warm-up);
    :meth:`ops_per_sec` / :meth:`bytes_per_sec` report steady-state rates.
    """

    __slots__ = ("env", "name", "ops", "bytes", "_t0")

    def __init__(self, env: Environment, name: str) -> None:
        self.env = env
        self.name = name
        self.ops = 0
        self.bytes = 0
        self._t0 = env.now

    def record(self, nbytes: int = 0) -> None:
        """Record one completed operation of ``nbytes``."""
        self.ops += 1
        self.bytes += nbytes

    def reset(self) -> None:
        """Restart the measurement window at the current time."""
        self.ops = 0
        self.bytes = 0
        self._t0 = self.env.now

    def elapsed(self) -> float:
        """Length of the current window."""
        return self.env.now - self._t0

    def ops_per_sec(self) -> float:
        """Operations per second over the window."""
        dt = self.elapsed()
        return self.ops / dt if dt > 0 else 0.0

    def bytes_per_sec(self) -> float:
        """Payload bytes per second over the window."""
        dt = self.elapsed()
        return self.bytes / dt if dt > 0 else 0.0


class LatencyRecorder:
    """Accumulates per-operation latencies; summarizes at the end.

    Short runs keep exact samples (exact percentiles at report time).
    Past :attr:`SPILL_THRESHOLD` samples the recorder folds everything
    into a bounded :class:`~repro.sim.hist.LogHistogram` and keeps streaming
    into it, so memory stays O(buckets) for arbitrarily long runs while
    percentiles stay within the histogram's ~2% relative bucket error.
    """

    __slots__ = ("name", "_samples", "enabled", "_hist")

    #: Sample count at which exact storage spills to the histogram.
    SPILL_THRESHOLD = 65_536

    def __init__(self, name: str, enabled: bool = True) -> None:
        self.name = name
        self._samples: List[float] = []
        #: When False, :meth:`record` is a no-op (cheap to leave in place).
        self.enabled = enabled
        self._hist = None  # type: ignore[var-annotated]

    def __len__(self) -> int:
        if self._hist is not None:
            return self._hist.count
        return len(self._samples)

    @property
    def spilled(self) -> bool:
        """True once samples have been folded into the streaming histogram."""
        return self._hist is not None

    def _spill(self) -> None:
        from repro.sim.hist import LogHistogram

        hist = LogHistogram()
        hist.record_many(self._samples)
        self._samples = []
        self._hist = hist

    def record(self, latency: float) -> None:
        """Record one latency sample in seconds."""
        if not self.enabled:
            return
        if self._hist is not None:
            self._hist.record(latency)
            return
        self._samples.append(latency)
        if len(self._samples) >= self.SPILL_THRESHOLD:
            self._spill()

    def clear(self) -> None:
        """Drop all samples (e.g. at the end of warm-up)."""
        self._samples.clear()
        self._hist = None

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold ``other``'s distribution into this recorder; returns self.

        The merge is **exact in counts**: while both sides hold raw
        samples the lists concatenate (identical to having recorded every
        sample into one recorder); once either side has spilled, counts
        are added bucket-by-bucket into this recorder's log histogram —
        same bucket geometry, no re-sampling.  ``other`` is not modified.
        """
        if self._hist is None and other._hist is None:
            self._samples.extend(other._samples)
            if len(self._samples) >= self.SPILL_THRESHOLD:
                self._spill()
            return self
        if self._hist is None:
            self._spill()
        if other._hist is not None:
            self._hist.merge(other._hist)
        elif other._samples:
            self._hist.record_many(other._samples)
        return self

    def summary(self) -> Dict[str, float]:
        """Return count/mean/p50/p95/p99/p999/max in seconds (zeros if empty)."""
        if self._hist is not None:
            h = self._hist
            return {
                "count": h.count,
                "mean": h.mean,
                "p50": h.percentile(50),
                "p95": h.percentile(95),
                "p99": h.percentile(99),
                "p999": h.percentile(99.9),
                "max": h.max if h.count else 0.0,
            }
        if not self._samples:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "p999": 0.0, "max": 0.0}
        samples = self._samples
        ordered = sorted(samples)
        return {
            "count": len(samples),
            "mean": mean(samples),
            "p50": percentile(ordered, 50),
            "p95": percentile(ordered, 95),
            "p99": percentile(ordered, 99),
            "p999": percentile(ordered, 99.9),
            "max": ordered[-1],
        }


def _pairwise_sum(a: Sequence[float], lo: int, n: int) -> float:
    """NumPy's float64 ``add.reduce`` over ``a[lo:lo + n]``, same rounding.

    Up to 128 elements: eight interleaved partial sums, folded as a
    tree, then the tail.  Above: split at ``n // 2`` rounded down to a
    multiple of 8 and recurse.
    """
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = a[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += a[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(a, lo, n2) + _pairwise_sum(a, lo + n2, n - n2)


def mean(samples: Sequence[float]) -> float:
    """``np.mean`` of a non-empty float sequence, bit for bit."""
    return (0.0 + _pairwise_sum(samples, 0, len(samples))) / len(samples)


def percentile(ordered: Sequence[float], q: float) -> float:
    """``np.percentile(..., q)`` (linear method) of sorted, non-empty data.

    The virtual index is ``(n - 1) * q / 100``; between its neighbours
    ``a`` and ``b`` at fraction ``g`` the value is ``a + (b - a) * g``,
    or ``b - (b - a) * (1 - g)`` when ``g >= 0.5``, as NumPy's lerp.
    """
    n = len(ordered)
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        return ordered[-1]
    i = math.floor(virtual)
    a, b = ordered[i], ordered[i + 1]
    g = virtual - i
    if g >= 0.5:
        return b - (b - a) * (1 - g)
    return a + (b - a) * g
