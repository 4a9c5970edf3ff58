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
from array import array
from typing import Dict, Sequence

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

    Every sample is kept, as a C double in an ``array('d')``: 8 bytes a
    sample, 8 MB per million IOs, and the percentiles are exact at any
    run length.
    """

    __slots__ = ("name", "_samples", "enabled")

    def __init__(self, name: str, enabled: bool = True) -> None:
        self.name = name
        self._samples = array("d")
        #: When False, :meth:`record` is a no-op (cheap to leave in place).
        self.enabled = enabled

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, latency: float) -> None:
        """Record one latency sample in seconds."""
        if self.enabled:
            self._samples.append(latency)

    def clear(self) -> None:
        """Drop all samples (e.g. at the end of warm-up)."""
        del self._samples[:]

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Append ``other``'s samples to this recorder; returns self.

        The result is the recorder that recorded both streams in turn;
        ``other`` is not modified.
        """
        self._samples.extend(other._samples)
        return self

    def summary(self) -> Dict[str, float]:
        """Return count/mean/p50/p95/p99/p999/max in seconds (zeros if empty)."""
        samples = self._samples
        if not samples:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "p999": 0.0, "max": 0.0}
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
