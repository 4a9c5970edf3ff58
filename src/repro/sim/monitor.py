"""Lightweight instrumentation for simulation runs.

Benchmarks need throughput/IOPS/latency summaries without perturbing the
event loop.  Everything here is plain accumulation; percentile math is
vectorized with NumPy only at report time, as the optimization guides
recommend (measure first, never in the hot loop).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.sim.core import Environment

__all__ = ["RateMeter", "LatencyRecorder"]


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

    Short runs keep exact samples (NumPy percentiles at report time, as
    before).  Past ``spill_threshold`` samples the recorder folds everything
    into a bounded :class:`~repro.sim.hist.LogHistogram` and keeps streaming
    into it, so memory stays O(buckets) for arbitrarily long runs while
    percentiles stay within the histogram's ~2% relative bucket error.
    """

    __slots__ = ("name", "_samples", "enabled", "spill_threshold", "_hist")

    #: Default sample count at which exact storage spills to the histogram.
    SPILL_THRESHOLD = 65_536

    def __init__(self, name: str, enabled: bool = True,
                 spill_threshold: int = SPILL_THRESHOLD) -> None:
        if spill_threshold < 1:
            raise ValueError(f"spill_threshold must be >= 1, got {spill_threshold}")
        self.name = name
        self._samples: List[float] = []
        #: When False, :meth:`record` is a no-op (cheap to leave in place).
        self.enabled = enabled
        self.spill_threshold = spill_threshold
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
        if len(self._samples) >= self.spill_threshold:
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
            if len(self._samples) >= self.spill_threshold:
                self._spill()
            return self
        if self._hist is None:
            self._spill()
        if other._hist is not None:
            self._hist.merge(other._hist)
        elif other._samples:
            self._hist.record_many(other._samples)
        return self

    def histogram(self):
        """The streaming histogram view (spilling exact samples if needed)."""
        if self._hist is None:
            self._spill()
        return self._hist

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
        arr = np.asarray(self._samples, dtype=np.float64)
        p50, p95, p99, p999 = np.percentile(arr, (50, 95, 99, 99.9))
        return {
            "count": int(arr.size),
            "mean": float(arr.mean()),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
            "p999": float(p999),
            "max": float(arr.max()),
        }
