"""Continuous time-series telemetry on the DES kernel.

PR 1's :class:`~repro.sim.spans.Span` answers *where one request's time
went*; this module answers *how the system's load evolved* — the
utilization-over-time curves the DPU-characterization literature uses to
diagnose offload wins and losses (the Arm TCP/RX bottleneck of Fig. 5
emerges only at high ``numjobs`` and is invisible in point-in-time
snapshots).

Two pieces:

* :class:`TimeSeries` — a bounded buffer of *time-weighted* samples.
  Each point covers a window ``(t_end - dt, t_end]`` with the window's
  mean value.  When the buffer reaches capacity, adjacent windows are
  merged pairwise (halving the point count, doubling the resolution), so
  memory stays O(capacity) for arbitrarily long runs while the overall
  time-weighted mean is preserved *exactly*.
* :class:`Probe` + :class:`Sampler` — a sampling process that wakes every
  ``interval`` simulated seconds and polls registered probes into their
  series.  Gauge probes record instantaneous levels; cumulative probes
  (busy-seconds, byte counters) are differenced so every sample is the
  exact windowed utilization/rate over that interval.  The sampler only
  reads state — it never occupies a resource — so an instrumented run
  produces bit-identical simulated results to a bare one, and when it is
  never started the kernel schedules nothing at all (zero cost when off).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

__all__ = [
    "TimeSeries",
    "Probe",
    "Sampler",
]

#: Probe kinds (how raw readings become series values).
GAUGE = "gauge"          # fn() is an instantaneous level
RATE = "rate"            # fn() is a cumulative total; store delta / dt
UTILIZATION = "utilization"  # like RATE but the total is busy-seconds


class TimeSeries:
    """Bounded time-weighted series with automatic pairwise downsampling.

    Points are ``(t_end, dt, value)``: ``value`` is the mean of the
    underlying signal over ``(t_end - dt, t_end]``.  Appending past
    ``capacity`` merges adjacent pairs — the merged window's value is the
    duration-weighted mean of its halves — so the series keeps covering
    the full run at progressively coarser resolution.

    ``capacity`` must be even (pairwise merging halves it cleanly).
    """

    __slots__ = ("name", "unit", "kind", "node", "capacity", "merges",
                 "_t", "_dt", "_v")

    def __init__(self, name: str, capacity: int = 512, unit: str = "",
                 kind: str = GAUGE, node: Optional[str] = None) -> None:
        if capacity < 4 or capacity % 2:
            raise ValueError(f"capacity must be an even number >= 4, got {capacity}")
        self.name = name
        self.unit = unit
        self.kind = kind
        #: Owning node (picks the Perfetto process track); None = cluster.
        self.node = node
        self.capacity = int(capacity)
        #: Number of pairwise downsampling passes performed so far.
        self.merges = 0
        self._t: List[float] = []
        self._dt: List[float] = []
        self._v: List[float] = []

    def __len__(self) -> int:
        return len(self._t)

    def append(self, t_end: float, dt: float, value: float) -> None:
        """Add one window sample ending at ``t_end`` of width ``dt``."""
        if dt <= 0.0:
            return  # zero-width windows carry no information
        self._t.append(t_end)
        self._dt.append(dt)
        self._v.append(value)
        if len(self._t) >= self.capacity:
            self._downsample()

    def _downsample(self) -> None:
        """Merge adjacent windows pairwise (exact time-weighted means)."""
        t, dt, v = self._t, self._dt, self._v
        n = len(t) // 2 * 2
        nt: List[float] = []
        ndt: List[float] = []
        nv: List[float] = []
        for i in range(0, n, 2):
            w = dt[i] + dt[i + 1]
            nt.append(t[i + 1])
            ndt.append(w)
            nv.append((v[i] * dt[i] + v[i + 1] * dt[i + 1]) / w)
        if n < len(t):  # odd leftover point survives unmerged
            nt.append(t[-1])
            ndt.append(dt[-1])
            nv.append(v[-1])
        self._t, self._dt, self._v = nt, ndt, nv
        self.merges += 1

    # -- views --------------------------------------------------------------

    def points(self) -> List[Tuple[float, float, float]]:
        """``(t_end, dt, value)`` triples in time order."""
        return list(zip(self._t, self._dt, self._v))

    def values(self) -> List[float]:
        """Window mean values."""
        return list(self._v)

    @property
    def t_last(self) -> float:
        """End of the last window (``-inf`` when empty)."""
        return self._t[-1] if self._t else float("-inf")

    def max(self) -> float:
        """Largest window mean (0.0 when empty)."""
        return max(self._v) if self._v else 0.0

    def min(self) -> float:
        """Smallest window mean (0.0 when empty)."""
        return min(self._v) if self._v else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "kind": self.kind,
            "node": self.node,
            "merges": self.merges,
            "t": list(self._t),
            "dt": list(self._dt),
            "v": list(self._v),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TimeSeries {self.name} n={len(self)} "
                f"kind={self.kind} merges={self.merges}>")


class Probe:
    """One pollable signal: a name, a reader, and a conversion kind.

    ``fn()`` must be side-effect-free.  For :data:`GAUGE` probes the
    reading is stored as-is; for :data:`RATE` / :data:`UTILIZATION` probes
    the reading is a cumulative total and the sampler stores
    ``(reading - previous) / dt`` — the exact mean rate (or busy fraction,
    when the total is busy-seconds normalised by the server count) over
    the sampling window.
    """

    __slots__ = ("name", "fn", "kind", "unit", "node", "_prev")

    def __init__(self, name: str, fn: Callable[[], float], kind: str = GAUGE,
                 unit: str = "", node: Optional[str] = None) -> None:
        if kind not in (GAUGE, RATE, UTILIZATION):
            raise ValueError(f"unknown probe kind {kind!r}")
        self.name = name
        self.fn = fn
        self.kind = kind
        self.unit = unit
        self.node = node
        self._prev: Optional[float] = None


class Sampler:
    """The system-wide telemetry bus: polls probes into bounded series.

    Life cycle::

        sampler = Sampler(env, interval=5e-5)
        sampler.add_probe("dpu.cpu.busy", fn, kind=UTILIZATION, node="dpu")
        sampler.start()      # spawns the sampling process
        ...  # run the simulation
        sampler.stop()       # optional; the process parks itself when told

    Until :meth:`start` is called nothing is scheduled on the kernel, so a
    sampler that is merely constructed (or never constructed) costs zero.
    The sampling process only *reads* component state; it never acquires a
    resource or serves a queue, so sampled runs stay bit-identical to
    unsampled ones.
    """

    def __init__(self, env: "Environment", interval: float = 1e-4) -> None:
        if interval <= 0.0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.env = env
        self.interval = float(interval)
        self.series: Dict[str, TimeSeries] = {}
        self._probes: List[Probe] = []
        self._proc = None
        self._stopped = False
        #: Simulated time sampling began (NaN until started).
        self.t_start = float("nan")
        #: Samples taken (ticks of the sampling process).
        self.ticks = 0

    # -- registration --------------------------------------------------------

    def add_probe(self, name: str, fn: Callable[[], float], kind: str = GAUGE,
                  unit: str = "", node: Optional[str] = None) -> Probe:
        """Register a signal (primed at once if sampling already runs)."""
        if name in self.series:
            raise ValueError(f"duplicate probe name {name!r}")
        probe = Probe(name, fn, kind=kind, unit=unit, node=node)
        if self._proc is not None and kind != GAUGE:
            probe._prev = float(fn())
        self._probes.append(probe)
        unit = unit or ({UTILIZATION: "busy", RATE: "/s"}.get(kind, ""))
        self.series[name] = TimeSeries(name, unit=unit, kind=kind, node=node)
        return probe

    # -- life cycle ----------------------------------------------------------

    def start(self) -> "Sampler":
        """Spawn the sampling process (idempotent)."""
        if self._proc is None:
            self.t_start = self.env.now
            self._prime()
            self._proc = self.env.process(self._run(), name="telemetry-sampler")
        return self

    def stop(self) -> None:
        """Ask the sampling process to park after its next tick."""
        self._stopped = True

    def _prime(self) -> None:
        """Record cumulative-probe baselines at the sampling start."""
        for p in self._probes:
            if p.kind != GAUGE:
                p._prev = float(p.fn())

    def sample_now(self) -> None:
        """Take one sample covering the last interval."""
        now = self.env.now
        window = self.interval
        self.ticks += 1
        for p in self._probes:
            raw = float(p.fn())
            if p.kind == GAUGE:
                value = raw
            else:
                prev = raw if p._prev is None else p._prev
                p._prev = raw
                value = (raw - prev) / window if window > 0.0 else 0.0
            self.series[p.name].append(now, window, value)

    def _run(self):
        env = self.env
        interval = self.interval
        while not self._stopped:
            yield env.timeout(interval)
            self.sample_now()

    def to_dict(self) -> dict:
        return {
            "interval": self.interval,
            "t_start": self.t_start,
            "ticks": self.ticks,
            "series": {k: v.to_dict() for k, v in sorted(self.series.items())},
        }
