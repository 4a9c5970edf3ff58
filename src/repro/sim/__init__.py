"""Discrete-event simulation kernel.

A small, fast, SimPy-flavoured DES written from scratch (SimPy is not a
dependency of this project).  It provides:

* :class:`~repro.sim.core.Environment` — the event loop and virtual clock.
* :class:`~repro.sim.core.Event`, :class:`~repro.sim.core.Timeout`,
  :class:`~repro.sim.core.Process` — the primitive coordination objects.
* :mod:`repro.sim.resources` — capacity-limited resources, stores and
  containers used to model CPUs, device queues and links.
* :mod:`repro.sim.queues` — FIFO and pooled servers (also the serialized
  sections) and bandwidth pipes used by the hardware models.
* :mod:`repro.sim.monitor` — lightweight instrumentation (rate meters,
  latency recorders).
* :mod:`repro.sim.spans` — request-scoped distributed tracing (spans,
  latency breakdowns, critical paths).
* :mod:`repro.sim.hist` — bounded-memory log-bucketed latency histograms.
* :mod:`repro.sim.timeseries` — the continuous telemetry bus (probes,
  bounded downsampling ring buffers, Little's-law self-check).
* :mod:`repro.sim.chrometrace` — Chrome trace-event / Perfetto export.
* :mod:`repro.sim.waits` — wait-cause attribution: why each process was
  blocked, per-resource, tagged with the active span.
* :mod:`repro.sim.flame` — sim-time and wait-time collapsed-stack
  flamegraphs (speedscope / flamegraph.pl).
* :mod:`repro.sim.doctor` — the automated bottleneck doctor: blame
  ranking, utilization/Little's-law cross-checks, SLO gates.

Time is a ``float`` in **seconds**.  All hardware models in
:mod:`repro.hw` build directly on these primitives.
"""

from repro.sim.core import (
    AllOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.hist import LogHistogram
from repro.sim.monitor import LatencyRecorder, RateMeter
from repro.sim.queues import BandwidthPipe, FifoServer
from repro.sim.resources import Container, Resource, Store
from repro.sim.rng import RngStreams, seed_from_key
from repro.sim.spans import (
    LatencyBreakdown,
    Span,
    SpanCollector,
    Trace,
    critical_path,
)
from repro.sim.doctor import Diagnosis, SloRule, diagnose, parse_slo
from repro.sim.flame import fold_spans, fold_waits, render_collapsed
from repro.sim.timeseries import Probe, Sampler, StationStats, TimeSeries
from repro.sim.waits import WaitRecord, WaitTracer

__all__ = [
    "AllOf",
    "BandwidthPipe",
    "Container",
    "Diagnosis",
    "Environment",
    "Event",
    "FifoServer",
    "Interrupt",
    "LatencyBreakdown",
    "LatencyRecorder",
    "LogHistogram",
    "Probe",
    "Process",
    "RateMeter",
    "Resource",
    "RngStreams",
    "seed_from_key",
    "Sampler",
    "SimulationError",
    "SloRule",
    "Span",
    "SpanCollector",
    "StationStats",
    "Store",
    "TimeSeries",
    "Timeout",
    "Trace",
    "WaitRecord",
    "WaitTracer",
    "critical_path",
    "diagnose",
    "fold_spans",
    "fold_waits",
    "parse_slo",
    "render_collapsed",
]
