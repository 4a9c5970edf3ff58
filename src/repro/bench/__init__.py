"""Benchmark harness: experiment builders, sweeps, and report rendering.

* :mod:`repro.bench.runner` — one builder per paper experiment (local FIO,
  remote SPDK, end-to-end DFS/ROS2).  Every cell of every figure builds
  a fresh simulated testbed, so cells are independent and reproducible.
* :mod:`repro.bench.campaign` — a cell's config (:func:`normalize_cell`),
  its one runner for every experiment (:func:`run_cell`) and sweeps.
* :mod:`repro.bench.report` — ASCII tables and heatmaps that
  mirror how the paper presents each figure.
* :mod:`repro.bench.calibration` — the paper's reported numbers/bands and
  shape checks (who wins, by what factor, where crossovers sit).  The
  figure benches print and assert paper-vs-measured for all but one of
  them; tier-1 and ``cli verdict`` check only four (the module
  docstring lists which).
"""

from repro.bench.calibration import PAPER_BANDS, ShapeCheck
from repro.bench.campaign import normalize_cell, run_cell
from repro.bench.report import Table, format_heatmap, format_rate
from repro.bench.runner import run_fig3_cell, run_fig4_cell, run_ros2_fio

__all__ = [
    "PAPER_BANDS",
    "ShapeCheck",
    "Table",
    "format_heatmap",
    "format_rate",
    "normalize_cell",
    "run_cell",
    "run_fig3_cell",
    "run_fig4_cell",
    "run_ros2_fio",
]
