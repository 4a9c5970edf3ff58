"""Static analysis for determinism: ``simlint`` + the race sanitizer.

This package machine-checks the invariants the rest of the repo only
promises: no wall-clock or entropy leaks into simulated time, no
hash-order dependence, no unguarded observer hooks, and headline
metrics that are invariant under equal-time event reordering.

* :mod:`repro.analysis.rules` — the SIM001–SIM013 AST rules
  (determinism, and the structure gates that keep each design decision
  in its one module);
* :mod:`repro.analysis.lint` — the engine (file walking, inline
  ``# simlint: disable=...`` comments);
* :mod:`repro.analysis.baseline` — the committed suppression baseline;
* :mod:`repro.analysis.sanitizer` — the virtual-time race sanitizer
  (tie-scramble × ``PYTHONHASHSEED`` matrix over the cells of a
  campaign spec, run by the campaign executor's cell runner and pool).

CLI entry points: ``python -m repro.bench.cli lint`` and ``... sanitize``.
"""

from repro.analysis.baseline import (
    BASELINE_FORMAT,
    DEFAULT_BASELINE_PATH,
    Baseline,
)
from repro.analysis.lint import (
    iter_python_files,
    lint_paths,
    lint_source,
    render_report,
)
from repro.analysis.model import LINT_FORMAT, RULES, Finding, LintReport
from repro.analysis.rules import check_source
from repro.analysis.sanitizer import (
    SANITIZE_FORMAT,
    compare_metrics,
    render_sanitize,
    run_sanitizer,
    spec_cells,
)

__all__ = [
    "LINT_FORMAT",
    "SANITIZE_FORMAT",
    "BASELINE_FORMAT",
    "DEFAULT_BASELINE_PATH",
    "RULES",
    "Finding",
    "LintReport",
    "Baseline",
    "check_source",
    "iter_python_files",
    "lint_source",
    "lint_paths",
    "render_report",
    "compare_metrics",
    "spec_cells",
    "run_sanitizer",
    "render_sanitize",
]
