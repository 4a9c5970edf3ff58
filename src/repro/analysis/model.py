"""Shared types for the static-analysis subsystem.

A :class:`Finding` is one rule violation at one source location; a
:class:`LintReport` is the outcome of a lint pass over a file set after
inline suppressions and the committed baseline have been applied.  Both
are plain data — the engine (:mod:`repro.analysis.lint`) produces them,
the CLI serializes them as ``repro-lint-v1`` JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = [
    "LINT_FORMAT",
    "RULES",
    "Finding",
    "LintReport",
]

#: Format tag for the JSON lint document emitted by ``repro.bench.cli lint``.
LINT_FORMAT = "repro-lint-v1"

#: Every rule the linter knows, with its one-line charter.  The IDs are
#: stable: suppression comments and baseline entries refer to them.
RULES: Dict[str, str] = {
    "SIM001": "wall-clock or entropy source in simulation code",
    "SIM002": "iteration over an unordered collection feeding "
              "scheduling or serialization",
    "SIM003": "tracer/telemetry hook invoked without the zero-cost "
              "'is not None' guard",
    "SIM004": "dataclass on a hot path missing slots=True",
    "SIM005": "order-sensitive float accumulation via sum() where "
              "math.fsum is exact",
    "SIM006": "volatile field read inside content-hash or run-ID "
              "derivation",
    "SIM007": "station reservation outside sim/queues.py",
    "SIM008": "a station's private server used outside its owner",
    "SIM009": "observation selects a slower path",
    "SIM010": "a station reports to a recorder other than the wait tracer",
    "SIM011": "a superseded timer told apart by identity, not cancelled",
    "SIM012": "a heap key built by hand, or a Timeout free-list",
    "SIM013": "process plumbing under src/repro/analysis",
    "SIM014": "a span passed as a trace argument instead of riding on "
              "its process",
}


@dataclass(slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str
    line_text: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "line_text": self.line_text,
        }


@dataclass(slots=True)
class LintReport:
    """Outcome of a lint pass after suppressions are applied.

    ``findings`` are the *unsuppressed* violations (what fails the
    gate); the suppressed ones are retained for the JSON document so a
    reviewer can audit what the baseline is absorbing.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed_inline: List[Finding] = field(default_factory=list)
    suppressed_baseline: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def to_doc(self, paths: List[str]) -> Dict[str, object]:
        """The ``repro-lint-v1`` JSON document."""
        return {
            "format": LINT_FORMAT,
            "paths": list(paths),
            "rules": dict(RULES),
            "counts": {
                "files": self.files_checked,
                "findings": len(self.findings),
                "suppressed_inline": len(self.suppressed_inline),
                "suppressed_baseline": len(self.suppressed_baseline),
                "parse_errors": len(self.parse_errors),
            },
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": {
                "inline": [f.to_dict() for f in self.suppressed_inline],
                "baseline": [f.to_dict() for f in self.suppressed_baseline],
            },
            "parse_errors": list(self.parse_errors),
            "ok": self.ok,
        }
