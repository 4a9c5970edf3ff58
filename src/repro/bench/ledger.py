"""The run ledger: a durable, diffable history of benchmark runs.

Every headline claim in the paper is a *comparison* — DPU vs host, RDMA
vs TCP — so a single run's verdict is only half the story.  The ledger
makes runs first-class artefacts: every campaign cell and each
``doctor``/``chaos`` invocation can append one ``repro-run-v1``
JSON record to a ledger directory (``benchmarks/ledger/`` for the
committed campaign), and the differential doctor
(:mod:`repro.sim.diffdoctor`) consumes any two records to explain *why*
B beats A.

Every record, of any experiment, is built by :func:`make_run_record`
and carries, already reduced:

* the run ``config`` (experiment knobs) and its hash;
* the full numeric ``metrics`` flatten (:func:`flatten_numeric`: dotted
  paths such as ``result.latency.p99``);
* the simulator's own ``cost``: kernel events dispatched per phase
  (setup with prefill, ramp, measured window, drain) and events per IO
  over the measured window (:func:`cost_section`).

A run observed by a wait tracer (Fig. 5 and chaos cells) adds what
delta attribution needs:

* ``traces``: the sampled requests' ``count`` and ``total_root_time``
  (their mean is the quotient, derived where it is read);
* sampled-span ``blame`` split into wait/service/latency;
* collapsed flame stacks for both span self-time and wait blame
  (integer nanoseconds — byte-stable).

A chaos cell adds its ``chaos`` section (:mod:`repro.bench.chaos`).

A record keeps only what a verdict reads, each fact once.  A view that
the config can regenerate is not stored: the ``--overlay`` trace
re-simulates each record's cell and reads the live tracer's wait
counters.

Run IDs are **content-derived**: a human slug from the config plus the
first hex digits of the record's canonical-JSON hash (volatile fields —
timestamps, git SHA — and ``cost`` excluded).  The simulator is
deterministic, so re-recording an unchanged cell reproduces the
identical ID and file, and any code change that moves an outcome shows
up as a new ID.  Records are built unstamped (volatile fields ``None``)
and the caller stamps the returned dict: the CLI reads the git SHA from
the environment or ``git rev-parse``; nothing in here shells out.
"""

from __future__ import annotations

import hashlib
import json
from math import fsum
import os
from typing import Dict, List, Optional

__all__ = [
    "FORMAT",
    "DEFAULT_LEDGER_DIR",
    "canonical_json",
    "config_hash",
    "config_slug",
    "flatten_numeric",
    "strip_volatile",
    "cost_section",
    "make_run_record",
    "save_run",
    "load_run",
    "resolve_ref",
    "list_runs",
    "run_summary",
]

FORMAT = "repro-run-v1"

#: Where the committed campaign lives, relative to the repo root.
DEFAULT_LEDGER_DIR = "benchmarks/ledger"

#: Fields excluded from the content hash: they vary between recordings
#: of the *same* outcome (wall time, checkout, source-tree fingerprint)
#: and must not move the ID.  ``code_fingerprint`` is volatile by
#: design — it keys the campaign executor's cache, and including it in
#: the ID would orphan every stable run-ID prefix on each comment edit.
_VOLATILE_FIELDS = ("run_id", "created", "git_sha", "code_fingerprint")

#: Deterministic fields the run ID does not hash: the ID names the
#: *simulated* outcome, while ``cost`` is what it took the simulator to
#: produce it.  ``strip_volatile`` keeps them, so the campaign gate and
#: the sanitizer's hash axis still pin them exactly.
_UNHASHED_FIELDS = ("cost",)


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    """Short hex hash identifying a run *configuration* (not its outcome)."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:10]


def content_hash(record: dict) -> str:
    """Hash of the record's simulated outcome (defines the run ID)."""
    body = {k: v for k, v in strip_volatile(record).items()
            if k not in _UNHASHED_FIELDS}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()[:10]


def strip_volatile(record: dict) -> dict:
    """The record's deterministic content (the run ID hashes it less
    ``cost``).

    The campaign determinism gate compares records through this view, so
    re-recordings that differ only in wall time / checkout / source
    fingerprint count as identical.
    """
    return {k: v for k, v in record.items() if k not in _VOLATILE_FIELDS}


def config_slug(config: dict) -> str:
    """Human-readable ID prefix from the config's identity fields."""
    parts = [str(config.get(k)) for k in
             ("experiment", "transport", "client", "rw", "bs")
             if config.get(k) is not None]
    if config.get("numjobs") is not None:
        parts.append(f"j{config['numjobs']}")
    if not parts:
        parts = [str(config.get("kind", "run"))]
    return "-".join(p.replace("/", "_").replace(" ", "_") for p in parts)


def flatten_numeric(doc: object, prefix: str = "") -> Dict[str, float]:
    """All numeric leaves of a JSON-ish document as ``dotted.path -> value``."""
    out: Dict[str, float] = {}
    if isinstance(doc, bool):  # bool is an int subclass; skip
        return out
    if isinstance(doc, (int, float)):
        out[prefix or "value"] = float(doc)
        return out
    if isinstance(doc, dict):
        for k in sorted(doc):
            sub = f"{prefix}.{k}" if prefix else str(k)
            out.update(flatten_numeric(doc[k], sub))
        return out
    if isinstance(doc, list):
        for i, item in enumerate(doc):
            sub = f"{prefix}[{i}]"
            out.update(flatten_numeric(item, sub))
        return out
    return out


def _finish_record(record: dict) -> dict:
    record["run_id"] = f"{config_slug(record['config'])}-{content_hash(record)}"
    return record


def cost_section(result, events_total: int) -> dict:
    """Kernel events dispatched per phase of a run, and per measured IO.

    ``result.phase_events`` holds the dispatch counter at the start of
    FIO, at the opening and at the close of the measured window;
    ``events_total`` is the counter when the record is made, so
    ``drain`` covers whatever ran after the window (a chaos cell's drain
    to an empty heap).  The four phases sum to ``events_total``.
    """
    start, opened, closed = result.phase_events
    measured = closed - opened
    return {
        "setup": start,
        "ramp": opened - start,
        "measured": measured,
        "drain": events_total - closed,
        "events_per_io": (measured / result.total_ios
                          if result.total_ios else 0.0),
    }


def make_run_record(
    result,
    config: dict,
    label: str,
    kind: str,
    collector=None,
    tracer=None,
    extra_sections: Optional[dict] = None,
) -> dict:
    """Reduce a run into one ``repro-run-v1`` record (its sections: see
    the module docstring).

    ``result`` is the :class:`~repro.workload.fio.FioResult`;
    ``collector``/``tracer`` are the span collector and wait tracer that
    observed the run, if any.  ``cost`` then reads the dispatch counter
    of the tracer's environment, so build the record once the run is
    over.  Without a tracer (Fig. 3 / Fig. 4 cells) nothing runs after
    FIO's window, so ``drain`` is 0.

    ``extra_sections`` merges additional top-level sections into the
    record (e.g. the chaos harness's ``chaos`` section);
    they are content-hashed like everything else, so the determinism
    gate covers them byte-for-byte.
    """
    events_total = (result.phase_events[2] if tracer is None
                    else tracer.env.events_processed)
    record = {
        "format": FORMAT,
        "kind": kind,
        "label": label,
        "created": None,
        "git_sha": None,
        "code_fingerprint": None,
        "config": dict(config),
        "config_hash": config_hash(config),
        "metrics": flatten_numeric({"result": result.to_dict()}),
        "cost": cost_section(result, events_total),
    }
    if tracer is not None:
        from repro.sim.flame import fold_spans, fold_waits

        roots = collector.roots()
        record.update({
            "traces": {"count": len(roots),
                       "total_root_time": fsum(s.duration for s in roots)},
            "blame": dict(sorted(tracer.blame_components().items())),
            "flame": {
                "spans": dict(sorted(fold_spans(collector.spans).items())),
                "waits": dict(sorted(
                    fold_waits(collector.spans, tracer.records).items())),
            },
        })
    for key, value in (extra_sections or {}).items():
        if key in record:
            raise ValueError(f"extra section {key!r} collides with a "
                             f"standard record field")
        record[key] = value
    return _finish_record(record)


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------

def save_run(record: dict, ledger_dir: str = DEFAULT_LEDGER_DIR) -> str:
    """Append the record to the ledger (one file per run ID)."""
    if record.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} record")
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, f"{record['run_id']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _ledger_ids(ledger_dir: str) -> List[str]:
    try:
        names = os.listdir(ledger_dir)
    except OSError:
        return []
    return sorted(n[:-5] for n in names if n.endswith(".json"))


def resolve_ref(ref: str, ledger_dir: str = DEFAULT_LEDGER_DIR) -> str:
    """Resolve a run reference to a file path.

    ``ref`` may be a path to a record file, an exact run ID in
    ``ledger_dir``, or a unique run-ID prefix (so CI can pin the stable
    config slug while the content hash moves with the code).
    """
    if os.path.isfile(ref):
        return ref
    ids = _ledger_ids(ledger_dir)
    if ref in ids:
        return os.path.join(ledger_dir, f"{ref}.json")
    matches = [i for i in ids if i.startswith(ref)]
    if len(matches) == 1:
        return os.path.join(ledger_dir, f"{matches[0]}.json")
    if len(matches) > 1:
        lines = [f"run ref {ref!r} is ambiguous in {ledger_dir} "
                 f"({len(matches)} matches):"]
        for rid in matches:  # ids are sorted, so candidates are too
            try:
                with open(os.path.join(ledger_dir, f"{rid}.json")) as fh:
                    record = json.load(fh)
                detail = f"  {rid}  [{record.get('kind', '?')}]"
            except (OSError, ValueError):
                detail = f"  {rid}"
            lines.append(detail)
        lines.append("give more characters of the ID to disambiguate")
        raise ValueError("\n".join(lines))
    known = ", ".join(ids) if ids else "(ledger empty)"
    raise ValueError(f"no run matching {ref!r} in {ledger_dir}; known: {known}")


def load_run(ref: str, ledger_dir: str = DEFAULT_LEDGER_DIR) -> dict:
    """Load a record by path, run ID, or unique ID prefix."""
    path = resolve_ref(ref, ledger_dir)
    with open(path) as fh:
        record = json.load(fh)
    if record.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} record "
                         f"(format={record.get('format')!r})")
    return record


def list_runs(ledger_dir: str = DEFAULT_LEDGER_DIR) -> List[dict]:
    """All ledger records, sorted by run ID (stable listing order)."""
    return [load_run(i, ledger_dir) for i in _ledger_ids(ledger_dir)]


def run_summary(record: dict) -> dict:
    """The one-line listing view of a record."""
    metrics = record.get("metrics", {})
    return {
        "run_id": record["run_id"],
        "kind": record.get("kind", "?"),
        "label": record.get("label", ""),
        "created": record.get("created"),
        "git_sha": record.get("git_sha"),
        "iops": metrics.get("result.iops"),
        "p99": metrics.get("result.latency.p99"),
    }
