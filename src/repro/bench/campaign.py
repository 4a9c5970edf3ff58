"""The campaign executor: declarative sweeps, worker pools, run caching.

The paper's evaluation is a *grid* — provider × block size × numjobs ×
client placement × rw — and re-simulating every cell serially on every
invocation wastes exactly the resource the ROADMAP says to spend well.
This module turns a sweep into a first-class artefact:

* A **campaign spec** (``repro-campaign-v1`` JSON) names the grid
  declaratively: per-cell ``defaults``, cartesian ``grid`` axes (an axis
  value may be a scalar or a dict of correlated knobs, e.g. ``{"bs":
  4096, "numjobs": 16}``), plus explicit ``cells``.  :func:`expand_spec`
  expands it into normalized cell configs — the same dicts the run
  ledger hashes, so a campaign cell and a hand-run ``doctor --ledger``
  cell share one identity.

* The **executor** (:func:`run_campaign`) runs cells on a
  ``multiprocessing`` worker pool (``jobs=1`` stays in-process) and
  merges results deterministically: outcomes are sorted by cell key
  before anything is written, every volatile stamp (``created``,
  ``git_sha``, ``code_fingerprint``) is computed once in the parent, and
  per-cell wall-clock lives only in the campaign document — so a
  ``--jobs 8`` campaign writes ledger records *byte-identical* to a
  serial one.  A worker whose simulation raises produces a per-cell
  error entry; sibling cells complete normally.

* The **cache**: a cell is skipped when a ledger record with the same
  ``config_hash`` *and* the same :func:`code_fingerprint` (hash of the
  ``src/repro`` tree + package version, stamped on every record) already
  exists.  Incremental invocations therefore only re-simulate cells
  whose config or code changed; ``force=True`` re-simulates every cell
  regardless.

Determinism contract (see DESIGN §12): cell outcomes may depend only on
the cell config — per-cell RNG is seeded from the spec (or derived from
the cell key with ``"seed": "auto"``), never from worker identity,
completion order, or wall time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from math import fsum, isfinite
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import ledger as lg
from repro.hw.specs import MIB

__all__ = [
    "FORMAT",
    "code_fingerprint",
    "expand_spec",
    "normalize_cell",
    "cell_key",
    "cell_label",
    "load_spec",
    "parse_size",
    "run_cell",
    "cell_record",
    "execute_cell",
    "find_cached",
    "run_campaign",
    "check_campaign",
    "parse_cell_ref",
    "resolve_runs",
    "render_campaign",
]

FORMAT = "repro-campaign-v1"

_EXPERIMENTS = ("fig3", "fig4", "fig5", "chaos")


# ---------------------------------------------------------------------------
# Code fingerprint — the cache's second key
# ---------------------------------------------------------------------------

#: The tree :func:`code_fingerprint` hashes: the ``repro`` package.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def code_fingerprint() -> str:
    """Hash of the :data:`PACKAGE_ROOT` tree plus the package version.

    The content-addressed cache keys on ``(config_hash, code_fingerprint)``:
    a record produced by *different code* never satisfies a cache lookup,
    so touching any ``repro`` source file invalidates every cached cell.
    The fingerprint is stamped on records as a **volatile** field — it
    must not move run IDs, or every comment edit would orphan the stable
    ID prefixes CI pins.
    """
    root = PACKAGE_ROOT
    entries: List[Tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append((os.path.relpath(path, root), digest))
    try:
        from importlib.metadata import version

        pkg_version = version("repro")
    except Exception:
        pkg_version = "0"
    blob = lg.canonical_json({"version": pkg_version, "files": entries})
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Spec expansion and cell normalization
# ---------------------------------------------------------------------------

def load_spec(path: str) -> dict:
    """Load and sanity-check a ``repro-campaign-v1`` spec file."""
    with open(path) as fh:
        spec = json.load(fh)
    found = spec.get("format") if isinstance(spec, dict) else None
    if found != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} spec (format={found!r})")
    return spec


def parse_size(value) -> int:
    """Parse ``4096``, ``"4k"``, ``"1m"``, ``"2g"`` into bytes."""
    if not isinstance(value, str):
        return int(value)
    text = value.strip().lower()
    mult = 1
    if text.endswith(("k", "m", "g")):
        mult = {"k": 1024, "m": 1024**2, "g": 1024**3}[text[-1]]
        text = text[:-1]
    try:
        return int(float(text) * mult)
    except ValueError:
        raise ValueError(f"cannot parse size {value!r}") from None


def expand_spec(spec: dict) -> List[dict]:
    """Expand a campaign spec into normalized cell configs.

    ``grid`` axes combine as a cartesian product in sorted-axis-name
    order; each axis value may be a scalar (assigned to the axis name)
    or a dict of correlated knobs merged wholesale.  Explicit ``cells``
    entries are appended after the grid.  Expansion order — and hence
    the campaign's cell list — depends only on the spec content, never
    on dict insertion order.
    """
    defaults = dict(spec.get("defaults", {}))
    raw_cells: List[dict] = []
    grid = spec.get("grid", {})
    if grid:
        axes = sorted(grid)
        for combo in itertools.product(*(grid[a] for a in axes)):
            cell = dict(defaults)
            for axis, value in zip(axes, combo):
                if isinstance(value, dict):
                    cell.update(value)
                else:
                    cell[axis] = value
            raw_cells.append(cell)
    for cell in spec.get("cells", []):
        merged = dict(defaults)
        merged.update(cell)
        raw_cells.append(merged)
    configs = [normalize_cell(c) for c in raw_cells]
    seen: Dict[str, dict] = {}
    for cfg in configs:
        key = cell_key(cfg)
        if key in seen and seen[key] != cfg:  # pragma: no cover - paranoia
            raise ValueError(f"cell key collision: {key}")
        if key in seen:
            raise ValueError(f"duplicate cell in campaign: {key}")
        seen[key] = cfg
    return configs


def normalize_cell(cell: dict) -> dict:
    """Fill experiment defaults, reject bad knobs (``ValueError``) and
    return the cell's ledger config identity.

    The one place a cell config is built: the ``fig3``, ``fig4``,
    ``fig5``, ``doctor`` and ``chaos`` subcommands normalize their flags
    through here too, so a campaign cell and a hand-recorded run share
    one ``config_hash`` (and therefore one cache slot and one run ID).
    A key the config does not read (a typo, a stale knob) is rejected.
    A chaos cell is always observed: its verdict reads the fault blame.
    """
    experiment = cell.get("experiment", "fig5")
    if experiment == "fig5" and cell.get("faults") is not None:
        # A fig5 cell with a fault plan IS a chaos cell: distinct slug,
        # distinct executor branch, same testbed knobs.
        experiment = "chaos"
    if experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; "
                         f"expected one of {_EXPERIMENTS}")
    from repro.bench.runner import (
        default_iodepth,
        default_numjobs,
        default_runtime,
    )

    bs = parse_size(cell.get("bs", MIB if experiment == "fig3" else 4096))
    config: dict
    if experiment in ("fig5", "chaos"):
        numjobs = cell.get("numjobs")
        if numjobs is None:
            numjobs = default_numjobs(bs)
        runtime = cell.get("runtime")
        if runtime is None:
            runtime = default_runtime(bs)
        config = {
            "experiment": experiment,
            "transport": cell.get("transport", "tcp"),
            "client": cell.get("client", "dpu"),
            "rw": cell.get("rw", "randread"),
            "bs": bs,
            "numjobs": int(numjobs),
            "iodepth": int(cell.get("iodepth", default_iodepth(bs))),
            "runtime": float(runtime),
            "ssds": int(cell.get("ssds", 1)),
        }
        if experiment == "fig5":
            config["observe"] = cell.get("observe", True)
        if config.get("observe", True):
            config["sample_every"] = int(cell.get("sample_every", 20))
        if cell.get("targets") is not None:
            config["targets"] = int(cell["targets"])
        if experiment == "chaos":
            from repro.faults.plan import FaultPlan

            if cell.get("faults") is None:
                raise ValueError("chaos cells require a 'faults' key "
                                 "(a FaultPlan config)")
            # Round-trip through FaultPlan for validation + canonical
            # event order, so equivalent specs share one config hash.
            config["faults"] = FaultPlan.from_config(cell["faults"]).to_config()
            if cell.get("min_goodput") is not None:
                config["min_goodput"] = float(cell["min_goodput"])
            if cell.get("p999_max") is not None:
                config["p999_max"] = float(cell["p999_max"])
    elif experiment == "fig3":
        config = {
            "experiment": "fig3",
            "rw": cell.get("rw", "read"),
            "bs": bs,
            "numjobs": int(cell.get("numjobs", 1)),
            "iodepth": int(cell.get("iodepth", default_iodepth(bs))),
            "runtime": float(cell.get("runtime", 0.03)),
            "ssds": int(cell.get("ssds", 1)),
        }
    else:  # fig4
        config = {
            "experiment": "fig4",
            "provider": cell.get("provider", "ucx+rc"),
            "rw": cell.get("rw", "randread"),
            "bs": bs,
            "client_cores": int(cell.get("client_cores", 4)),
            "server_cores": int(cell.get("server_cores", 4)),
            "iodepth": int(cell.get("iodepth", 32)),
            "runtime": float(cell.get("runtime", 0.02)),
        }
    _check_cell(config)
    seed = cell.get("seed")
    if seed == "auto":
        from repro.sim.rng import seed_from_key

        base = {k: v for k, v in config.items() if k != "seed"}
        config["seed"] = seed_from_key(
            f"{lg.config_slug(base)}-{lg.config_hash(base)}")
    elif seed is not None:
        config["seed"] = int(seed)
    unread = sorted(k for k, v in cell.items()
                    if v is not None and k not in config)
    if unread:
        raise ValueError(f"a {experiment} cell does not read "
                         f"{', '.join(map(repr, unread))}")
    return config


def _check_cell(config: dict) -> None:
    """Raise ``ValueError`` on a knob no runner accepts, so a bad cell is
    rejected before anything is simulated.  Never rewrites a value: the
    config (and so the run ID) of a valid cell is what the caller wrote.

    The one validator of a cell: campaign cells, and the ``fig3``,
    ``fig4``, ``fig5``, ``doctor`` and ``chaos`` subcommands' flags, all
    come through here.
    """
    from repro.hw.specs import EPYC_HOST, STORAGE_SERVER
    from repro.net.fabric import resolve_provider
    from repro.workload.fio import WORKLOADS

    for key in ("transport", "provider"):
        if key in config:
            resolve_provider(config[key])
    if config.get("client", "host") not in ("host", "dpu"):
        raise ValueError(f"unknown client {config['client']!r}; "
                         "expected 'host' or 'dpu'")
    if config["rw"] not in WORKLOADS:
        raise ValueError(f"unknown rw {config['rw']!r}; "
                         f"expected one of {WORKLOADS}")
    if not 1 <= config.get("ssds", 1) <= 4:
        raise ValueError(f"ssds must be 1-4, got {config['ssds']}")
    for key in ("bs", "numjobs", "iodepth", "runtime", "sample_every",
                "targets"):
        if key in config and not config[key] > 0:
            raise ValueError(f"{key} must be > 0, got {config[key]}")
    if "runtime" in config and not isfinite(config["runtime"]):
        raise ValueError(f"runtime must be finite, got {config['runtime']}")
    # Fig. 4 pins cores on the testbed's Fig. 4 client and server hosts.
    for key, spec in (("client_cores", EPYC_HOST),
                      ("server_cores", STORAGE_SERVER)):
        if key in config and not 1 <= config[key] <= spec.cores:
            raise ValueError(f"{key} must be 1-{spec.cores} "
                             f"({spec.name}), got {config[key]}")
    if "min_goodput" in config and not 0 < config["min_goodput"] <= 1:
        raise ValueError(f"min_goodput must be in (0, 1], "
                         f"got {config['min_goodput']}")
    if "p999_max" in config and not config["p999_max"] > 0:
        raise ValueError(f"p999_max must be > 0, got {config['p999_max']}")
    if not isinstance(config.get("observe", True), bool):
        raise ValueError(f"observe must be true or false, "
                         f"got {config['observe']!r}")


def cell_key(config: dict) -> str:
    """The cell's stable identity: human slug + config hash.

    Depends only on the config content — two campaigns (or a campaign
    and a single ``doctor --ledger`` run) naming the same cell agree on
    the key regardless of spec layout or execution order.
    """
    return f"{lg.config_slug(config)}-{lg.config_hash(config)}"


def _kind(config: dict) -> str:
    """The record ``kind``: an observed Fig. 5 cell is a ``doctor`` run,
    every other cell its experiment."""
    return "doctor" if config.get("observe") else config["experiment"]


def cell_label(config: dict) -> str:
    """The human label recorded on the cell's ledger record.

    Must match the label the equivalent CLI invocation writes — labels
    are content-hashed, so a mismatch would fork the run ID.
    """
    experiment = config["experiment"]
    if experiment in ("fig5", "chaos"):
        return (f"{_kind(config)} {config['transport']}/{config['client']} "
                f"{config['rw']} bs={config['bs']} jobs={config['numjobs']} "
                f"ssds={config['ssds']}")
    if experiment == "fig3":
        return (f"fig3 {config['rw']} bs={config['bs']} "
                f"jobs={config['numjobs']} ssds={config['ssds']}")
    return (f"fig4 {config['provider']} {config['rw']} bs={config['bs']} "
            f"c={config['client_cores']} s={config['server_cores']}")


# ---------------------------------------------------------------------------
# Single-cell execution (runs in workers and in-process alike)
# ---------------------------------------------------------------------------

def run_cell(config: dict, tie_seed: Optional[int] = None,
             observe_sampler: bool = False):
    """Simulate a normalized cell of any experiment.

    The one mapping from a cell config to a runner call, shared by the
    executor, the race sanitizer and the ``fig3``, ``fig4``, ``fig5``,
    ``doctor`` and ``chaos`` subcommands.  Returns the
    :class:`~repro.workload.fio.FioResult` (fig3, fig4),
    :class:`~repro.bench.runner.DoctoredRun` (fig5; an unobserved cell's
    has no collector, tracer or sampler) or
    :class:`~repro.bench.runner.ChaosRun` (chaos).

    ``tie_seed`` permutes the kernel's equal-time pop order (see
    :func:`repro.sim.core.tie_scramble`); ``observe_sampler`` attaches
    the continuous sampler to an observed Fig. 5 cell, whose ticks are
    kernel events, so such a run is never recorded.  Both are arguments
    of the run, not config fields: the run claims to be the same
    experiment, so its config, label and cache slot stay the cell's own.
    """
    from repro.bench import runner

    experiment, seed = config["experiment"], config.get("seed")
    if experiment == "fig3":
        return runner.run_fig3_cell(
            config["rw"], config["bs"], config["numjobs"],
            n_ssds=config["ssds"], iodepth=config["iodepth"],
            runtime=config["runtime"], seed=seed)
    if experiment == "fig4":
        return runner.run_fig4_cell(
            config["provider"], config["rw"], config["bs"],
            config["client_cores"], config["server_cores"],
            iodepth=config["iodepth"], runtime=config["runtime"], seed=seed)
    cell = (config["transport"], config["client"], config["rw"],
            config["bs"], config["numjobs"])
    knobs = dict(n_ssds=config["ssds"], iodepth=config["iodepth"],
                 runtime=config["runtime"], seed=seed,
                 n_targets=config.get("targets"), tie_seed=tie_seed)
    if not config.get("observe", True):
        system, spec = runner._build_fig5(*cell, **knobs)
        return runner.DoctoredRun(
            result=runner.run_ros2_fio(system, spec), collector=None,
            tracer=None, sampler=None, system=system, spec=spec,
            stations=runner.doctor_stations(system))
    knobs["sample_every"] = config["sample_every"]
    if experiment == "chaos":
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.from_config(config["faults"])
        return runner.run_fig5_chaos(*cell, plan, **knobs)
    return runner.run_fig5_doctored(*cell, observe_sampler=observe_sampler,
                                    **knobs)


def cell_record(config: dict, run) -> dict:
    """Reduce a :func:`run_cell` outcome to the cell's *unstamped* record.

    The one record builder of every experiment: every record carries the
    metrics and ``cost``; observed fig5 and chaos records add the blame
    and flame sections their tracer observed.
    """
    experiment, label = config["experiment"], cell_label(config)
    if experiment in ("fig3", "fig4"):
        return lg.make_run_record(run, config, label, experiment)
    if experiment == "fig5":
        return lg.make_run_record(run.result, config, label, _kind(config),
                                  run.collector, run.tracer)
    from repro.bench.chaos import (
        DEFAULT_MIN_GOODPUT,
        DEFAULT_P999_MAX,
        chaos_sections,
    )

    doctored = run.run
    sections = chaos_sections(
        doctored.result, run.stats, run.plan,
        min_goodput=config.get("min_goodput", DEFAULT_MIN_GOODPUT),
        p999_max=config.get("p999_max", DEFAULT_P999_MAX))
    return lg.make_run_record(
        doctored.result, config, label, "chaos", doctored.collector,
        doctored.tracer, extra_sections={"chaos": sections})


def execute_cell(config: dict, tie_seed: Optional[int] = None) -> dict:
    """Simulate one cell and reduce it to an *unstamped* ledger record.

    Volatile fields (``created``/``git_sha``/``code_fingerprint``) are
    left for the parent to stamp once, so records cannot depend on which
    worker ran them or when they finished.
    """
    return cell_record(config, run_cell(config, tie_seed))


#: ``(key, config, tie_seed)``; the key comes back first in the result.
_WorkItem = Tuple[object, dict, Optional[int]]


def _campaign_worker(item: _WorkItem) -> tuple:
    """Pool entry point: never raises — a crash becomes a per-cell error."""
    key, config, tie_seed = item
    t0 = time.perf_counter()
    try:
        record = execute_cell(config, tie_seed)
    except BaseException as exc:  # noqa: BLE001 - isolation is the point
        return (key, "error",
                {"error": f"{type(exc).__name__}: {exc}",
                 "traceback": traceback.format_exc()},
                time.perf_counter() - t0)
    return (key, "ok", record, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def find_cached(config: dict, fingerprint: str,
                ledger_dir: str = lg.DEFAULT_LEDGER_DIR) -> Optional[dict]:
    """A committed record that already answers this cell, or ``None``.

    Cache key: the record's full ``config`` equals the cell's *and* its
    stamped ``code_fingerprint`` equals the current tree's.  Records
    without a fingerprint (pre-campaign vintage) never hit.
    """
    want_hash = lg.config_hash(config)
    try:
        names = sorted(os.listdir(ledger_dir))
    except OSError:
        return None
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(ledger_dir, name)) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            continue
        if record.get("format") != lg.FORMAT:
            continue
        if record.get("config_hash") != want_hash:
            continue
        if record.get("config") != config:
            continue
        if record.get("code_fingerprint") != fingerprint:
            continue
        return record
    return None


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

@dataclass
class CellOutcome:
    """What happened to one cell of the campaign."""

    key: str
    config: dict
    status: str  # "cached" | "ran" | "error" | "would-run"
    run_id: Optional[str] = None
    path: Optional[str] = None
    wall_s: float = 0.0
    error: Optional[str] = None
    traceback: Optional[str] = None

    def to_dict(self) -> dict:
        out = {"key": self.key, "status": self.status,
               "config": self.config, "wall_s": self.wall_s}
        if self.run_id is not None:
            out["run_id"] = self.run_id
        if self.path is not None:
            out["path"] = self.path
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class CampaignResult:
    """The executor's report: one outcome per cell plus timing."""

    name: str
    jobs: int
    ledger_dir: str
    fingerprint: str
    outcomes: List[CellOutcome] = field(default_factory=list)
    wall_s: float = 0.0
    dry_run: bool = False

    @property
    def errors(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "error"]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "format": FORMAT,
            "name": self.name,
            "jobs": self.jobs,
            "ledger_dir": self.ledger_dir,
            "code_fingerprint": self.fingerprint,
            "dry_run": self.dry_run,
            "n_cells": len(self.outcomes),
            "counts": self.counts(),
            "wall_s": self.wall_s,
            "cell_wall_s": fsum(o.wall_s for o in self.outcomes),
            "cells": [o.to_dict() for o in self.outcomes],
        }


def _pool_map(items: List[_WorkItem], jobs: int,
              on_result: Callable[[tuple], None],
              hash_seed: Optional[int] = None) -> None:
    """Run :func:`_campaign_worker` over ``items`` on ``jobs`` processes.

    Results are delivered through ``on_result`` in item order.  A broken
    pool (worker killed outright) surfaces as per-cell errors for every
    not-yet-finished item rather than aborting the campaign.

    Workers are forked, unless ``hash_seed`` is given: then they are
    spawned, fresh interpreters that start with that ``PYTHONHASHSEED``
    (a spawned worker inherits ``os.environ`` as it is when the pool
    starts it, and the hash seed is fixed at interpreter start).
    """
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        ctx = mp.get_context("fork" if hash_seed is None else "spawn")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = mp.get_context()
    saved = os.environ.get("PYTHONHASHSEED")
    if hash_seed is not None:
        os.environ["PYTHONHASHSEED"] = str(hash_seed)
    done = 0
    try:
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            for result in pool.map(_campaign_worker, items):
                done += 1
                on_result(result)
    except BrokenProcessPool:
        for key, _, _ in items[done:]:
            on_result((key, "error",
                       {"error": "worker process died (BrokenProcessPool)",
                        "traceback": ""}, 0.0))
    finally:
        if saved is None:
            os.environ.pop("PYTHONHASHSEED", None)
        else:
            os.environ["PYTHONHASHSEED"] = saved


def run_campaign(
    spec: dict,
    jobs: int = 1,
    ledger_dir: str = lg.DEFAULT_LEDGER_DIR,
    force: bool = False,
    dry_run: bool = False,
    git_sha: Optional[str] = None,
    created: Optional[str] = None,
    progress: Optional[Callable[[CellOutcome], None]] = None,
    fingerprint: Optional[str] = None,
) -> CampaignResult:
    """Expand ``spec``, execute every non-cached cell, merge into the ledger.

    The merge is deterministic: outcomes sort by cell key, all volatile
    stamps come from the parent's arguments, and records are written in
    sorted order after the pool drains — a ``jobs=N`` campaign's ledger
    output is byte-identical to ``jobs=1`` given the same stamps.
    """
    t0 = time.perf_counter()
    configs = expand_spec(spec)
    if fingerprint is None:
        fingerprint = code_fingerprint()
    result = CampaignResult(name=str(spec.get("name", "campaign")),
                            jobs=jobs, ledger_dir=ledger_dir,
                            fingerprint=fingerprint, dry_run=dry_run)

    outcomes: Dict[str, CellOutcome] = {}
    to_run: List[_WorkItem] = []
    for config in configs:
        key = cell_key(config)
        cached = None if force else find_cached(config, fingerprint,
                                                ledger_dir)
        if cached is not None:
            outcomes[key] = CellOutcome(
                key=key, config=config, status="cached",
                run_id=cached["run_id"],
                path=os.path.join(ledger_dir, f"{cached['run_id']}.json"))
            if progress is not None:
                progress(outcomes[key])
        elif dry_run:
            outcomes[key] = CellOutcome(key=key, config=config,
                                        status="would-run")
            if progress is not None:
                progress(outcomes[key])
        else:
            to_run.append((key, config, None))

    records: Dict[str, dict] = {}

    def on_result(res: tuple) -> None:
        key, status, payload, wall = res
        config = dict(next(c for k, c, _ in to_run if k == key))
        if status == "ok":
            records[key] = payload
            outcomes[key] = CellOutcome(key=key, config=config, status="ran",
                                        run_id=payload["run_id"], wall_s=wall)
        else:
            outcomes[key] = CellOutcome(key=key, config=config,
                                        status="error", wall_s=wall,
                                        error=payload["error"],
                                        traceback=payload.get("traceback"))
        if progress is not None:
            progress(outcomes[key])

    if to_run:
        if jobs <= 1 or len(to_run) == 1:
            for item in to_run:
                on_result(_campaign_worker(item))
        else:
            _pool_map(to_run, jobs, on_result)

    # Deterministic merge: sorted by cell key, volatile stamps from the
    # parent, written only after every cell has reported.
    for key in sorted(records):
        record = records[key]
        record["created"] = created
        record["git_sha"] = git_sha
        record["code_fingerprint"] = fingerprint
        path = lg.save_run(record, ledger_dir)
        outcomes[key].path = path

    result.outcomes = [outcomes[k] for k in sorted(outcomes)]
    result.wall_s = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------
# Verification against a committed ledger (the CI determinism gate)
# ---------------------------------------------------------------------------

def _what_moved(produced: dict, committed: dict) -> str:
    """Name the top-level sections two records disagree on.

    A moved ``cost`` also reports the measured events/IO, committed →
    produced, so a change in the simulator's event count reads as such.
    """
    a, b = lg.strip_volatile(committed), lg.strip_volatile(produced)
    moved = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    parts = []
    for key in moved:
        old, new = a.get(key), b.get(key)
        if key == "cost" and old and new:
            parts.append(f"cost: measured {old['events_per_io']:.3f} → "
                         f"{new['events_per_io']:.3f} events/IO")
        else:
            parts.append(key)
    return ", ".join(parts)


def check_campaign(result: CampaignResult, against_dir: str) -> List[str]:
    """Compare the campaign's records against a committed ledger directory.

    Returns failure strings (empty = every cell reproduced), each naming
    the record sections that moved.  Volatile fields are ignored — the
    comparison is on run IDs (content-derived) and the stripped record
    content, ``cost`` included, which is exactly the "parallel runs are
    byte-identical to the committed serial campaign" claim.
    """
    failures = []
    for outcome in result.outcomes:
        if outcome.status == "error":
            failures.append(f"{outcome.key}: cell errored: {outcome.error}")
            continue
        if outcome.run_id is None:  # pragma: no cover - dry runs
            failures.append(f"{outcome.key}: no record produced")
            continue
        produced = lg.load_run(outcome.run_id, result.ledger_dir)
        committed_path = os.path.join(against_dir, f"{outcome.run_id}.json")
        if not os.path.isfile(committed_path):
            hint = ""
            want_hash = lg.config_hash(outcome.config)
            for record in lg.list_runs(against_dir):
                if record.get("config_hash") == want_hash:
                    hint = (f" (committed ledger has {record['run_id']} for "
                            f"this config — content differs in "
                            f"{_what_moved(produced, record)})")
                    break
            failures.append(f"{outcome.key}: {outcome.run_id}.json not in "
                            f"{against_dir}{hint}")
            continue
        with open(committed_path) as fh:
            committed = json.load(fh)
        moved = _what_moved(produced, committed)
        if moved:
            failures.append(f"{outcome.key}: content differs from committed "
                            f"{outcome.run_id}.json despite equal run ID "
                            f"in {moved}")
    return failures


# ---------------------------------------------------------------------------
# Cell references — "cell:k=v,..." resolved through the executor
# ---------------------------------------------------------------------------

def parse_cell_ref(ref: str) -> dict:
    """Parse ``cell:transport=rdma,bs=4k,numjobs=16`` into a cell dict.

    Values parse as int/float/bool where they look like one; ``bs``
    accepts size suffixes.  The result feeds :func:`normalize_cell`, so
    unspecified knobs take the standard defaults.
    """
    body = ref[len("cell:"):]
    cell: dict = {}
    for part in filter(None, body.split(",")):
        if "=" not in part:
            raise ValueError(f"bad cell ref component {part!r} "
                             "(expected key=value)")
        key, value = part.split("=", 1)
        key = key.strip()
        value = value.strip()
        if value.lower() in ("true", "false"):
            cell[key] = value.lower() == "true"
        else:
            try:
                cell[key] = int(value)
            except ValueError:
                try:
                    cell[key] = float(value)
                except ValueError:
                    cell[key] = value
    return cell


def resolve_runs(refs: List[str], ledger_dir: str = lg.DEFAULT_LEDGER_DIR,
                 git_sha: Optional[str] = None,
                 created: Optional[str] = None) -> List[dict]:
    """The records ``refs`` name, in order: ledger runs (ID, unique ID
    prefix or file path) and ``cell:`` references.

    This is how ``compare-runs`` accepts cells that were never recorded:
    every reference is checked first (``ValueError`` before anything is
    simulated), then the ``cell:`` references run as one campaign —
    cache-first, with the same config identity a campaign gives them —
    and are recorded into the ledger.
    """
    configs = [normalize_cell(parse_cell_ref(ref))
               if ref.startswith("cell:") else None for ref in refs]
    records = [lg.load_run(ref, ledger_dir) if config is None else None
               for ref, config in zip(refs, configs)]
    cells = {cell_key(c): c for c in configs if c is not None}
    result = run_campaign({"format": FORMAT, "name": "adhoc-cells",
                           "cells": list(cells.values())},
                          ledger_dir=ledger_dir, git_sha=git_sha,
                          created=created)
    if result.errors:
        err = result.errors[0]
        raise ValueError(f"cell {err.key} failed: {err.error}")
    run_ids = {o.key: o.run_id for o in result.outcomes}
    return [record if config is None
            else lg.load_run(run_ids[cell_key(config)], ledger_dir)
            for record, config in zip(records, configs)]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_campaign(result: CampaignResult) -> str:
    """One-screen human summary of a campaign run."""
    counts = result.counts()
    head = (f"campaign {result.name}: {len(result.outcomes)} cells, "
            f"jobs={result.jobs}"
            + (" (dry run)" if result.dry_run else ""))
    parts = [f"{counts.get(s, 0)} {s}" for s in
             ("ran", "cached", "would-run", "error") if counts.get(s)]
    lines = [head + " — " + ", ".join(parts) if parts else head]
    for o in result.outcomes:
        mark = {"ran": "+", "cached": "=", "would-run": "~",
                "error": "!"}.get(o.status, "?")
        tail = o.run_id or ""
        if o.status == "error":
            tail = o.error or "error"
        wall = f" [{o.wall_s * 1e3:7.1f} ms]" if o.wall_s else ""
        lines.append(f"  {mark} {o.key:48s} {o.status:9s}{wall} {tail}")
    lines.append(f"  wall {result.wall_s:.3f} s "
                 f"(cell time {fsum(o.wall_s for o in result.outcomes):.3f} s, "
                 f"fingerprint {result.fingerprint})")
    return "\n".join(lines)
